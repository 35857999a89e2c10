"""Discrete-event engine: clock monotonicity and event ordering."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.engine import Simulator


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().advance(-0.1)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_past_rejected(self):
        clock = SimClock(start=5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(start=-1.0)

    def test_reset(self):
        clock = SimClock()
        clock.advance(7.0)
        clock.reset()
        assert clock.now == 0.0


class TestSimulator:
    def test_schedule_after_uses_now(self, sim):
        sim.clock.advance(10.0)
        fired = []
        sim.schedule_after(5.0, lambda: fired.append(sim.now))
        sim.run_until(20.0)
        assert fired == [15.0]
        assert sim.now == 20.0

    def test_schedule_in_past_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_at(-1.0, lambda: None)
        sim.clock.advance(10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_fire_due_events_only_fires_due(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("early"))
        sim.schedule_at(9.0, lambda: fired.append("late"))
        sim.clock.advance(2.0)
        count = sim.fire_due_events()
        assert count == 1
        assert fired == ["early"]

    def test_fire_due_events_noop_when_nothing_due(self, sim):
        sim.schedule_at(5.0, lambda: None)
        assert sim.fire_due_events() == 0

    def test_run_until_advances_through_events(self, sim):
        timeline = []
        sim.schedule_at(1.0, lambda: timeline.append(sim.now))
        sim.schedule_at(2.0, lambda: timeline.append(sim.now))
        sim.run_until(3.0)
        assert timeline == [1.0, 2.0]
        assert sim.now == 3.0

    def test_run_until_past_deadline_rejected(self, sim):
        sim.clock.advance(2.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_events_can_schedule_events(self, sim):
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule_after(1.0, chain)

        sim.schedule_at(1.0, chain)
        sim.run_all()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_all_guards_against_loops(self, sim):
        def forever():
            sim.schedule_after(0.0, forever)

        sim.schedule_at(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run_all(max_events=100)

    def test_run_all_exact_budget_is_not_a_loop(self, sim):
        """Regression: exactly max_events queued must drain cleanly.

        The old engine raised ``SimulationError`` when the queue held
        exactly ``max_events`` events — an off-by-one that punished
        legitimate workloads sized at the budget.
        """
        fired = []
        for i in range(10):
            sim.schedule_at(float(i), lambda i=i: fired.append(i))
        sim.run_all(max_events=10)
        assert fired == list(range(10))

    def test_run_all_budget_plus_one_still_raises(self, sim):
        for i in range(11):
            sim.schedule_at(float(i), lambda: None)
        with pytest.raises(SimulationError):
            sim.run_all(max_events=10)

    def test_events_fired_counter(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run_all()
        assert sim.events_fired == 2

    def test_pending_events_is_live_count(self, sim):
        handles = [sim.schedule_at(float(i), lambda: None) for i in range(4)]
        assert sim.pending_events == 4
        handles[1].cancel()
        assert sim.pending_events == 3
        sim.run_all()
        assert sim.pending_events == 0


class TestEventHandle:
    def test_handle_exposes_event_identity(self, sim):
        handle = sim.schedule_at(2.5, lambda: None, label="tick")
        assert handle.time == 2.5
        assert handle.label == "tick"
        assert not handle.cancelled
        assert "tick" in repr(handle)

    def test_seq_is_monotonic_scheduling_order(self, sim):
        first = sim.schedule_at(9.0, lambda: None)
        second = sim.schedule_at(1.0, lambda: None)
        assert second.seq > first.seq

    def test_cancel_is_idempotent(self, sim):
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("x"))
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        sim.run_all()
        assert fired == []
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("x"))
        sim.run_all()
        handle.cancel()
        assert not handle.cancelled  # fired, not cancelled
        assert fired == ["x"]


class TestConstruction:
    def test_construction_is_keyword_only(self):
        with pytest.raises(TypeError):
            Simulator(SimClock())

    def test_takes_only_clock_and_obs(self):
        with pytest.raises(TypeError):
            Simulator(engine="array")


class TestEngineEdgeCases:
    """Edge cases the fault injector leans on."""

    def test_cancel_after_pop_is_harmless(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.run_until(1.0)
        event.cancel()  # already popped: must not corrupt the heap
        assert sim.pending_events == 0
        sim.schedule_at(2.0, lambda: fired.append("b"))
        assert sim.pending_events == 1
        sim.run_all()
        assert fired == ["a", "b"]

    def test_cancel_fired_simulator_event_is_harmless(self, sim):
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append(sim.now))
        sim.run_until(2.0)
        assert fired == [1.0]
        event.cancel()  # disarming an injector after its fault fired
        sim.run_until(3.0)
        assert fired == [1.0]

    def test_same_time_order_stable_under_interleaved_cancel(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule_at(1.0, lambda i=i: fired.append(i)) for i in range(6)]
        events[1].cancel()
        events[4].cancel()
        # Re-scheduling at the same timestamp lands after survivors.
        sim.schedule_at(1.0, lambda: fired.append(6))
        sim.run_all()
        assert fired == [0, 2, 3, 5, 6]

    def test_schedule_then_cancel_then_reschedule_keeps_fifo(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("a"))
        doomed = sim.schedule_at(1.0, lambda: fired.append("x"))
        sim.schedule_at(1.0, lambda: fired.append("b"))
        doomed.cancel()
        sim.schedule_at(1.0, lambda: fired.append("c"))
        sim.run_all()
        assert fired == ["a", "b", "c"]

    def test_injector_events_interleave_with_availability_changes(self):
        """Fault events and experiment throttles share one queue.

        A throttle (availability change), a fault, and a recovery all
        scheduled at the same machine must fire in timestamp order with
        same-time FIFO stability, regardless of scheduling order.
        """
        from repro.config import SystemConfig
        from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
        from repro.hw.topology import build_machine

        machine = build_machine(SystemConfig())
        cse = machine.csd.cse
        trace = []

        machine.simulator.schedule_at(
            1.5, lambda: (cse.set_availability(0.3), trace.append("throttle"))
        )
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=1.0, duration_s=1.0),
        )))
        injector.arm()
        machine.simulator.schedule_at(
            1.0, lambda: trace.append(f"observer crashed={cse.crashed}")
        )

        machine.simulator.run_until(3.0)
        # The injector armed first at t=1.0, so the observer sees the
        # crash; the throttle lands mid-outage; the reset restores a
        # clean availability of 1.0 afterwards.
        assert trace == ["observer crashed=True", "throttle"]
        assert not cse.crashed
        assert cse.availability == 1.0
        assert [event.action for event in injector.log.events] == [
            "injected", "recovered",
        ]
