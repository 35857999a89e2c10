"""Runtime monitor triggers and migration mechanics."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import MigrationError
from repro.runtime.dispatch import StatusUpdate
from repro.runtime.migration import migration_cost_estimate, perform_migration
from repro.runtime.monitor import RuntimeMonitor


def update(ipc: float, chunk: int = 1) -> StatusUpdate:
    return StatusUpdate(line_name="scan", chunk=chunk, ipc=ipc, progress=0.5)


class TestMonitorTriggers:
    def test_healthy_ipc_no_action(self, config):
        monitor = RuntimeMonitor(config=config, expected_ipc=2.0)
        decision = monitor.observe(update(2.0))
        assert not decision.reestimate
        assert decision.inferred_availability == pytest.approx(1.0)

    def test_threshold_trigger(self, config):
        # Paper III-D case 2: IPC significantly below the estimate.
        monitor = RuntimeMonitor(config=config, expected_ipc=2.0)
        decision = monitor.observe(update(2.0 * 0.5))
        assert decision.reestimate
        assert "below" in decision.reason
        assert decision.inferred_availability == pytest.approx(0.5)

    def test_decreasing_trend_trigger(self, config):
        # Paper III-D case 1: the rate of instruction throughput is
        # decreasing — even while above the absolute threshold.
        monitor = RuntimeMonitor(config=config, expected_ipc=2.0, trend_window=3)
        assert not monitor.observe(update(2.0)).reestimate
        assert not monitor.observe(update(1.9)).reestimate
        decision = monitor.observe(update(1.8))
        assert decision.reestimate
        assert "decreasing" in decision.reason

    def test_flat_ipc_is_not_a_trend(self, config):
        monitor = RuntimeMonitor(config=config, expected_ipc=2.0, trend_window=3)
        for _ in range(5):
            decision = monitor.observe(update(1.9))
        assert not decision.reestimate

    def test_reset_clears_history(self, config):
        monitor = RuntimeMonitor(config=config, expected_ipc=2.0, trend_window=2)
        monitor.observe(update(2.0))
        monitor.reset()
        assert monitor.observations == 0
        assert monitor.last_ipc is None

    def test_invalid_construction(self, config):
        with pytest.raises(ValueError):
            RuntimeMonitor(config=config, expected_ipc=0.0)
        with pytest.raises(ValueError):
            RuntimeMonitor(config=config, expected_ipc=1.0, trend_window=1)


def _oracle_decision(history, ipc, config, expected, window):
    """The monitor's decision from the whole history, checked by brute force."""
    inferred = min(1.0, ipc / expected)
    drift = max(0.0, 1.0 - inferred)
    tail = history[-window:]
    falling = len(tail) == window and all(
        later < earlier for earlier, later in zip(tail, tail[1:])
    )
    if ipc < config.ipc_degradation_threshold * expected:
        reason = "below"
    elif falling:
        reason = f"IPC decreasing over the last {window} updates"
    else:
        return (False, "", inferred, drift)
    return (True, reason, inferred, drift)


_IPCS = st.one_of(
    st.sampled_from([-0.5, 0.0, 1.0, 1.5, 1.9, 2.0, 2.5]),  # ties and clamps
    st.floats(min_value=-1.0, max_value=3.0, allow_nan=False),
)
_STEPS = st.lists(
    st.one_of(st.just(None), _IPCS),  # None: reset
    max_size=40,
)


@given(
    steps=_STEPS,
    window=st.integers(2, 6),
    threshold=st.sampled_from([0.05, 0.7]),
)
@settings(max_examples=200, deadline=None, print_blob=True)
def test_trend_counter_matches_brute_force_window(steps, window, threshold):
    """The O(1) count of strict falls gives the decision a scan of the
    last ``trend_window`` clamped IPCs gives, across resets and ties."""
    config = dataclasses.replace(
        SystemConfig(), ipc_degradation_threshold=threshold
    )
    expected = 2.0
    monitor = RuntimeMonitor(config=config, expected_ipc=expected, trend_window=window)
    history = []
    for step in steps:
        if step is None:
            monitor.reset()
            history.clear()
        else:
            raw = step
            ipc = max(0.0, raw)
            history.append(ipc)
            decision = monitor.observe(update(raw))
            want = _oracle_decision(history, ipc, config, expected, window)
            got = (decision.reestimate, decision.reason,
                   decision.inferred_availability, decision.ipc_drift)
            if want[1] == "below":
                assert got[0] and "below" in got[1] and got[2:] == want[2:]
            else:
                assert got == want
        assert monitor.observations == len(history)
        assert monitor.last_ipc == (history[-1] if history else None)


class TestReestimation:
    def test_remaining_time_stretches_with_lost_availability(self, config):
        monitor = RuntimeMonitor(config=config, expected_ipc=2.0)
        healthy = monitor.reestimate_remaining_seconds(10.0, 1.0, 1.0)
        degraded = monitor.reestimate_remaining_seconds(10.0, 1.0, 0.1)
        assert healthy == pytest.approx(11.0)
        assert degraded == pytest.approx(101.0)

    def test_access_time_unaffected_by_contention(self, config):
        monitor = RuntimeMonitor(config=config, expected_ipc=2.0)
        assert monitor.reestimate_remaining_seconds(0.0, 5.0, 0.1) == pytest.approx(5.0)


class TestMigrationCost:
    def test_components_add_up(self, config):
        cost = migration_cost_estimate(
            config,
            remaining_host_compute_s=1.0,
            remaining_storage_bytes=config.bw_host_storage,  # 1 s worth
            live_input_bytes=config.bw_remote_access,        # 1 s worth
        )
        fixed = (
            config.compile_overhead_s
            + config.migration_state_cost_s
            + 64 * 1024 / config.bw_d2h
        )
        assert cost == pytest.approx(fixed + 3.0)

    def test_negative_inputs_rejected(self, config):
        with pytest.raises(MigrationError):
            migration_cost_estimate(config, -1.0, 0.0, 0.0)


class TestPerformMigration:
    def test_charges_clock_and_records_event(self, machine, config):
        start = machine.now
        event = perform_migration(
            machine=machine, line_index=1, line_name="crunch", chunk=7,
            reason="IPC collapsed",
            projected_device_seconds=20.0, projected_host_seconds=3.0,
        )
        expected_cost = (
            config.compile_overhead_s
            + config.migration_state_cost_s
            + machine.d2h_link.transfer_time(64 * 1024)
        )
        assert event.cost_seconds == pytest.approx(expected_cost)
        assert machine.now == pytest.approx(start + expected_cost)
        assert event.line_name == "crunch"
        assert event.chunk == 7
        assert event.projected_device_seconds > event.projected_host_seconds
