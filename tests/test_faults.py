"""Deterministic fault injection and the runtime's recovery from it."""

import pytest

from repro.errors import (
    DeviceLostError,
    FaultError,
    FlashError,
    UncorrectableMediaError,
)
from repro.baselines import ground_truth_estimates
from repro.faults import FaultInjector, FaultKind, FaultLog, FaultPlan, FaultSpec
from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy, RunOptions, run_plan
from repro.runtime.codegen import ExecutionMode
from repro.runtime.planner import CSD, HOST, Plan
from repro.storage.nand import FlashArray

from .conftest import make_toy_dataset, make_toy_program


def run_with_plan(config, plan, **kwargs):
    return ActivePy(config).run(
        make_toy_program(), make_toy_dataset(),
        options=RunOptions(fault_plan=plan), **kwargs
    )


def dispatch_refused_run(config):
    """A queue stall outlasting the command deadline as ``reduce`` is
    dispatched: the device never accepts the call."""
    program, dataset = make_toy_program(), make_toy_dataset()
    plan = Plan(
        assignments=[CSD, HOST, CSD], t_host=0.0, t_csd=0.0,
        estimates=tuple(ground_truth_estimates(program, dataset.n_records, config)),
        origin="external",
    )
    return run_plan(
        build_machine(config), program, plan, dataset, ExecutionMode.ACTIVEPY,
        migration_enabled=True,
        fault_plan=FaultPlan((
            FaultSpec(kind=FaultKind.NVME_QUEUE_STALL, at_time=0.5, duration_s=1.0),
        )),
    )


def completion_lost_run(config):
    """Every completion of ``scan`` is dropped: the line's work ran on
    the device but is never acknowledged."""
    return run_with_plan(config, FaultPlan((
        FaultSpec(kind=FaultKind.NVME_COMPLETION_LOSS, at_time=0.4, count=10),
    ))).result


def assert_work_conserved(result):
    for index, statement in enumerate(make_toy_program()):
        assert result.chunks_executed[index] >= statement.chunks, statement.name


class TestFaultSpecValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=-1.0)

    def test_link_degrade_needs_link_target(self):
        with pytest.raises(FaultError):
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at_time=0.0, target="csd",
                      duration_s=1.0, factor=0.5)

    def test_link_degrade_needs_degrading_factor(self):
        with pytest.raises(FaultError):
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at_time=0.0, target="d2h",
                      duration_s=1.0, factor=1.0)

    def test_stall_needs_duration(self):
        with pytest.raises(FaultError):
            FaultSpec(kind=FaultKind.NVME_QUEUE_STALL, at_time=0.0)

    def test_plan_rejects_non_specs(self):
        with pytest.raises(FaultError):
            FaultPlan(specs=("not a spec",))

    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random(seed=7, horizon_s=2.0, count=6)
        b = FaultPlan.random(seed=7, horizon_s=2.0, count=6)
        assert a == b
        assert len(a) == 6
        c = FaultPlan.random(seed=8, horizon_s=2.0, count=6)
        assert a != c

    def test_sorted_specs_ordered_by_time(self):
        plan = FaultPlan.random(seed=3, horizon_s=1.0, count=8)
        times = [spec.at_time for spec in plan.sorted_specs()]
        assert times == sorted(times)


_CRASH = {"kind": "cse-crash", "at_time": 0.1}


@pytest.mark.parametrize("payload", [
    {"specs": [{"kind": "nope"}]},
    {"seed": "x"},
    [1],
    {"specs": [1]},
    {"specs": None},
    {"specs": [{"kind": "cse-crash"}]},
    {"specs": [dict(_CRASH, at_time=float("nan"))]},
    {"specs": [dict(_CRASH, at_time=float("inf"))]},
    {"specs": [dict(_CRASH, at_time=float("-inf"))]},
    {"specs": [dict(_CRASH, duration_s=float("nan"))]},
    {"specs": [dict(_CRASH, duration_s=float("inf"))]},
    {"specs": [dict(_CRASH, persistent="false")]},
    {"specs": [dict(_CRASH, persistent=1)]},
    {"specs": [dict(_CRASH, count=2.9)]},
    {"specs": [dict(_CRASH, count="2")]},
    {"specs": [dict(_CRASH, count=True)]},
    {"specs": [dict(_CRASH, retries=3.5)]},
], ids=repr)
def test_malformed_plan_payload_raises_fault_error(payload):
    """A bad replay payload fails where it is decoded, with a typed error."""
    with pytest.raises(FaultError):
        FaultPlan.from_jsonable(payload)


def test_whole_float_counts_decode_as_integers():
    spec = FaultSpec.from_jsonable(dict(_CRASH, count=2.0, retries=4.0))
    assert (spec.count, spec.retries) == (2, 4)
    assert type(spec.count) is int and type(spec.retries) is int


@pytest.mark.parametrize("fields", [
    {"at_time": "0.1"},
    {"at_time": None},
    {"at_time": 0.1, "duration_s": "0.01"},
    {"at_time": 0.1, "factor": "0.5"},
    {"at_time": 0.1, "count": "2"},
    {"at_time": 0.1, "count": 2.0},
    {"at_time": 0.1, "retries": None},
    {"at_time": 0.1, "persistent": "false"},
], ids=repr)
def test_mistyped_spec_field_raises_fault_error(fields):
    """A field of the wrong type fails where the spec is built, typed."""
    with pytest.raises(FaultError):
        FaultSpec(kind=FaultKind.CSE_CRASH, **fields)


class TestInjectorArming:
    def test_arm_is_single_shot(self, machine):
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=1.0),
        )))
        injector.arm()
        with pytest.raises(FaultError):
            injector.arm()

    def test_disarm_cancels_pending(self, machine):
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=1.0),
        )))
        injector.arm()
        injector.disarm()
        machine.simulator.run_until(2.0)
        assert not machine.csd.cse.crashed
        assert injector.log.events == []

    def test_unknown_device_target_raises_at_fire_time(self, machine):
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=0.5, target="nope"),
        )))
        injector.arm()
        with pytest.raises(FaultError):
            machine.simulator.run_until(1.0)

    def test_link_degrade_window_opens_and_closes(self, machine):
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at_time=1.0, target="d2h",
                      duration_s=0.5, factor=0.25),
        )))
        injector.arm()
        machine.simulator.run_until(1.1)
        assert machine.d2h_link.degradation == 0.25
        assert machine.d2h_link.effective_bandwidth == pytest.approx(
            machine.d2h_link.bandwidth * 0.25
        )
        machine.simulator.run_until(2.0)
        assert machine.d2h_link.degradation == 1.0
        assert injector.log.actions() == ["injected", "recovered"]

    def test_stale_generation_fault_is_dropped_after_reset(self, machine):
        """A fault armed before a device reset describes a flaw of the
        old firmware generation; firing it into the rebirthed device
        would be a phantom failure, so the injector drops it."""
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.NVME_COMPLETION_LOSS, at_time=1.0),
        )))
        injector.arm()
        # a reset (e.g. recovering an earlier crash) bumps the
        # firmware generation before the armed fault fires
        machine.csd.crash_cse()
        machine.csd.reset_cse()
        machine.simulator.run_until(2.0)
        assert injector.injected == 0
        assert injector.stale_dropped == 1
        assert injector.log.actions() == ["stale-dropped"]
        assert machine.csd.queue_pair.cq._loss_armed == 0

    def test_same_generation_fault_still_fires(self, machine):
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.NVME_COMPLETION_LOSS, at_time=1.0),
        )))
        injector.arm()
        machine.simulator.run_until(2.0)
        assert injector.injected == 1
        assert injector.stale_dropped == 0

    def test_link_faults_ignore_device_generation(self, machine):
        """Links have no firmware generation; a reset between arm and
        fire must not suppress a link fault."""
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at_time=1.0, target="d2h",
                      duration_s=0.5, factor=0.25),
        )))
        injector.arm()
        machine.csd.crash_cse()
        machine.csd.reset_cse()
        machine.simulator.run_until(1.1)
        assert machine.d2h_link.degradation == 0.25
        assert injector.stale_dropped == 0

    def test_crash_and_scheduled_reset(self, machine):
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=1.0, duration_s=0.5),
        )))
        injector.arm()
        machine.simulator.run_until(1.2)
        assert machine.csd.cse.crashed
        assert not machine.csd.healthy
        machine.simulator.run_until(2.0)
        assert not machine.csd.cse.crashed
        assert machine.csd.cse.availability == 1.0


class TestNandReadFaults:
    def test_correctable_fault_adds_latency_then_clears(self):
        array = FlashArray(read_latency_s=60e-6)
        array.arm_read_fault(correctable=True, retries=4)
        assert array.consume_read_fault() == 4 * 60e-6
        assert array.consume_read_fault() == 0.0
        assert array.ecc_corrected_reads == 1

    def test_uncorrectable_fault_is_typed(self):
        array = FlashArray(read_latency_s=60e-6)
        array.arm_read_fault(correctable=False)
        with pytest.raises(UncorrectableMediaError) as excinfo:
            array.consume_read_fault()
        # Wired into both hierarchies: a fault and a flash error.
        assert isinstance(excinfo.value, FaultError)
        assert isinstance(excinfo.value, FlashError)
        # One-shot: the re-read succeeds.
        assert array.consume_read_fault() == 0.0
        assert array.uncorrectable_reads == 1

    def test_persistent_fault_survives_retries(self):
        array = FlashArray(read_latency_s=60e-6)
        array.arm_read_fault(correctable=False, persistent=True)
        for _ in range(3):
            with pytest.raises(UncorrectableMediaError):
                array.consume_read_fault()
        assert array.has_persistent_fault
        array.clear_read_faults()
        assert array.consume_read_fault() == 0.0


class TestEndToEndRecovery:
    def test_crash_without_reset_falls_back_to_host(self, config):
        plan = FaultPlan((
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=0.4, duration_s=0.0),
        ))
        report = run_with_plan(config, plan)
        result = report.result
        assert result.degraded
        actions = [event.action for event in result.fault_events]
        assert "injected" in actions
        assert "host-fallback" in actions
        # Every line still completed, host-side where necessary.
        assert len(result.line_timings) == 3
        assert result.total_seconds > 0

    def test_fast_reset_replays_chunk_on_device(self, config):
        plan = FaultPlan((
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=0.4,
                      duration_s=config.retry_backoff_base_s),
        ))
        result = run_with_plan(config, plan).result
        assert not result.degraded
        assert result.chunk_replays >= 1
        actions = [event.action for event in result.fault_events]
        assert "chunk-replay" in actions
        assert "host-fallback" not in actions

    def test_persistent_media_fault_falls_back_to_host(self, config):
        plan = FaultPlan((
            FaultSpec(kind=FaultKind.NAND_READ_UNCORRECTABLE, at_time=0.4,
                      persistent=True),
        ))
        result = run_with_plan(config, plan).result
        assert result.degraded
        actions = [event.action for event in result.fault_events]
        assert "chunk-failed" in actions
        assert "host-fallback" in actions

    def test_correctable_media_fault_costs_latency_only(self, config):
        clean = run_with_plan(config, None).result
        plan = FaultPlan((
            FaultSpec(kind=FaultKind.NAND_READ_CORRECTABLE, at_time=0.4,
                      retries=200),
        ))
        faulty = run_with_plan(config, plan).result
        assert not faulty.degraded
        actions = [event.action for event in faulty.fault_events]
        assert "ecc-corrected" in actions
        assert faulty.total_seconds > clean.total_seconds

    def test_link_degradation_slows_but_never_degrades(self, config):
        clean = run_with_plan(config, None).result
        plan = FaultPlan((
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at_time=0.2, target="internal",
                      duration_s=5.0, factor=0.1),
        ))
        faulty = run_with_plan(config, plan).result
        assert not faulty.degraded
        assert faulty.total_seconds > clean.total_seconds

    def test_no_plan_means_no_fault_events(self, config):
        result = run_with_plan(config, None).result
        assert result.fault_events == []
        assert not result.degraded

    def test_refused_dispatch_runs_the_line_on_the_host(self, config):
        result = dispatch_refused_run(config)
        assert result.degraded
        actions = [event.action for event in result.fault_events]
        assert actions.index("deadline-exceeded") < actions.index("host-fallback")
        fallback = next(e for e in result.fault_events if e.action == "host-fallback")
        assert "reduce could not be dispatched" in fallback.detail
        assert [t.actual_location for t in result.line_timings] == [CSD, HOST, HOST]
        assert_work_conserved(result)

    def test_lost_completion_replays_the_line_on_the_host(self, config):
        result = completion_lost_run(config)
        assert result.degraded
        actions = [event.action for event in result.fault_events]
        assert actions.index("device-dead") < actions.index("line-replay-host")
        # 16 device chunks whose acknowledgement never came, then all
        # 16 again on the host.
        assert result.chunks_executed[0] == 32
        assert result.line_timings[0].actual_location == HOST
        assert_work_conserved(result)


class TestDeterminism:
    def test_identical_plans_yield_byte_identical_logs(self, config):
        plan = FaultPlan.random(
            seed=config.fault_seed, horizon_s=1.0, count=5,
        )
        first = run_with_plan(config, plan).result
        second = run_with_plan(config, plan).result
        assert repr(first.fault_events) == repr(second.fault_events)
        assert first.total_seconds == second.total_seconds
        assert [t.seconds for t in first.line_timings] == [
            t.seconds for t in second.line_timings
        ]

    def test_crash_recovery_is_deterministic(self, config):
        plan = FaultPlan((
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=0.4, duration_s=0.0),
            FaultSpec(kind=FaultKind.LINK_DEGRADE, at_time=0.6, target="d2h",
                      duration_s=0.2, factor=0.3),
        ))
        runs = [run_with_plan(config, plan).result for _ in range(2)]
        assert repr(runs[0].fault_events) == repr(runs[1].fault_events)
        assert runs[0].total_seconds == runs[1].total_seconds


class TestMultiDeviceTargeting:
    def test_fault_lands_on_named_device_only(self, config):
        machine = build_machine(config, num_csds=2)
        injector = FaultInjector(machine, FaultPlan((
            FaultSpec(kind=FaultKind.CSE_CRASH, at_time=0.5, target="csd1"),
        )))
        injector.arm()
        machine.simulator.run_until(1.0)
        assert machine.device_named("csd1").cse.crashed
        assert not machine.device_named("csd").cse.crashed


class TestDeviceLostVerdict:
    def test_unacknowledged_command_declares_device_dead(self, config, machine):
        from repro.runtime.dispatch import CallQueueDispatcher

        log = FaultLog()
        dispatcher = CallQueueDispatcher(machine, fault_log=log)
        command_id = dispatcher.invoke("line", binary_address=0x1000)
        # The device crashes before posting its completion and never
        # comes back; every retry window must expire.
        machine.csd.crash_cse()
        with pytest.raises(DeviceLostError):
            dispatcher.reap_completion(command_id)
        assert log.actions().count("retry") == config.command_max_retries
        assert log.actions()[-1] == "device-dead"
