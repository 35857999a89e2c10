"""Quiet stretches are invisible: a stretch charges its chunks as one fold.

``PlanExecutor`` charges each run of chunks that nothing can observe or
disturb at once (``_csd_stretch``, ``_charge_quiet``), and sends the
chunk at every boundary through the per-chunk body.  Where a stretch
ends must not show anywhere.  Each case runs twice on fresh machines;
the second run also holds no-op simulator events at drawn times, so its
stretches split at arbitrary chunks, and both runs must agree on every
result bit, counter, checkpoint slot, metric, span and attributed
second.

Cases draw random programs (1-64 chunks a line, zero and non-zero
bytes), random device/host assignments, overlap, integrity and
checkpoints on or off, chaos fault plans (loud and silent), CSE
availability schedules, progress triggers, migration on or off, and an
observability handle that is off, metered or attributing.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ground_truth_estimates
from repro.config import SystemConfig
from repro.faults import LOUD_KINDS, SILENT_KINDS, FaultInjector, FaultPlan
from repro.hw.topology import build_machine
from repro.lang.program import Program, Statement, linear
from repro.obs import Observability
from repro.runtime import executor as executor_module
from repro.runtime.codegen import CodeGenerator, ExecutionMode
from repro.runtime.executor import PlanExecutor
from repro.runtime.monitor import RuntimeMonitor
from repro.runtime.planner import CSD, HOST, Plan

#: A per-record cost that is often exactly zero.
_PER_RECORD = st.just(0.0) | st.floats(0.0, 1e3)

#: A point of the fault-free run's execution window, as a fraction of
#: it; a little past the end, so some events never fire.
_WHEN = st.floats(0.0, 1.1)

_AVAILABILITY = st.sampled_from([1.0, 0.5, 0.1, 0.01])


@st.composite
def _programs(draw):
    statements = [
        Statement(
            f"line{index}", kernel=lambda payload: payload,
            instructions=linear(draw(st.floats(0.0, 5e3)), draw(st.floats(0.0, 1e6))),
            output_bytes=linear(draw(_PER_RECORD)),
            storage_bytes=linear(draw(_PER_RECORD)),
            chunks=draw(st.integers(1, 64)),
        )
        for index in range(draw(st.integers(1, 4)))
    ]
    return Program("random", statements)


@st.composite
def _cases(draw):
    program = draw(_programs())
    config = SystemConfig(
        overlap_io_compute=draw(st.booleans()),
        integrity_enabled=draw(st.booleans()),
        checkpoint_enabled=draw(st.booleans()),
        checkpoint_double_buffer=draw(st.booleans()),
        checkpoint_write_cost_s=draw(st.just(0.0) | st.floats(0.0, 1e-4)),
        link_latency_s=draw(st.just(0.0) | st.floats(0.0, 1e-4)),
        # A cheap recompile lets a throttled line migrate.
        compile_overhead_s=draw(st.just(0.1) | st.floats(0.0, 1e-4)),
        migration_state_cost_s=draw(st.just(0.0) | st.floats(0.0, 1e-4)),
    )
    faults = draw(st.integers(0, 3))
    return {
        "program": program,
        "config": config,
        "n_records": draw(st.integers(1, 10**5)),
        "assignments": [draw(st.sampled_from([HOST, CSD])) for _ in program],
        "migration": draw(st.booleans()),
        "obs": draw(st.sampled_from(["off", "metered", "attributing"])),
        "fault_seed": draw(st.integers(0, 2**16)) if faults else None,
        "fault_count": faults,
        "availability": draw(st.lists(
            st.tuples(_WHEN, _AVAILABILITY), max_size=3,
        )),
        "triggers": tuple(draw(st.lists(
            st.tuples(st.floats(0.0, 1.0), _AVAILABILITY),
            max_size=2,
        ))),
        "noops": draw(st.lists(_WHEN, min_size=1, max_size=8)),
    }


def _handle(kind):
    if kind == "off":
        return Observability.disabled()
    if kind == "metered":
        return Observability()
    return Observability.with_attribution()


def _without_event_counts(snapshot):
    """The metrics snapshot minus ``sim.events_*``, which the extra no-op
    events move by design."""
    return {
        section: {
            name: value for name, value in values.items()
            if not name.startswith("sim.events_")
        }
        for section, values in snapshot.items()
    }


def _run(case, window=None, noops=()):
    """One execution of ``case`` on a fresh machine, and everything it left.

    ``window`` is the fault-free run's ``(start, end)``; without it the
    run is that fault-free run, and only the window is returned.
    """
    config = case["config"]
    program = case["program"]
    n_records = case["n_records"]
    obs = _handle(case["obs"])
    machine = build_machine(config, obs=obs)
    plan = Plan(
        assignments=list(case["assignments"]), t_host=0.0, t_csd=0.0,
        estimates=tuple(ground_truth_estimates(program, n_records, config)),
        origin="external",
    )
    compiled = CodeGenerator(config).generate(
        machine, program, plan, mode=ExecutionMode.ACTIVEPY,
    )
    executor = PlanExecutor(machine, migration_enabled=case["migration"])
    if window is None:
        start = machine.now
        executor.execute(compiled, n_records)
        return start, machine.now

    start, end = window
    span = max(end - start, 1e-9)

    def at(fraction):
        return start + fraction * span

    simulator = machine.simulator
    if case["fault_seed"] is not None:
        fault_plan = FaultPlan.random(
            seed=case["fault_seed"], horizon_s=span, count=case["fault_count"],
            kinds=LOUD_KINDS + SILENT_KINDS, offset_s=start,
        )
        injector = FaultInjector(machine, fault_plan, log=executor.fault_log)
        injector.arm()
    for fraction, availability in case["availability"]:
        machine.csd.cse.schedule_availability(at(fraction), availability)
    for fraction in noops:
        simulator.schedule_at(at(fraction), lambda: None, label="no-op")

    monitors = []

    class RecordedMonitor(RuntimeMonitor):
        def __post_init__(self):
            super().__post_init__()
            monitors.append(self)

    with mock.patch.object(executor_module, "RuntimeMonitor", RecordedMonitor):
        try:
            result = executor.execute(
                compiled, n_records, progress_triggers=case["triggers"],
            )
            outcome = result.to_jsonable()
            total = result.total_seconds.hex()
        except Exception as exc:  # noqa: BLE001 - both runs must raise alike
            outcome, total = f"{type(exc).__name__}: {exc}", None

    area = machine.csd.checkpoints
    links = (
        machine.host_storage_link, machine.d2h_link,
        machine.remote_access_link, machine.csd.internal_link,
    )
    left = {
        "outcome": outcome,
        "total_seconds": total,
        "now": machine.now.hex(),
        "counters": {
            unit.name: vars(unit.counters) for unit in (machine.host, machine.csd.cse)
        },
        "links": [
            (link.name, link.bytes_transferred, link.transfers) for link in links
        ],
        "status_updates": executor.dispatcher.status_updates,
        "slots": [area.read(slot) for slot in (0, 1)],
        "area": (area.writes, area.next_generation, area.torn_writes),
        "checkpoints": executor.checkpoints.stats(),
        "integrity": executor.integrity.stats(),
        "digest": executor.integrity.digest(),
        "monitors": [
            (monitor.observations, monitor.last_ipc, monitor._falls)
            for monitor in monitors
        ],
        "metrics": _without_event_counts(obs.snapshot()),
    }
    if obs.tracing:
        left["spans"] = list(obs.tracer.spans)
    if obs.attributing:
        report = obs.attribution_report()
        left["attribution"] = dict(report.seconds_by_component)
        left["segments"] = obs.attribution.segments()
    return left


class TestStretchBoundariesAreInvisible:
    @given(case=_cases())
    @settings(max_examples=300, deadline=None, print_blob=True)
    def test_no_op_events_change_nothing(self, case):
        window = _run(case)
        whole = _run(case, window)
        split = _run(case, window, noops=case["noops"])
        assert whole.keys() == split.keys()
        for key in whole:
            assert whole[key] == split[key], key


def test_an_overlapped_chunk_needs_its_compute():
    # Overlap hides the shorter of I/O and compute, so a verified move
    # with no compute has nothing to overlap.
    move = (4096.0, 1e-6, 1e9, "pcie")
    with pytest.raises(ValueError, match="overlapped chunk needs its compute"):
        executor_module.chunk_advances([move], overlap=True)
    assert executor_module.chunk_advances([move]) == ((1e-6 + 4096.0 / 1e9, "pcie"),)
