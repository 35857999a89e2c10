"""Fault-tolerance machinery: recovery works and costs ~nothing idle.

Two claims, both deterministic:

* **No-fault overhead.** With the retry/deadline layer active and a
  fault plan armed whose faults never fire, the simulated end-to-end
  time is *identical* to a plain run — the recovery machinery sits
  entirely off the hot path until something actually fails.
* **Recovery cost.** A mid-run CSE crash completes host-side (degraded)
  rather than raising; the extra time is the replayed chunk plus the
  host's slower finish, all visible in the fault-event log.
"""

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload

from .conftest import run_once, write_bench_json

_SCALE = 2 ** -4


def _run(fault_plan=None):
    workload = get_workload("tpch_q6", scale=_SCALE)
    report = ActivePy().run(
        workload.program, workload.dataset,
        options=RunOptions(fault_plan=fault_plan),
    )
    return report


def test_no_fault_overhead(benchmark):
    plain = _run()
    # Armed but never firing: every fault lands far beyond the run.
    idle_plan = FaultPlan((
        FaultSpec(kind=FaultKind.CSE_CRASH, at_time=1e6, duration_s=1.0),
        FaultSpec(kind=FaultKind.NVME_COMPLETION_LOSS, at_time=1e6 + 1),
        FaultSpec(kind=FaultKind.NAND_READ_UNCORRECTABLE, at_time=1e6 + 2),
    ))
    armed = run_once(benchmark, lambda: _run(fault_plan=idle_plan))

    overhead = armed.total_seconds / plain.total_seconds - 1.0
    print("\n\nfault-tolerance layer, no fault firing")
    print(f"plain executor : {plain.total_seconds:.6f} s")
    print(f"armed injector : {armed.total_seconds:.6f} s "
          f"({overhead * 100:+.4f}%)")

    write_bench_json("faults", {
        "no_fault_overhead": {
            "plain_seconds": plain.total_seconds,
            "armed_seconds": armed.total_seconds,
            "overhead_fraction": overhead,
        },
    }, meta={"workload": "tpch_q6", "scale": _SCALE})

    # The simulator is deterministic: armed-but-idle must be exact.
    assert armed.total_seconds == plain.total_seconds
    assert not armed.result.degraded
    assert armed.result.fault_events == []


def test_crash_recovery_cost(benchmark):
    plain = _run()
    crash_time = plain.overhead_seconds + plain.execution_seconds * 0.5
    crash_plan = FaultPlan((
        FaultSpec(kind=FaultKind.CSE_CRASH, at_time=crash_time, duration_s=1e3),
    ))
    crashed = run_once(benchmark, lambda: _run(fault_plan=crash_plan))

    slowdown = crashed.total_seconds / plain.total_seconds
    print("\n\nmid-run CSE crash (no self-reset): host fallback")
    print(f"healthy run    : {plain.total_seconds:.6f} s")
    print(f"crashed run    : {crashed.total_seconds:.6f} s "
          f"({slowdown:.2f}x, degraded={crashed.result.degraded})")
    for event in crashed.result.fault_events:
        print(f"  {event.render()}")

    write_bench_json("faults", {
        "crash_recovery": {
            "healthy_seconds": plain.total_seconds,
            "crashed_seconds": crashed.total_seconds,
            "slowdown": slowdown,
            "degraded": crashed.result.degraded,
            "actions": [event.action for event in crashed.result.fault_events],
        },
    }, meta={"workload": "tpch_q6", "scale": _SCALE})

    assert crashed.result.degraded
    assert crashed.total_seconds > plain.total_seconds
    actions = [event.action for event in crashed.result.fault_events]
    assert "host-fallback" in actions
