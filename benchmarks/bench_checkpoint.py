"""Checkpoint protocol cost: free when idle, bounded when recovering.

Three deterministic claims:

* **Zero overhead at defaults.** Checkpoint records ride the status-
  update page (``checkpoint_write_cost_s = 0``), so a fault-free run
  with checkpointing enabled is *exactly* as fast as one with it
  disabled — the protocol buys crash consistency for nothing on the
  happy path.
* **Priced writes scale linearly.** Sweeping a nonzero per-record write
  cost stretches the run by (saves x cost), no more — checkpointing
  never changes what executes, only what each boundary charges.
* **Torn-write recovery is bounded.** Tearing every record before a
  permanent crash still completes degraded, and the penalty over a
  clean crash-recovery run is the replayed work, not a corrupt resume.
"""

import dataclasses

from repro.config import DEFAULT_CONFIG
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload

from .conftest import run_once, write_bench_json

_SCALE = 2 ** -4


def _run(config=DEFAULT_CONFIG, fault_plan=None):
    workload = get_workload("tpch_q6", scale=_SCALE)
    return ActivePy(config).run(
        workload.program, workload.dataset,
        options=RunOptions(fault_plan=fault_plan),
    )


def test_checkpoint_overhead_disabled_vs_enabled(benchmark):
    disabled = _run(dataclasses.replace(DEFAULT_CONFIG, checkpoint_enabled=False))
    enabled = run_once(benchmark, _run)

    saves = enabled.result.checkpoint_stats["saves"]
    print("\n\nline-boundary checkpointing, fault-free run")
    print(f"disabled : {disabled.total_seconds:.6f} s (0 records)")
    print(f"enabled  : {enabled.total_seconds:.6f} s ({saves} records)")

    write_bench_json("checkpoint", {
        "fault_free_overhead": {
            "disabled_seconds": disabled.total_seconds,
            "enabled_seconds": enabled.total_seconds,
            "saves": saves,
            "overhead_seconds": enabled.total_seconds - disabled.total_seconds,
        },
    }, meta={"workload": "tpch_q6", "scale": _SCALE})

    # The record rides the existing status-update page: the default
    # write cost is zero and the simulator is deterministic, so the
    # overhead must be *exactly* zero.
    assert enabled.total_seconds == disabled.total_seconds
    assert saves > 0


def test_checkpoint_write_cost_sweep(benchmark):
    free = run_once(benchmark, _run)
    saves = free.result.checkpoint_stats["saves"]

    rows = []
    print("\n\npriced checkpoint writes (sweep)")
    print(f"{'cost/record':>12} {'total':>12} {'stretch':>10}")
    for cost in (1e-6, 1e-5, 1e-4):
        priced = _run(dataclasses.replace(
            DEFAULT_CONFIG, checkpoint_write_cost_s=cost
        ))
        stretch = priced.total_seconds - free.total_seconds
        rows.append({
            "write_cost_s": cost,
            "total_seconds": priced.total_seconds,
            "stretch_seconds": stretch,
            "saves": priced.result.checkpoint_stats["saves"],
        })
        print(f"{cost:>12.0e} {priced.total_seconds:>12.6f} {stretch:>10.6f}")
        # the stretch is exactly (saves x cost): nothing else changes
        assert abs(stretch - priced.result.checkpoint_stats["saves"] * cost) < 1e-9

    write_bench_json("checkpoint", {
        "write_cost_sweep": {"free_seconds": free.total_seconds,
                             "free_saves": saves, "rows": rows},
    }, meta={"workload": "tpch_q6", "scale": _SCALE})


def test_torn_write_recovery_cost(benchmark):
    plain = _run()
    crash_time = plain.overhead_seconds + plain.execution_seconds * 0.5
    crash_only = FaultPlan((
        FaultSpec(kind=FaultKind.CSE_CRASH, at_time=crash_time, duration_s=0.0),
    ))
    torn_and_crash = FaultPlan((
        FaultSpec(kind=FaultKind.CHECKPOINT_TORN_WRITE,
                  at_time=plain.overhead_seconds, count=100_000),
        FaultSpec(kind=FaultKind.CSE_CRASH, at_time=crash_time, duration_s=0.0),
    ))
    crashed = _run(fault_plan=crash_only)
    torn = run_once(benchmark, lambda: _run(fault_plan=torn_and_crash))

    print("\n\ntorn checkpoint writes + permanent crash")
    print(f"healthy            : {plain.total_seconds:.6f} s")
    print(f"crash, records ok  : {crashed.total_seconds:.6f} s")
    print(f"crash, all torn    : {torn.total_seconds:.6f} s "
          f"(stats {torn.result.checkpoint_stats})")

    write_bench_json("checkpoint", {
        "torn_write_recovery": {
            "healthy_seconds": plain.total_seconds,
            "crash_clean_records_seconds": crashed.total_seconds,
            "crash_torn_records_seconds": torn.total_seconds,
            "checkpoint_stats": torn.result.checkpoint_stats,
        },
    }, meta={"workload": "tpch_q6", "scale": _SCALE})

    assert torn.result.degraded
    assert torn.result.checkpoint_stats["torn_writes"] > 0
    # CRC + double buffer: torn records cost replayed work at worst —
    # the run completes no faster than the clean-record crash run
    # (skipping work would be the corruption the protocol prevents).
    assert torn.total_seconds >= crashed.total_seconds
    program = get_workload("tpch_q6", scale=_SCALE).program
    for index, statement in enumerate(program):
        assert torn.result.chunks_executed[index] >= statement.chunks
