"""End-to-end integrity layer cost: free when off, priced when on.

Three deterministic claims:

* **Disabled means free — exactly.**  With ``integrity_enabled=False``
  (the default), a run under active silent corruption takes the *same*
  simulated time as the fault-free baseline, to the last bit.  The
  corruption still reaches the report (the digest changes), which is
  the point: silence costs nothing and protects nothing.
* **Protection has a bounded, attributable price.**  Enabling the layer
  on a fault-free run adds exactly ``verified_bytes /
  integrity_verify_bandwidth`` seconds, all charged to the
  ``integrity`` component — no hidden cost anywhere else.
* **Detection recovers to a clean report.**  Under seeded silent
  corruption with the layer on, every taint is detected and healed by
  chunk replay; the final digest is ``CLEAN_DIGEST`` and the recovery
  penalty is the replayed work.
"""

import dataclasses

from repro.config import DEFAULT_CONFIG
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.integrity import CLEAN_DIGEST
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload

from .conftest import run_once, write_bench_json

_SCALE = 2 ** -4

_ENABLED = dataclasses.replace(DEFAULT_CONFIG, integrity_enabled=True)


def _run(config=DEFAULT_CONFIG, fault_plan=None):
    workload = get_workload("tpch_q6", scale=_SCALE)
    return ActivePy(config).run(
        workload.program, workload.dataset,
        options=RunOptions(fault_plan=fault_plan),
    )


def _sdc_plan(baseline, count=2):
    return FaultPlan((
        FaultSpec(kind=FaultKind.NAND_SILENT_CORRUPTION,
                  at_time=0.5 * baseline.total_seconds, count=count),
    ))


def test_disabled_overhead_is_exactly_zero(benchmark):
    clean = _run()
    corrupted = run_once(benchmark, lambda: _run(fault_plan=_sdc_plan(clean)))

    print("\n\nintegrity disabled, silent NAND corruption in flight")
    print(f"fault-free : {clean.total_seconds:.6f} s digest "
          f"{clean.result.output_digest}")
    print(f"corrupted  : {corrupted.total_seconds:.6f} s digest "
          f"{corrupted.result.output_digest}")

    write_bench_json("integrity", {
        "disabled_overhead": {
            "clean_seconds": clean.total_seconds,
            "corrupted_seconds": corrupted.total_seconds,
            "overhead_seconds": corrupted.total_seconds - clean.total_seconds,
            "digest_changed":
                corrupted.result.output_digest != clean.result.output_digest,
        },
    }, meta={"workload": "tpch_q6", "scale": _SCALE})

    # The layer is off and the fault is silent: the simulator must
    # charge nothing — equality, not a tolerance.
    assert corrupted.total_seconds == clean.total_seconds
    assert clean.result.output_digest == CLEAN_DIGEST
    assert corrupted.result.output_digest != CLEAN_DIGEST


def test_protection_cost_is_the_verify_bandwidth(benchmark):
    off = _run()
    on = run_once(benchmark, lambda: _run(_ENABLED))

    stats = on.result.integrity_stats
    overhead = on.total_seconds - off.total_seconds
    expected = stats["verified_bytes"] / _ENABLED.integrity_verify_bandwidth
    print("\n\nintegrity enabled, fault-free run")
    print(f"off : {off.total_seconds:.6f} s")
    print(f"on  : {on.total_seconds:.6f} s "
          f"(+{overhead:.6f} s for {stats['verified_bytes']:.0f} B)")

    write_bench_json("integrity", {
        "protection_cost": {
            "disabled_seconds": off.total_seconds,
            "enabled_seconds": on.total_seconds,
            "overhead_seconds": overhead,
            "verified_bytes": stats["verified_bytes"],
            "verify_seconds": stats["verify_seconds"],
        },
    }, meta={"workload": "tpch_q6", "scale": _SCALE})

    assert stats["verified_bytes"] > 0
    # Every verify second is accounted: the end-to-end stretch is the
    # digest-check time and nothing else.
    assert abs(overhead - stats["verify_seconds"]) < 1e-9
    assert abs(overhead - expected) < 1e-9


def test_detection_and_recovery(benchmark):
    clean = _run(_ENABLED)
    corrupted = run_once(
        benchmark, lambda: _run(_ENABLED, fault_plan=_sdc_plan(clean))
    )

    stats = corrupted.result.integrity_stats
    penalty = corrupted.total_seconds - clean.total_seconds
    print("\n\nintegrity enabled, silent NAND corruption in flight")
    print(f"fault-free : {clean.total_seconds:.6f} s")
    print(f"corrupted  : {corrupted.total_seconds:.6f} s "
          f"(+{penalty:.6f} s, {stats['detected']} detected, "
          f"{corrupted.result.chunk_replays} replays)")

    write_bench_json("integrity", {
        "detection_recovery": {
            "clean_seconds": clean.total_seconds,
            "corrupted_seconds": corrupted.total_seconds,
            "recovery_seconds": penalty,
            "detected": stats["detected"],
            "missed": stats["missed"],
            "chunk_replays": corrupted.result.chunk_replays,
        },
    }, meta={"workload": "tpch_q6", "scale": _SCALE})

    assert stats["detected"] >= 1
    assert stats["missed"] == 0
    assert corrupted.result.output_digest == CLEAN_DIGEST
    # Recovery costs replayed work: strictly slower than fault-free,
    # never faster.
    assert corrupted.total_seconds > clean.total_seconds
