"""Observability: free when disabled, cheap when enabled.

Four claims:

* **Disabled overhead is exactly zero.**  No metric or span ever
  advances the simulated clock, so a run on a default (obs-disabled)
  machine and a run with metrics + tracing enabled report bit-identical
  simulated ``total_seconds`` — not approximately, exactly.
* **Enabled overhead is bounded.**  With counters, gauges, histograms
  and the span tracer all live, warm passes over the workload rotation
  cost less than ``TRACER_CPU_RATIO_BOUND`` times the CPU of passes
  with observability off (:func:`tracer_cpu_ratio`).
* **Attribution is exact and free.**  With per-component time
  attribution live, simulated time stays bit-identical, and the
  attributed seconds sum to the run's total *exactly* (residual 0.0)
  on every workload in the rotation.
* **The flight recorder is free in simulated time.**  A 4-CSD fleet
  run with the time-series recorder attached reports a bit-identical
  makespan and per-job signatures versus a recorder-less run
  (simulated overhead exactly 0.0, gated).  Against the 1 000-job
  fleet loop alone it costs less than ``RECORDER_CPU_RATIO_BOUND``
  times the loop's CPU (:func:`recorder_cpu_ratio`).

Both cost checks are ratios of CPU seconds, each the median of
interleaved off/on pairs with a ``gc.collect()`` before every pass: a
host slowing down for a while moves both arms of a pair alike, which
best-of-N wall clocks on a shared runner did not.
"""

import dataclasses
import gc
import math
import statistics

from repro.config import DEFAULT_CONFIG
from repro.faults.spec import FaultKind, FaultPlan, FaultSpec
from repro.fleet import Fleet, FleetConfig, ProfileStore, default_tenants
from repro.obs import Observability, build_critical_path
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload

from .conftest import run_once, write_bench_json
from .e2e.tally import cpu_clock

_SCALE = 2 ** -5
_ROTATION = ("tpch_q6", "kmeans", "blackscholes", "pagerank")

_FLEET_SCALE = 2 ** -6
_FLEET_JOBS = 24


def _run(name, obs=None):
    workload = get_workload(name, scale=_SCALE)
    # Cache off: every run samples, so the exact-zero simulated
    # overhead checks cover the whole run, sampling included.
    return ActivePy(profile_cache=False).run(
        workload.program, workload.dataset, options=RunOptions(obs=obs),
    )


#: Interleaved observability-off/on pairs behind the tracer CPU ratio.
_TRACER_PAIRS = 41

#: Rotation passes in each arm of a tracer pair: a warm run takes a few ms.
_WARM_PASSES = 10

#: Bound on :func:`tracer_cpu_ratio`.
TRACER_CPU_RATIO_BOUND = 1.6


def warm_rotation():
    """An ``ActivePy`` whose profile cache holds every rotation
    workload's profile and plan, and the workloads."""
    runner = ActivePy()
    workloads = [get_workload(name, scale=_SCALE) for name in _ROTATION]
    for workload in workloads:
        runner.run(workload.program, workload.dataset)
    return runner, workloads


def rotation_cpu_seconds(warm, obs_factory):
    """CPU seconds of ``_WARM_PASSES`` passes over the rotation on
    ``warm``, each run observed by ``obs_factory()`` (``None``:
    observability off).

    A warm run skips sampling and planning, so the passes time plan
    execution plus whatever the handle records.
    """
    runner, workloads = warm
    gc.collect()  # no pass pays for collecting an earlier one's garbage
    started = cpu_clock()
    for _ in range(_WARM_PASSES):
        for workload in workloads:
            runner.run(workload.program, workload.dataset,
                       options=RunOptions(obs=obs_factory()))
    return cpu_clock() - started


def _no_obs():
    return None


def _paired_ratio(pairs, off, on):
    """Median over ``pairs`` interleaved passes of ``on()`` / ``off()``.

    The arms alternate which goes first, and each pair is a ratio of
    two passes taken moments apart, so a host slowing down for a while
    moves both alike.  Returns the median and every pair's ratio.
    """
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            on_seconds = on()
            off_seconds = off()
        else:
            off_seconds = off()
            on_seconds = on()
        ratios.append(on_seconds / off_seconds)
    return statistics.median(ratios), ratios


def tracer_cpu_ratio():
    """Median over ``_TRACER_PAIRS`` of observability-on / off CPU seconds.

    "On" is :meth:`Observability.with_tracing`: every metric and every
    span live.  Both arms run on one warm profile cache, so the ratio is
    what observing costs against plan execution.  Returns the median
    and every pair's ratio.
    """
    warm = warm_rotation()
    return _paired_ratio(
        _TRACER_PAIRS,
        lambda: rotation_cpu_seconds(warm, _no_obs),
        lambda: rotation_cpu_seconds(warm, Observability.with_tracing),
    )


def test_obs_overhead(benchmark):
    per_workload = {}
    for name in _ROTATION:
        plain = _run(name)
        observed = _run(name, obs=Observability.with_tracing())
        # The zero-overhead contract: bit-identical simulated time.
        assert observed.total_seconds == plain.total_seconds
        per_workload[name] = {
            "sim_seconds": plain.total_seconds,
            "sim_overhead_seconds": observed.total_seconds - plain.total_seconds,
        }
    cpu_ratio, pair_ratios = tracer_cpu_ratio()

    run_once(benchmark, lambda: _run(_ROTATION[0],
                                     obs=Observability.with_tracing()))

    print("\n\nobservability overhead across the rotation")
    for name, row in per_workload.items():
        print(f"{name:<13} sim {row['sim_seconds']:.6f} s "
              f"(obs-on delta {row['sim_overhead_seconds']:+.1e} s)")
    print(f"obs-on / off CPU on a warm cache {cpu_ratio:.3f}x "
          f"(median of {len(pair_ratios)} "
          f"pairs, {min(pair_ratios):.3f}-{max(pair_ratios):.3f}; "
          f"bound {TRACER_CPU_RATIO_BOUND})")

    write_bench_json("obs", {
        "scale": _SCALE,
        "per_workload": per_workload,
        # Exactly 0.0 by construction; asserted above per workload.
        "disabled_sim_overhead_seconds": sum(
            row["sim_overhead_seconds"] for row in per_workload.values()
        ),
        "tracer_cpu_ratio": cpu_ratio,
    }, meta={"workloads": list(_ROTATION)})

    assert all(
        row["sim_overhead_seconds"] == 0.0 for row in per_workload.values()
    )
    assert cpu_ratio < TRACER_CPU_RATIO_BOUND


def test_attribution_identity(benchmark):
    """Attribution: bit-identical sim time, exact sum identity."""
    per_workload = {}
    residuals = []
    overheads = []
    for name in _ROTATION:
        plain = _run(name)
        obs = Observability.with_attribution()
        attributed = _run(name, obs=obs)
        # Attribution must never perturb simulated time.
        assert attributed.total_seconds == plain.total_seconds
        overheads.append(attributed.total_seconds - plain.total_seconds)
        path = build_critical_path(obs)
        report = path.attribution
        # The identity: every attributed nanosecond, once, exactly.
        assert report.residual == 0.0
        assert path.total_seconds == report.end - report.start
        residuals.append(report.residual)
        per_workload[name] = {
            "sim_seconds": attributed.total_seconds,
            "residual": report.residual,
            "seconds_by_component": report.seconds_by_component,
            "critical_path_steps": len(path.steps),
            "top_bottleneck": (
                report.rank_bottlenecks()[0][0]
                if report.rank_bottlenecks() else None
            ),
        }

    run_once(benchmark, lambda: _run(
        _ROTATION[0], obs=Observability.with_attribution()
    ))

    print("\n\nattribution identity across the rotation")
    for name, row in per_workload.items():
        shares = ", ".join(
            f"{component}={seconds:.6f}s"
            for component, seconds in row["seconds_by_component"].items()
        )
        print(f"{name:<13} residual {row['residual']:.1e}  {shares}")

    write_bench_json("obs", {
        "attribution": {
            "per_workload": per_workload,
            "identity_residual": math.fsum(residuals),
            "sim_overhead_seconds": math.fsum(overheads),
        },
    }, meta={"workloads": list(_ROTATION)})

    assert all(row["residual"] == 0.0 for row in per_workload.values())


_FLEET_CONFIG = FleetConfig(
    device_count=4, job_count=_FLEET_JOBS, seed=0, scale=_FLEET_SCALE,
)

#: The ``fleet_serve`` shape of ``benchmarks/e2e``: 1 000 jobs at 0.9
#: load with widened admission buffers, ``csd1`` lost at 40 s for 30 s.
#: Each finished job records a handful of points, so this is where the
#: recorder's cost grows.
_SERVE_CONFIG = FleetConfig(
    device_count=4, job_count=1000, seed=0, scale=_FLEET_SCALE,
    tenants=tuple(
        dataclasses.replace(t, admission_burst=64, queue_limit=256)
        for t in default_tenants()
    ),
    target_load=0.9, overload_watermark=256,
    plan=FaultPlan(specs=(FaultSpec(
        kind=FaultKind.DEVICE_LOST_MID_JOB, target="csd1",
        at_time=40.0, duration_s=30.0,
    ),)),
)


def _run_fleet(obs=None):
    # A fresh ProfileStore per run, so a recorded and an unrecorded run
    # profile their jobs alike.
    store = ProfileStore(system_config=DEFAULT_CONFIG, scale=_FLEET_SCALE)
    return Fleet(_FLEET_CONFIG, profiles=store, obs=obs).run()


#: Interleaved recorder-off/on pairs behind the recorder CPU ratio.
_RATIO_PAIRS = 41

#: Bound on :func:`recorder_cpu_ratio`.
RECORDER_CPU_RATIO_BOUND = 1.75


def warm_serve_store():
    """A profile store holding every inner profile ``_SERVE_CONFIG`` needs."""
    store = ProfileStore(system_config=DEFAULT_CONFIG, scale=_FLEET_SCALE)
    Fleet(_SERVE_CONFIG, profiles=store).run()
    return store


def cpu_seconds(store, obs):
    """CPU seconds of one ``_SERVE_CONFIG`` fleet pass on ``store``.

    On a warm store the pass times the fleet loop alone, plus whatever
    ``obs`` records.
    """
    gc.collect()  # no pass pays for collecting an earlier one's garbage
    started = cpu_clock()
    Fleet(_SERVE_CONFIG, profiles=store, obs=obs).run()
    return cpu_clock() - started


def recorder_cpu_ratio():
    """Median over ``_RATIO_PAIRS`` of recorder-on / recorder-off CPU seconds.

    Both arms run on one warm profile store, so the ratio is what
    recording costs against the fleet loop.  Returns the median and
    every pair's ratio.
    """
    store = warm_serve_store()
    return _paired_ratio(
        _RATIO_PAIRS,
        lambda: cpu_seconds(store, None),
        lambda: cpu_seconds(store, Observability.with_timeseries()),
    )


def test_timeseries_overhead(benchmark):
    """Flight recorder: zero simulated cost, bounded CPU on a 4-CSD fleet."""
    _run_fleet()  # prewarm the on-disk profile cache for both arms

    plain = _run_fleet()
    recorded = _run_fleet(obs=Observability.with_timeseries())
    # The zero-overhead contract, at fleet scope: bit-identical
    # schedule and bit-identical per-job signatures.
    assert recorded.makespan_s == plain.makespan_s
    assert (
        [o.signature for o in recorded.outcomes]
        == [o.signature for o in plain.outcomes]
    )
    sim_overhead = recorded.makespan_s - plain.makespan_s
    cpu_ratio, pair_ratios = recorder_cpu_ratio()

    run_once(benchmark, lambda: _run_fleet(
        obs=Observability.with_timeseries()
    ))

    series_count = len(recorded.timeline["series"])
    print(f"\n\nflight-recorder overhead on a 4-CSD fleet "
          f"({_FLEET_JOBS} jobs, {series_count} series)")
    print(f"makespan {plain.makespan_s:.6f} s "
          f"(recorder-on delta {sim_overhead:+.1e} s)")
    print(f"at {_SERVE_CONFIG.job_count} jobs: recorder-on / off CPU on a "
          f"warm store {cpu_ratio:.3f}x (median of {len(pair_ratios)} pairs, "
          f"{min(pair_ratios):.3f}-{max(pair_ratios):.3f}; "
          f"bound {RECORDER_CPU_RATIO_BOUND})")

    write_bench_json("obs", {
        "timeseries": {
            "device_count": 4,
            "job_count": _FLEET_JOBS,
            "scale": _FLEET_SCALE,
            "makespan_s": recorded.makespan_s,
            # Exactly 0.0 by construction; asserted above.
            "recorder_sim_overhead_seconds": sim_overhead,
            # Recorder-on / recorder-off CPU over the 1 000-job fleet
            # loop alone, median of interleaved pairs.
            "recorder_cpu_ratio_1000_jobs": cpu_ratio,
            "series_count": series_count,
            "alerts_fired": len(recorded.alerts),
        },
    }, meta={"workloads": list(_ROTATION)})

    assert sim_overhead == 0.0
    assert cpu_ratio < RECORDER_CPU_RATIO_BOUND
