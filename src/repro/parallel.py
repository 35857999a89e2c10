"""Parallel chaos-campaign execution over a process pool.

A campaign is embarrassingly parallel: every run is derived entirely
from ``(workload, seed, fault_count, scale, config)`` on a fresh
machine, so run ``r`` can execute in any process without changing its
outcome.  This module partitions the campaign's run indices across a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the
result **bit-identical** to :func:`~repro.chaos.campaign.run_campaign`:

- the task list ``[(workloads[r % len(workloads)], base_seed + r)]`` is
  exactly the serial iteration order, and ``Executor.map`` returns
  results in submission order, so ``CampaignResult.outcomes`` is the
  same list;
- shrinking of violating plans stays in the parent process, sequential
  and in run order, so ``failures`` and their replay commands match the
  serial runner's byte for byte.

Workers are seeded with a :class:`~repro.chaos.campaign.ChaosHarness`.
On platforms with ``fork`` (the common Linux case) the parent builds
the harness — including the fault-free baselines every plan is drawn
over — *before* the pool starts, and children inherit the warm state
for free.  Where only ``spawn`` is available each worker rebuilds the
harness from the (picklable) campaign parameters in its initializer.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from .chaos.campaign import (
    CampaignConfig,
    CampaignResult,
    ChaosHarness,
    ChaosRunOutcome,
    ShrunkFailure,
    replay_command,
    run_campaign,
)
from .chaos.shrink import ShrinkResult, shrink_plan
from .config import SystemConfig
from .errors import ChaosError

__all__ = [
    "default_workers",
    "merge_metric_snapshots",
    "run_campaign_parallel",
]

#: Harness the pool workers run seeds on.  Under ``fork`` the parent
#: sets this (pre-warmed) before the pool starts and children inherit
#: it; under ``spawn`` the initializer builds it per worker.
_WORKER_HARNESS: Optional[ChaosHarness] = None


def default_workers() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


def _init_worker(
    system_config: SystemConfig,
    scale: float,
    fault_count: int,
    collect_metrics: bool,
    silent_corruption: bool,
) -> None:
    global _WORKER_HARNESS
    if _WORKER_HARNESS is None:
        _WORKER_HARNESS = ChaosHarness(
            system_config=system_config,
            scale=scale,
            fault_count=fault_count,
            collect_metrics=collect_metrics,
            silent_corruption=silent_corruption,
        )


def _run_task(task: Tuple[str, int]) -> ChaosRunOutcome:
    workload_name, seed = task
    harness = _WORKER_HARNESS
    if harness is None:  # pragma: no cover - initializer always ran
        raise ChaosError("campaign worker started without a harness")
    return harness.run_seed(workload_name, seed)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (inherits the warm harness); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_campaign_parallel(
    config: CampaignConfig,
    workers: int,
    on_outcome: Optional[Callable[[ChaosRunOutcome], None]] = None,
) -> CampaignResult:
    """Run a campaign across ``workers`` processes.

    Produces the same :class:`CampaignResult` as the serial
    :func:`~repro.chaos.campaign.run_campaign` for the same config —
    same outcomes in the same order, same shrunk failures — it just
    gets there on more cores.  ``on_outcome`` fires in the parent, in
    run order, as results stream back.
    """
    if workers < 1:
        raise ChaosError(f"workers must be at least 1, got {workers}")
    if workers == 1 or config.runs == 1:
        return run_campaign(config, on_outcome=on_outcome)

    global _WORKER_HARNESS
    harness = ChaosHarness(
        system_config=config.system_config,
        scale=config.scale,
        fault_count=config.fault_count,
        collect_metrics=config.collect_metrics,
        silent_corruption=config.silent_corruption,
    )
    context = _pool_context()
    if context.get_start_method() == "fork":
        # Pre-warm the baselines the fault plans are drawn over so every
        # forked child inherits them instead of recomputing per worker.
        for name in config.workloads:
            harness.baseline(name)
    tasks = [
        (config.workloads[run % len(config.workloads)],
         config.base_seed + run)
        for run in range(config.runs)
    ]
    result = CampaignResult(config=config)
    _WORKER_HARNESS = harness
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, config.runs),
            mp_context=context,
            initializer=_init_worker,
            initargs=(config.system_config, config.scale,
                      config.fault_count, config.collect_metrics,
                      config.silent_corruption),
        ) as pool:
            for outcome in pool.map(_run_task, tasks):
                result.outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
    finally:
        _WORKER_HARNESS = None
    # Shrinking stays sequential in the parent: it is a bisection over
    # re-runs, inherently serial, and doing it here keeps failure order
    # and probe counts identical to the serial runner.
    for outcome in result.outcomes:
        if outcome.ok:
            continue
        if config.shrink_failures and len(outcome.plan) > 0:
            shrunk = shrink_plan(
                outcome.plan,
                harness.reproducer(outcome.workload),
                max_probes=config.max_shrink_probes,
            )
        else:
            shrunk = ShrinkResult(
                minimal=outcome.plan, probes=0, budget_exhausted=False,
            )
        result.failures.append(ShrunkFailure(
            outcome=outcome,
            shrink=shrunk,
            replay_command=replay_command(outcome, config),
        ))
    return result


def merge_metric_snapshots(
    snapshots: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold per-run observability snapshots into one campaign envelope.

    Counters and histogram tallies sum across runs; a gauge keeps the
    value from the *last* snapshot that set it (gauges are point-in-time
    readings, so "sum" would be meaningless — last-write matches what a
    single registry would hold after a serial campaign).  Histograms
    must agree on bucket bounds, which they do by construction (bounds
    are fixed at creation from shared defaults).
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            merged["gauges"][name] = value
        for name, histogram in snapshot.get("histograms", {}).items():
            base = merged["histograms"].get(name)
            if base is None:
                merged["histograms"][name] = {
                    "buckets": list(histogram["buckets"]),
                    "counts": list(histogram["counts"]),
                    "sum": histogram["sum"],
                    "count": histogram["count"],
                }
                continue
            if base["buckets"] != list(histogram["buckets"]):
                raise ChaosError(
                    f"histogram {name!r} bucket bounds differ across runs"
                )
            base["counts"] = [
                a + b for a, b in zip(base["counts"], histogram["counts"])
            ]
            base["sum"] += histogram["sum"]
            base["count"] += histogram["count"]
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
    return merged
