"""Helpers for campaigns run across worker processes.

The process pool itself lives in the campaign driver:
``run_campaign(config, workers=N)`` (:mod:`repro.chaos.campaign`) runs
either chaos campaign's seeds across ``N`` processes with the same
result as the in-process loop.  This module keeps what callers of a
parallel campaign need around it: a default worker count, and the fold
of per-run metric snapshots into one campaign envelope.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from .errors import ChaosError

__all__ = [
    "default_workers",
    "merge_metric_snapshots",
]


def default_workers() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


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
