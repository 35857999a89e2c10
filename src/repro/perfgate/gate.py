"""The perf-regression gate over ``BENCH_*.json`` results.

The simulator is deterministic: simulated seconds for a given config
hash are the same on every machine, so a committed baseline can be
compared *exactly* — any drift is a code change, not noise.  The gate
therefore snapshots the **simulated** metrics of the benchmark suite
(``perf_baselines/<bench>.json``) and diffs fresh results against them
with explicit per-metric tolerances:

* direction ``max`` — a performance number that must not regress
  upward (sim seconds, slowdown factors).  Improvements pass silently;
  regressions beyond ``value * (1 + rel_tol) + abs_tol`` fail.
* direction ``both`` — an invariant pinned to a value (zero-overhead
  contracts).  Any deviation beyond the tolerance band fails, in either
  direction.

Raw wall-clock numbers (``*_wall_seconds``) are never gated — they
measure the host running the benchmarks, not the simulator.  Two
exceptions, both gated with deliberately generous tolerances that
absorb host-to-host variance: the ``wall`` bench's *dimensionless
ratios* (warm/cold, layer/baseline), which capture how much wall work
the performance layer removes, and the ``plansearch`` rotation's
search wall time, which bounds the planner's own cost so the search
never quietly grows into a second sampling phase.

``python -m repro perf check`` runs the diff (exit 1 on regression);
``python -m repro perf snapshot`` refreshes the baselines after an
*intentional* model change, which is the paved road for landing one:
the diff shows up in review as a baseline edit instead of sailing
through unnoticed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError

__all__ = [
    "BASELINE_DIR_NAME",
    "Deviation",
    "GateReport",
    "GatedMetric",
    "GATED_METRICS",
    "PerfGateError",
    "check",
    "load_results",
    "lookup",
    "snapshot",
]

#: Default directory (repo-relative) holding committed baselines.
BASELINE_DIR_NAME = "perf_baselines"

#: Directory (repo-relative) holding fresh ``BENCH_<bench>.json`` results.
_RESULTS_DIR_NAME = "bench_results"

_SCHEMA_VERSION = 1


class PerfGateError(ReproError):
    """Raised for malformed baselines/results, not for regressions."""


@dataclass(frozen=True)
class GatedMetric:
    """One deterministic metric worth guarding, with its tolerance."""

    path: str  # dotted path into the BENCH payload
    direction: str = "max"  # "max" = must not grow; "both" = pinned
    rel_tol: float = 0.0
    abs_tol: float = 0.0

    def limits(self, baseline: float) -> Tuple[float, float]:
        """(lo, hi) bounds a fresh value must respect."""
        slack = self.rel_tol * abs(baseline) + self.abs_tol
        if self.direction == "max":
            return (float("-inf"), baseline + slack)
        if self.direction == "both":
            return (baseline - slack, baseline + slack)
        raise PerfGateError(
            f"metric {self.path!r}: unknown direction {self.direction!r}"
        )


#: The gate's contract: every entry is a deterministic simulated-time
#: metric.  ``both`` + zero tolerance pins the zero-overhead invariants
#: exactly; ``max`` + small rel_tol lets improvements land silently but
#: fails regressions past the slack.
GATED_METRICS: Dict[str, Tuple[GatedMetric, ...]] = {
    "obs": (
        GatedMetric("per_workload.tpch_q6.sim_seconds", "max", rel_tol=0.01),
        GatedMetric("per_workload.kmeans.sim_seconds", "max", rel_tol=0.01),
        GatedMetric("per_workload.blackscholes.sim_seconds", "max", rel_tol=0.01),
        GatedMetric("per_workload.pagerank.sim_seconds", "max", rel_tol=0.01),
        GatedMetric("disabled_sim_overhead_seconds", "both"),
        GatedMetric("attribution.identity_residual", "both"),
        GatedMetric("attribution.sim_overhead_seconds", "both"),
        # The flight recorder's zero-simulated-overhead contract: a
        # 4-CSD fleet run with the recorder attached reports the same
        # makespan, bit for bit, as one without.
        GatedMetric("timeseries.recorder_sim_overhead_seconds", "both"),
        GatedMetric("timeseries.makespan_s", "both"),
    ),
    "faults": (
        GatedMetric("no_fault_overhead.overhead_fraction", "both"),
        GatedMetric("crash_recovery.healthy_seconds", "max", rel_tol=0.01),
        GatedMetric("crash_recovery.slowdown", "max", rel_tol=0.02),
    ),
    "checkpoint": (
        GatedMetric("fault_free_overhead.overhead_seconds", "both"),
        GatedMetric("fault_free_overhead.enabled_seconds", "max", rel_tol=0.01),
        GatedMetric(
            "torn_write_recovery.crash_torn_records_seconds", "max", rel_tol=0.02
        ),
    ),
    "fleet": (
        # The multi-CSD story: four devices must keep finishing the
        # saturating workload in at most ~1/3 the one-device makespan.
        # Gating the *fraction* (not the speedup) keeps the direction
        # "max": a scheduler change that erodes scale-out grows it.
        GatedMetric("scale_out.fraction_of_one_device", "max", rel_tol=0.02),
        GatedMetric("scale_out.one_device_makespan_s", "max", rel_tol=0.01),
        GatedMetric("scale_out.four_device_makespan_s", "max", rel_tol=0.01),
        GatedMetric("failover.loss_makespan_s", "max", rel_tol=0.02),
    ),
    "integrity": (
        # The "disabled means free" contract, pinned at exactly zero:
        # any simulated cost leaking out of the off-by-default layer is
        # a regression in either direction.
        GatedMetric("disabled_overhead.overhead_seconds", "both"),
        GatedMetric("protection_cost.enabled_seconds", "max", rel_tol=0.01),
        GatedMetric("protection_cost.overhead_seconds", "max", rel_tol=0.02),
        GatedMetric("detection_recovery.corrupted_seconds", "max", rel_tol=0.02),
    ),
    "plansearch": (
        # The §V CSR payoff, pinned from both sides: greedy's makespan
        # (the baseline the search must beat) and the search's strictly
        # better one, on both workloads where Eq. 1's fitted volume
        # curve misleads Algorithm 1.
        GatedMetric("per_workload.pagerank.greedy_makespan_s", "max", rel_tol=0.01),
        GatedMetric("per_workload.pagerank.search_makespan_s", "max", rel_tol=0.01),
        GatedMetric("per_workload.sparsemv.greedy_makespan_s", "max", rel_tol=0.01),
        GatedMetric("per_workload.sparsemv.search_makespan_s", "max", rel_tol=0.01),
        # Structural never-worse guarantee over the whole rotation: the
        # worst (search - greedy) delta must stay at or below zero.
        GatedMetric("never_worse.max_search_minus_greedy_s", "max", abs_tol=1e-9),
        # How many strict wins short of the required two (pinned at 0).
        GatedMetric("never_worse.strict_win_deficit", "both"),
        # Host wall time of searching the full rotation: generous band
        # (wall is noisy) but bounded — the search must stay cheap
        # planning work, not grow into a second sampling phase.
        GatedMetric(
            "wall.rotation_search_wall_seconds", "max", rel_tol=1.5, abs_tol=5.0
        ),
        # Steps the search prices over the rotation: the
        # branch-and-bound skips steps that can neither win nor tie, and
        # a lost bound shows up here as a rise.
        GatedMetric("steps.rotation_steps_simulated", "max"),
    ),
    # Wall-clock ratios, not simulated seconds: noisy by nature, hence
    # the wide bands.  A fraction that *grows* past the slack means the
    # performance layer stopped removing wall work (e.g. the profile
    # cache stopped hitting), which is exactly what to catch.
    "wall": (
        GatedMetric("warm_run.fraction_of_cold", "max", rel_tol=1.5),
        GatedMetric("parallel_campaign.fraction_of_serial", "max", rel_tol=1.5),
        GatedMetric("engine_microbench.fraction_of_heapq", "max", rel_tol=1.5),
    ),
}


def lookup(payload: Dict, path: str) -> Optional[float]:
    """Resolve a dotted path into a nested dict; None when absent."""
    node = payload
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def load_results(bench: str, root: Path) -> Optional[Dict]:
    """Read ``bench_results/BENCH_<bench>.json`` under ``root``."""
    path = root / _RESULTS_DIR_NAME / f"BENCH_{bench}.json"
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise PerfGateError(f"unreadable benchmark results {path}: {exc}")


@dataclass(frozen=True)
class Deviation:
    """One gated metric that left its tolerance band."""

    bench: str
    path: str
    baseline: float
    actual: float
    lo: float
    hi: float
    direction: str

    def render(self) -> str:
        band = (
            f"<= {self.hi:.9g}"
            if self.direction == "max"
            else f"[{self.lo:.9g}, {self.hi:.9g}]"
        )
        return (
            f"REGRESSION {self.bench}:{self.path}  "
            f"baseline {self.baseline:.9g} -> actual {self.actual:.9g} "
            f"(allowed {band})"
        )


@dataclass
class GateReport:
    """Outcome of one ``perf check``: what was compared, what failed."""

    checked: int = 0
    deviations: List[Deviation] = field(default_factory=list)
    missing_results: List[str] = field(default_factory=list)
    missing_metrics: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.deviations or self.missing_results or self.missing_metrics)

    def render(self) -> str:
        lines = [
            f"perf gate: {self.checked} metric(s) checked against baselines"
        ]
        for name in self.missing_results:
            lines.append(
                f"  MISSING results for bench {name!r} — run the benchmark "
                f"suite first (pytest benchmarks/bench_{name}.py "
                f"--benchmark-disable)"
            )
        for path in self.missing_metrics:
            lines.append(f"  MISSING metric {path} in fresh results")
        for deviation in self.deviations:
            lines.append(f"  {deviation.render()}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)

    def to_jsonable(self) -> Dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "deviations": [
                {
                    "bench": d.bench,
                    "path": d.path,
                    "baseline": d.baseline,
                    "actual": d.actual,
                    "lo": d.lo,
                    "hi": d.hi,
                    "direction": d.direction,
                }
                for d in self.deviations
            ],
            "missing_results": list(self.missing_results),
            "missing_metrics": list(self.missing_metrics),
        }


def _baseline_path(baselines_dir: Path, bench: str) -> Path:
    return baselines_dir / f"{bench}.json"


def snapshot(root: Path, baselines_dir: Optional[Path] = None) -> List[Path]:
    """Capture current results as the committed baselines.

    Reads each bench's fresh ``BENCH_*.json``, extracts exactly the
    gated metrics, and writes ``<baselines_dir>/<bench>.json``.  Fails
    loudly if a gated metric is absent — a baseline with holes would
    silently stop guarding it.
    """
    baselines_dir = baselines_dir or root / BASELINE_DIR_NAME
    baselines_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for bench, metrics in sorted(GATED_METRICS.items()):
        payload = load_results(bench, root)
        if payload is None:
            raise PerfGateError(
                f"no BENCH_{bench}.json found under {root / _RESULTS_DIR_NAME}; "
                f"run the benchmark suite before snapshotting"
            )
        entry: Dict[str, Dict] = {}
        for metric in metrics:
            value = lookup(payload, metric.path)
            if value is None:
                raise PerfGateError(
                    f"bench {bench!r} results lack gated metric {metric.path!r}"
                )
            entry[metric.path] = {
                "value": value,
                "direction": metric.direction,
                "rel_tol": metric.rel_tol,
                "abs_tol": metric.abs_tol,
            }
        path = _baseline_path(baselines_dir, bench)
        path.write_text(
            json.dumps(
                {
                    "schema_version": _SCHEMA_VERSION,
                    "bench": bench,
                    "metrics": entry,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        written.append(path)
    return written


def check(
    root: Path,
    baselines_dir: Optional[Path] = None,
    planted_regression: bool = False,
) -> GateReport:
    """Diff fresh benchmark results against the committed baselines.

    ``planted_regression`` perturbs every fresh value *in memory* (50%
    worse) before comparing — the CI smoke test that proves the gate
    can actually fail.  Baselines with no committed file are reported
    as missing rather than silently passing.
    """
    baselines_dir = baselines_dir or root / BASELINE_DIR_NAME
    report = GateReport()
    for bench in sorted(GATED_METRICS):
        baseline_path = _baseline_path(baselines_dir, bench)
        if not baseline_path.exists():
            report.missing_results.append(f"{bench} (no committed baseline)")
            continue
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise PerfGateError(f"unreadable baseline {baseline_path}: {exc}")
        results = load_results(bench, root)
        if results is None:
            report.missing_results.append(bench)
            continue
        for path, spec in sorted(baseline.get("metrics", {}).items()):
            value = spec["value"]
            metric = GatedMetric(
                path=path,
                direction=spec.get("direction", "max"),
                rel_tol=spec.get("rel_tol", 0.0),
                abs_tol=spec.get("abs_tol", 0.0),
            )
            actual = lookup(results, path)
            if actual is None:
                report.missing_metrics.append(f"{bench}:{path}")
                continue
            if planted_regression:
                # Worse in the gated direction: bigger for "max", and
                # pushed off the pin (plus a floor for zero-pinned
                # invariants) for "both".  Scale past the metric's own
                # tolerance band so even generously-gated metrics (the
                # wall fractions) are pushed out of bounds.
                factor = 1.5 + metric.rel_tol
                actual = actual * factor + metric.abs_tol + 1e-6
            lo, hi = metric.limits(value)
            report.checked += 1
            if not (lo <= actual <= hi):
                report.deviations.append(
                    Deviation(
                        bench=bench,
                        path=path,
                        baseline=value,
                        actual=actual,
                        lo=lo,
                        hi=hi,
                        direction=metric.direction,
                    )
                )
    return report
