"""Run one workload: set up, measure or trace, check, and report.

A run is either *measured* (``trace=False``: the end-to-end metrics,
no wrappers anywhere) or *traced* (``trace=True``: the per-layer
metrics).  The traced pass runs each unit twice, untraced and then
traced, so the tracing overhead is measured on the same work and the
two passes' simulated results must match bit for bit.

End-to-end times are CPU times normalised to the host's speed (see
:mod:`benchmarks.e2e.tally`); the unscaled values go to the ``--json``
record beside them.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .layers import SpanRecorder, install, layer_metrics, per_layer_specs
from .tally import Tally, cpu_clock
from .workloads import ROOT, WORKLOADS, Workload

__all__ = ["END_TO_END", "PER_LAYER", "Result", "run_workload"]

#: (name, unit, better, bound).  ``op`` is the workload's primary op
#: kind and ``op2`` its secondary one (see README.md for each workload).
#: The times' bounds are as wide as allowed.  On a 2-vCPU Xeon VM a
#: time's spread over a set of 10 runs (quartile distance over median)
#: reached 0.08 for the medians and 0.13 for the p90, and a bound should
#: be three times the spread.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("op2_p50_ms", "ms", "lower", 0.25),
)

#: The simulated-time attribution components (``repro.obs.COMPONENTS``),
#: spelled out so the metric names in BENCHMARK.json stay fixed.
COMPONENTS = (
    "host", "cse", "pcie", "nvme", "nand", "ftl", "checkpoint", "migration",
    "integrity",
)

#: Simulated results, deterministic for a seed; the workload that
#: produces each reports it, the others report 0.
SIM_SPECS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.activepy_geomean", "x", "higher"),
    ("sim.migration_gain_10", "x", "higher"),
    ("sim.search_rotation_s", "sim_s", "lower"),
    ("sim.fleet_p99_s", "sim_s", "lower"),
    ("sim.chaos_degraded_frac", "ratio", "lower"),
)

#: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *per_layer_specs(),
    ("trace.overhead_frac", "ratio", "lower"),
    *((f"sim.{c}_frac", "ratio", "lower") for c in COMPONENTS),
    *SIM_SPECS,
)

#: A run sets up at least this many times, and for at least this many
#: seconds in all; ``setup_s`` is the median set-up.  A 0.1 s set-up
#: that writes a profile cache now and then takes 3x its time, so the
#: short ones repeat more often.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP = "setup"

#: Paths a run must leave untouched: cold runs stay cold and the
#: committed baselines stay committed.
GUARDED = (".repro_cache", "bench_results", "perf_baselines")


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    tally: Tally
    metrics: Dict[str, Tuple[float, str]]
    sims: Dict[str, float]
    #: The end-to-end metrics before host-speed normalisation.
    raw: Dict[str, float] = field(default_factory=dict)
    unwrapped: List[str] = field(default_factory=list)
    recorder: Optional[SpanRecorder] = None

    @property
    def correct(self) -> bool:
        return not self.tally.problems

    def line(self) -> Dict[str, Any]:
        """The result object the benchmark prints last."""
        return {
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }

    def record(self) -> Dict[str, Any]:
        """:meth:`line` plus what identifies the run (``--json`` lines)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            **self.line(),
            "raw": self.raw,
            "layer_self_s": self.recorder.self_seconds() if self.recorder else {},
            "sims": self.sims,
            "unwrapped": self.unwrapped,
            "problems": self.tally.problems,
        }


def _percentile_ms(values: List[float], q: float) -> float:
    # numpy's default (linear) interpolation; one sample is its own
    # percentile, and a run with no op of a kind reports 0.
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _end_to_end(workload: Workload, tally: Tally, normalised: bool) -> Dict[str, float]:
    ops = tally.seconds(normalised)
    primary, secondary = ops.get(workload.primary, []), ops.get(workload.secondary, [])
    return {
        "setup_s": statistics.median(ops[SETUP]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": _percentile_ms(primary, 50),
        "op_p90_ms": _percentile_ms(primary, 90),
        "op2_p50_ms": _percentile_ms(secondary, 50),
    }


def _tree_state(root: Path) -> Dict[str, Tuple[int, int]]:
    state = {}
    paths = [root / name for name in GUARDED] + sorted(root.glob("BENCH_*.json"))
    for base in paths:
        for path in [base, *base.rglob("*")] if base.is_dir() else [base]:
            if path.exists():
                stat = path.stat()
                state[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return state


def _traced(workload: Workload, tally: Tally):
    recorder = SpanRecorder()
    wall = {False: 0.0, True: 0.0}
    unwrapped: set = set()
    for index in range(workload.traced_units):
        seen = {}
        # The second run of a unit finds warmer caches; alternating
        # which side goes first keeps that out of the overhead.
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                restore, missing = install(recorder)
                unwrapped.update(missing)
            try:
                start = time.perf_counter()
                seen[traced] = workload.unit(index, tally, recorder if traced else None)
                wall[traced] += time.perf_counter() - start
            finally:
                if traced:
                    restore()
        if seen[True] != seen[False]:
            tally.problem(f"tracing changed the simulated results of unit {index}")
    values = layer_metrics(recorder)
    values["trace.overhead_frac"] = wall[True] / wall[False] - 1.0
    seconds = workload.attribution() or {}
    total = sum(seconds.values())
    for component in COMPONENTS:
        values[f"sim.{component}_frac"] = seconds.get(component, 0.0) / total if total else 0.0
    for name, _, _ in SIM_SPECS:
        values[name] = workload.sim_values.get(name, 0.0)
    return values, recorder, sorted(unwrapped)


def run_workload(
    name: str,
    seed: int = 0,
    seconds: float = 12.0,
    trace: bool = False,
    workload: Optional[Workload] = None,
) -> Result:
    """Set up ``name`` repeatedly (see :data:`SETUP_MIN_REPEATS`), then
    measure or trace it.

    Every set-up gets a fresh profile cache under ``.e2e_work/`` in the
    checkout, removed afterwards; ``workload`` substitutes a
    smaller instance (the self-test does).
    """
    if workload is None:
        workload = WORKLOADS[name](seed)
    tally = Tally()
    before = _tree_state(ROOT)
    work = ROOT / ".e2e_work" / f"{name}-{os.getpid()}"
    saved = {key: os.environ.get(key) for key in ("REPRO_CACHE_DIR", "REPRO_PROFCACHE")}
    os.environ.pop("REPRO_PROFCACHE", None)
    recorder = None
    unwrapped: List[str] = []
    raw: Dict[str, float] = {}
    try:
        fingerprints = []
        with tally.probing():
            first = time.perf_counter()
            while (len(fingerprints) < SETUP_MIN_REPEATS
                   or time.perf_counter() - first < SETUP_MIN_SECONDS):
                start = cpu_clock()
                fingerprints.append(workload.setup(work / f"cache-{len(fingerprints)}"))
                tally.record(SETUP, start, cpu_clock())
            if not trace:
                workload.measure(seconds, tally)
        if any(f != fingerprints[0] for f in fingerprints):
            tally.problem("set-ups disagree on their simulated results")
        if trace:
            values, recorder, unwrapped = _traced(workload, tally)
            units = dict((n, u) for n, u, _ in PER_LAYER)
        else:
            values = _end_to_end(workload, tally, normalised=True)
            raw = _end_to_end(workload, tally, normalised=False)
            units = dict((n, u) for n, u, _, _ in END_TO_END)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work dir is still there
    if _tree_state(ROOT) != before:
        tally.problem(f"the run touched {', '.join(GUARDED)} or BENCH_*.json")
    return Result(
        workload=name, seed=seed, trace=trace, tally=tally,
        metrics={key: (float(values[key]), units[key]) for key in units},
        sims=dict(workload.sim_values), raw=raw, unwrapped=unwrapped,
        recorder=recorder,
    )
