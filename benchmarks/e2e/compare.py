"""Judge two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage::

    python -m benchmarks.e2e.compare A.json B.json

``A`` is the reference (the parent commit), ``B`` the change.  Each file
holds runs as written by ``python -m benchmarks.e2e --json OUT`` (one
JSON object per line) or as one JSON list.  For every (workload,
end-to-end metric) pair it prints each side's median and quartiles and
one verdict:

``worse``
    B's median is worse than A's by more than the metric's bound.
``better``
    B's median is better by more than A's own spread, and B beats A in
    at least nine tenths of all (A run, B run) pairs.
``unresolved``
    A side's spread (quartile distance over median) is wider than the
    bound, so a regression that size could hide in the noise; unless
    every B run beats, or loses to, every A run.
``same``
    None of the above.

Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> List[dict]:
    text = Path(path).read_text(encoding="utf-8").strip()
    if text.startswith("["):
        return json.loads(text)
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    # Positive means B is worse than A, as a share of A's median.
    worsening = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    wins = sum(1 for x in a for y in b if sign * (y - x) < 0)
    losses = sum(1 for x in a for y in b if sign * (y - x) > 0)
    pairs = len(a) * len(b)
    if max(spread(a), spread(b)) > bound:
        if wins == pairs:
            return "better"
        if losses == pairs:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > spread(a) and wins >= 0.9 * pairs:
        return "better"
    return "same"


def compare(runs_a: List[dict], runs_b: List[dict],
            metrics: List[dict]) -> List[Tuple[str, str, list, list, str]]:
    """Rows of (workload, metric, A values, B values, verdict)."""
    rows = []
    workloads = sorted({r["workload"] for r in runs_a} & {r["workload"] for r in runs_b})
    for workload in workloads:
        for spec in metrics:
            name = spec["name"]
            values: Dict[str, list] = {}
            for side, runs in (("a", runs_a), ("b", runs_b)):
                values[side] = [
                    r["metrics"][name]["value"] for r in runs
                    if r["workload"] == workload and name in r["metrics"]
                ]
            if values["a"] and values["b"]:
                rows.append((workload, name, values["a"], values["b"],
                             verdict(values["a"], values["b"],
                                     spec["better"], spec["bound"])))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.compare",
        description="Judge run set B against run set A.",
    )
    parser.add_argument("a", help="reference runs (the parent commit)")
    parser.add_argument("b", help="runs of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(load_runs(args.a), load_runs(args.b), spec["end_to_end"])
    table = [("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "change", "verdict")]
    for workload, name, a, b, result in rows:
        cells = []
        for values in (a, b):
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
        median_a = statistics.median(a)
        change = (statistics.median(b) / median_a - 1) * 100 if median_a else float("nan")
        table.append((workload, name, *cells, f"{change:+.1f}%", result))
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
