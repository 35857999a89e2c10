"""Exact plan search vs greedy Algorithm 1 (``BENCH_plansearch.json``).

Two deterministic claims the perf gate pins:

* **Never worse.**  Over the whole workload rotation, the search's
  fault-free makespan is at most greedy's on every workload — the
  search is exact and keeps greedy's plan on a tie, so this is
  structural, and ``never_worse.max_search_minus_greedy_s`` stays
  pinned at <= 0.
* **Strictly better where Eq. 1 extrapolates wrong.**  On the §V CSR
  workloads (``pagerank``, ``sparsemv``) the sampled volume curve
  over-predicts the conversion's output ~2.4x, greedy keeps it on the
  host, and the search — which *prices* candidate steps from the
  volumes the executor charges instead of trusting the fit —
  offloads it.  The gate pins both workloads' greedy and search
  makespans, so the win can neither erode nor silently vanish.

Search wall time over the full rotation is also recorded and gated
with a generous band: the search must stay interactive-planning cheap
(milliseconds per workload), not grow into a second sampling phase.
The rotation's total ``steps_simulated`` is gated too, exactly: the
branch-and-bound prices 96 of the 122 steps an unpruned pass would,
and losing the bound would show up as a rise.
"""

import time

from repro.config import DEFAULT_CONFIG
from repro.runtime.estimator import build_estimates
from repro.runtime.planner import assign_csd_code
from repro.runtime.plansearch import search_plan
from repro.runtime.sampling import SamplingPhase
from repro.workloads import get_workload, workload_names

from .conftest import run_once, write_bench_json

#: The §V CSR case-study workloads where the search must beat greedy.
EXPECTED_WINS = ("pagerank", "sparsemv")


def _estimates_for(name):
    workload = get_workload(name)
    sampling = SamplingPhase(DEFAULT_CONFIG).run(
        workload.program, workload.dataset
    )
    estimates = build_estimates(
        sampling, workload.n_records, DEFAULT_CONFIG
    )
    return workload, estimates


def _search_rotation():
    per_workload = {}
    wall_total = 0.0
    for name in workload_names():
        workload, estimates = _estimates_for(name)
        greedy = assign_csd_code(estimates, DEFAULT_CONFIG)
        started = time.perf_counter()
        report = search_plan(
            workload.program, workload.dataset, estimates, DEFAULT_CONFIG,
            greedy=greedy,
        )
        wall_total += time.perf_counter() - started
        per_workload[name] = {
            "greedy_makespan_s": report.greedy_makespan_s,
            "search_makespan_s": report.makespan_s,
            "beat_greedy": report.beat_greedy,
            "improvement_fraction": report.improvement_fraction,
            "greedy_assignments": list(report.greedy_plan.assignments),
            "search_assignments": list(report.plan.assignments),
            "steps_simulated": report.steps_simulated,
            "search_wall_seconds": report.wall_seconds,
        }
    return per_workload, wall_total


def test_search_never_worse_and_wins_on_csr(benchmark):
    per_workload, wall_total = run_once(benchmark, _search_rotation)

    print("\n\nexact plan search vs greedy Algorithm 1 "
          "(speculative makespans)")
    for name, row in per_workload.items():
        marker = (
            f"  <- search wins ({100 * row['improvement_fraction']:.1f}%)"
            if row["beat_greedy"] else ""
        )
        print(f"{name:<14} greedy {row['greedy_makespan_s']:9.4f} s   "
              f"search {row['search_makespan_s']:9.4f} s{marker}")

    deltas = {
        name: row["search_makespan_s"] - row["greedy_makespan_s"]
        for name, row in per_workload.items()
    }
    strict_wins = sorted(
        name for name, row in per_workload.items() if row["beat_greedy"]
    )
    write_bench_json(
        "plansearch",
        {
            "per_workload": per_workload,
            "never_worse": {
                "max_search_minus_greedy_s": max(deltas.values()),
                "strict_wins": len(strict_wins),
                "strict_win_deficit": max(0, 2 - len(strict_wins)),
                "winning_workloads": strict_wins,
            },
            "wall": {"rotation_search_wall_seconds": wall_total},
            "steps": {
                "rotation_steps_simulated": sum(
                    row["steps_simulated"] for row in per_workload.values()
                ),
            },
        },
        meta={"workloads": list(per_workload), "scale": 1.0},
    )
    # Structural: the search is exact and keeps greedy's plan on a tie.
    assert max(deltas.values()) <= 0.0
    # The §V payoff: strictly better exactly where the fitted volume
    # curve misleads Algorithm 1.
    assert len(strict_wins) >= 2
    for name in EXPECTED_WINS:
        assert per_workload[name]["beat_greedy"], name
        assert deltas[name] < 0.0, name
