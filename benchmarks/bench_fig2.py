"""Figure 2: static C ISP speedup vs CSE availability.

Paper series: TPC-H 1/6/14 plans tuned at 100% availability, then run
as-is while the CSE is throttled — a win when dedicated, performance
loss once availability drops through the mid-range, catastrophic at
10%.  The paper's numbers and the pins are claim rows of
``repro.analysis.claims``.
"""

from repro.analysis.experiments import run_fig2
from repro.analysis.report import format_table

from .conftest import assert_claims, run_once


def test_fig2_availability_sweep(benchmark):
    result = run_once(benchmark, run_fig2)
    print("\n\nFIGURE 2 — static C ISP speedup vs CSE availability")
    headers = ["availability"] + list(result.series)
    rows = []
    for i, availability in enumerate(result.availabilities):
        rows.append(
            [f"{availability:.0%}"]
            + [f"{result.series[name][i]:.3f}x" for name in result.series]
        )
    print(format_table(headers, rows))
    assert_claims("run_fig2", result)
