"""Figure 4: ActivePy vs programmer-directed static ISP.

Paper bars: per-application speedup over the no-ISP C baseline, with
ActivePy matching the programmer-directed average and finding exactly
the oracle's code regions.  The paper's averages and the pins are claim
rows of ``repro.analysis.claims``.
"""

from repro.analysis.experiments import run_fig4
from repro.analysis.report import ascii_bar_chart, format_table

from .conftest import assert_claims, run_once


def test_fig4_activepy_vs_static(benchmark):
    result = run_once(benchmark, run_fig4)
    print("\n\nFIGURE 4 — speedup over C baseline (no ISP)")
    print(format_table(
        ["application", "baseline (s)", "static ISP", "ActivePy", "same regions"],
        [
            [row.name, f"{row.baseline_seconds:.2f}",
             f"{row.static_speedup:.3f}x", f"{row.activepy_speedup:.3f}x",
             "yes" if row.same_regions else "no (CSR)"]
            for row in result.rows
        ],
    ))
    print("\n" + ascii_bar_chart(
        [row.name for row in result.rows],
        [row.activepy_speedup for row in result.rows],
    ))
    assert_claims("run_fig4", result)
