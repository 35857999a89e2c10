"""Figure 5: migration under 50% / 10% CSE availability.

Paper series: every workload, stressed right after its ISP task makes
50% progress; full ActivePy vs the no-migration ablation, normalised to
the no-ISP baseline.  The headline numbers (gain over the ablation at
10%, slowdown vs baseline with migration, loss without it) are claim
rows of ``repro.analysis.claims``.
"""

from repro.analysis.experiments import run_fig5
from repro.analysis.report import format_table

from .conftest import assert_claims, run_once


def test_fig5_migration(benchmark):
    result = run_once(benchmark, run_fig5)
    for availability in (0.5, 0.1):
        print(f"\n\nFIGURE 5 — {availability:.0%} CSE availability "
              f"(stress at 50% progress)")
        print(format_table(
            ["application", "ActivePy", "w/o migration", "gain", "migrations"],
            [
                [row.name,
                 f"{row.with_migration_speedup:.3f}x",
                 f"{row.without_migration_speedup:.3f}x",
                 f"{row.migration_gain:.3f}x",
                 row.migrations]
                for row in result.at(availability)
            ],
        ))
    assert_claims("run_fig5", result)
