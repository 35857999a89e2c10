"""Table I: the applications and their input data sizes.

Paper row format: name + data size; the sizes are claim rows of
``repro.analysis.claims``.
"""

from repro.analysis.experiments import run_table1
from repro.analysis.report import format_table
from repro.units import format_bytes

from .conftest import assert_claims, run_once


def test_table1(benchmark):
    rows = run_once(benchmark, run_table1)
    print("\n\nTABLE I — applications, input sizes, SESE code regions")
    print(format_table(
        ["application", "data size", "paper size", "code regions"],
        [
            [row.name, format_bytes(row.data_bytes),
             format_bytes(row.paper_bytes) if row.paper_bytes else "-",
             row.sese_regions]
            for row in rows
        ],
    ))
    assert len(rows) == 9
    assert_claims("run_table1", rows)
