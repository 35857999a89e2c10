"""§V "ActivePy's capability in identifying and composing CSD code".

Paper claims: data-volume predictions are usually accurate (a small
geometric-mean error, outliers discounted); the CSR conversions of
PageRank/SparseMV are the outliers, always over-estimated, so the
planner errs conservative and does no harm.  The paper's numbers and
the pins are claim rows of ``repro.analysis.claims``.
"""

from repro.analysis.experiments import run_csr_matrix_sweep, run_prediction_accuracy
from repro.analysis.report import format_table
from repro.units import format_bytes

from .conftest import assert_claims, run_once


def test_prediction_accuracy(benchmark):
    result = run_once(benchmark, run_prediction_accuracy)
    print("\n\n§V — per-line data-volume prediction vs ground truth")
    outliers = set(id(r) for r in result.outliers())
    print(format_table(
        ["workload", "line", "predicted", "actual", "ratio", "outlier"],
        [
            [row.workload, row.line,
             format_bytes(row.predicted_bytes), format_bytes(row.actual_bytes),
             f"{row.ratio:.2f}x", "yes" if id(row) in outliers else ""]
            for row in result.rows
            if row.actual_bytes > 1e6
        ],
    ))
    assert_claims("run_prediction_accuracy", result)


def test_csr_matrix_sweep(benchmark):
    """§V: "experiments on different input matrices show that ActivePy
    always over-estimates the data volume after generating CSR"."""
    rows = run_once(benchmark, run_csr_matrix_sweep)
    print("\n\n§V — CSR prediction ratio across matrix families")
    print(format_table(
        ["avg degree", "alpha", "predicted", "actual", "ratio"],
        [[f"{r.avg_degree:.0f}", f"{r.alpha:.1f}",
          format_bytes(r.predicted_bytes), format_bytes(r.actual_bytes),
          f"{r.ratio:.2f}x"] for r in rows],
    ))
    assert_claims("run_csr_matrix_sweep", rows)
