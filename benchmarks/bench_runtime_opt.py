"""§V "ActivePy's optimizations in its language runtime".

Paper ladder, host-only (no ISP anywhere): plain Python is markedly
slower than the C baseline; Cython compilation roughly halves that;
ActivePy's copy elimination makes it almost indistinguishable from C,
modulo a one-off compilation cost.  The paper's numbers and the pins
are claim rows of ``repro.analysis.claims``.
"""

from repro.analysis.experiments import run_overhead_ladder
from repro.analysis.report import format_table

from .conftest import assert_claims, run_once


def test_runtime_overhead_ladder(benchmark):
    result = run_once(benchmark, run_overhead_ladder)
    print("\n\n§V — language-runtime overhead over the C baseline (no ISP)")
    print(format_table(
        ["application", "python", "cython", "activepy"],
        [
            [name,
             f"+{(modes['python'] - 1) * 100:.1f}%",
             f"+{(modes['cython'] - 1) * 100:.1f}%",
             f"+{(modes['activepy'] - 1) * 100:.2f}%"]
            for name, modes in result.per_workload.items()
        ],
    ))
    assert_claims("run_overhead_ladder", result)
