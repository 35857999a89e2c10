"""Baseline implementations the paper compares against.

* :func:`run_c_baseline` — hand-written C, host only (the 1.0× anchor
  of every figure).
* :func:`run_host_only` — the same host-only run in any
  :class:`~repro.runtime.codegen.ExecutionMode`, for the §V
  language-runtime ladder.
* :class:`StaticIspBaseline` — the programmer-directed, statically
  optimised C ISP configuration (exhaustive offload search tuned at
  100% CSE availability, then frozen).
"""

from .c_baseline import run_c_baseline, run_host_only
from .static_isp import StaticIspBaseline, ground_truth_estimates

__all__ = [
    "run_c_baseline",
    "run_host_only",
    "StaticIspBaseline",
    "ground_truth_estimates",
]
