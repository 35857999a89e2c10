"""Experiment drivers and reporting for the paper's tables and figures.

The package sits above the runtime: it imports ActivePy and the
baselines, and nothing in the runtime imports it.
"""

from .compare import Change, diff_results, max_relative_change
from .experiments import (
    Fig2Result,
    Fig4Result,
    Fig5Result,
    LadderResult,
    PredictionResult,
    run_fig2,
    run_fig4,
    run_fig5,
    run_overhead_ladder,
    run_prediction_accuracy,
    run_table1,
)
from .metrics import geometric_mean, relative_error, speedup
from .report import format_table
from .sweep import SweepResult, sweep_config
from .utilization import UtilizationReport, utilization_report

__all__ = [
    "geometric_mean",
    "relative_error",
    "speedup",
    "format_table",
    "SweepResult",
    "sweep_config",
    "Change",
    "diff_results",
    "max_relative_change",
    "UtilizationReport",
    "utilization_report",
    "Fig2Result",
    "Fig4Result",
    "Fig5Result",
    "LadderResult",
    "PredictionResult",
    "run_fig2",
    "run_fig4",
    "run_fig5",
    "run_overhead_ladder",
    "run_prediction_accuracy",
    "run_table1",
]
