"""The ActivePy runtime: the paper's primary contribution.

Pipeline (paper Figure 3): sample the program on scaled inputs, fit
per-line cost curves, plan the host/CSD split with Algorithm 1,
generate code for both units, execute with runtime monitoring, and
migrate the CSD task back to the host when the device degrades.
"""

from .activepy import ActivePy, ActivePyReport
from .codegen import CompiledProgram, ExecutionMode
from .estimator import LineEstimate, build_estimates, net_profit
from .executor import ExecutionResult, PlanExecutor
from .fitting import ComplexityCurve, FittedCurve, fit_curve
from .migration import MigrationEvent
from .monitor import RuntimeMonitor
from .planner import Plan, assign_csd_code
from .profcache import ProfileCache, default_cache
from .profiler import LineProfiler, LineRecord, payload_nbytes
from .sampling import SampleSeries, SamplingPhase, SamplingReport

__all__ = [
    "ActivePy",
    "ActivePyReport",
    "CompiledProgram",
    "ExecutionMode",
    "LineEstimate",
    "build_estimates",
    "net_profit",
    "ExecutionResult",
    "PlanExecutor",
    "ComplexityCurve",
    "FittedCurve",
    "fit_curve",
    "MigrationEvent",
    "RuntimeMonitor",
    "Plan",
    "assign_csd_code",
    "ProfileCache",
    "default_cache",
    "LineProfiler",
    "LineRecord",
    "payload_nbytes",
    "SampleSeries",
    "SamplingPhase",
    "SamplingReport",
]
