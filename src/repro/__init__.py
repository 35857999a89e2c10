"""ActivePy reproduction: transparent Python offload for in-storage processing.

Reproduces "Rethinking Programming Frameworks for In-Storage
Processing" (Liu, Hsu, Tseng — DAC 2023) as a complete system over a
simulated computational storage device.

Quick start::

    from repro import ActivePy, get_workload, run_c_baseline

    workload = get_workload("tpch_q6")
    report = ActivePy().run(workload.program, workload.dataset)
    baseline = run_c_baseline(workload.program, workload.dataset)
    print(baseline.total_seconds / report.total_seconds)  # ~1.2-1.4x

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from .config import DEFAULT_CONFIG, SystemConfig
from .errors import (
    DeadlineError,
    DeviceLostError,
    FaultError,
    ObservabilityError,
    ReproError,
    UncorrectableMediaError,
)
from .faults import FaultEvent, FaultInjector, FaultKind, FaultLog, FaultPlan, FaultSpec
from .frontend import program_from_function
from .hw.topology import Machine, build_machine
from .lang.dataset import Dataset
from .lang.program import Program, Statement
from .obs import Observability
from .runtime.activepy import ActivePy, ActivePyReport, RunOptions
from .runtime.codegen import ExecutionMode
from .runtime.estimator import net_profit
from .runtime.planner import Plan, assign_csd_code
from .baselines import StaticIspBaseline, run_c_baseline
from .workloads import Workload, all_workloads, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "ActivePy",
    "ActivePyReport",
    "DEFAULT_CONFIG",
    "Dataset",
    "DeadlineError",
    "DeviceLostError",
    "ExecutionMode",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultLog",
    "FaultPlan",
    "FaultSpec",
    "Machine",
    "Observability",
    "ObservabilityError",
    "Plan",
    "Program",
    "ReproError",
    "RunOptions",
    "UncorrectableMediaError",
    "Statement",
    "StaticIspBaseline",
    "SystemConfig",
    "Workload",
    "all_workloads",
    "assign_csd_code",
    "build_machine",
    "get_workload",
    "net_profit",
    "program_from_function",
    "run_c_baseline",
    "workload_names",
    "__version__",
]
