"""The blessed import surface, in one flat namespace.

``repro.api`` re-exports every symbol a downstream user is expected to
touch — running ActivePy, defining programs, building machines, fault
injection and chaos campaigns, observability, and JSON export — so one
import line covers a whole experiment script::

    from repro.api import ActivePy, RunOptions, Observability, get_workload

    workload = get_workload("tpch_q6")
    obs = Observability.with_tracing()
    report = ActivePy().run(workload.program, workload.dataset,
                            options=RunOptions(obs=obs))

The symbol list is documented in ``docs/api.md`` (section "The
``repro.api`` facade"); a test fails whenever the two drift apart, in
either direction.  Anything importable elsewhere but absent here is
internal and may move without notice.
"""

from __future__ import annotations

from . import __version__
from .analysis.export import ReportLike, dump, dumps, to_jsonable
from .baselines import StaticIspBaseline, run_c_baseline
from .chaos import (
    CampaignConfig,
    CampaignResult,
    ChaosHarness,
    ChaosRunOutcome,
    run_campaign,
)
from .config import DEFAULT_CONFIG, SystemConfig
from .errors import (
    AdmissionError,
    ChaosError,
    DeadlineError,
    DeviceLostError,
    FaultError,
    FleetError,
    IntegrityError,
    ObservabilityError,
    ReproError,
    TenantIsolationError,
    UncorrectableMediaError,
)
from .faults import (
    FAULT_KIND_INFO,
    FLEET_KINDS,
    LOUD_KINDS,
    SILENT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultLog,
    FaultPlan,
    FaultSpec,
)
from .fleet import (
    Fleet,
    FleetCampaignConfig,
    FleetConfig,
    FleetReport,
    JobArrival,
    JobOutcome,
    SloSnapshot,
    TenantSpec,
    TrafficGenerator,
    default_tenants,
    percentile,
    to_fleet_chrome_trace,
    write_fleet_chrome_trace,
)
from .frontend import program_from_function
from .hw.topology import Machine, build_machine
from .integrity import CLEAN_DIGEST, IntegrityChecker
from .lang import ProgramBuilder, dataset_of
from .lang.dataset import Dataset
from .lang.program import Program, Statement
from .obs import (
    AlertEvent,
    AlertRule,
    AttributionReport,
    Counter,
    CriticalPathReport,
    FlightRecorder,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    Span,
    TimeAttributor,
    TimeSeries,
    Tracer,
    build_attribution_report,
    build_critical_path,
    evaluate_alerts,
    render_gantt,
    sparkline,
    to_chrome_trace,
    trace_span,
    validate_chrome_trace,
    write_chrome_trace,
)
from .perfgate import GatedMetric, GateReport, PerfGateError
from .perfgate import check as perf_check
from .perfgate import snapshot as perf_snapshot
from .runtime.activepy import (
    PLAN_MODES,
    ActivePy,
    ActivePyReport,
    RunOptions,
    run_plan,
)
from .runtime.codegen import ExecutionMode
from .runtime.executor import ExecutionResult
from .runtime.explain import LineExplanation, PlanExplanation, explain_plan
from .runtime.planner import PLAN_ORIGINS, Plan, assign_csd_code
from .runtime.plansearch import SearchReport, search_plan
from .runtime.profcache import ProfileCache, default_cache
from .sim import EventHandle, SimClock, SimSnapshot, Simulator
from .workloads import Workload, all_workloads, get_workload, workload_names

__all__ = [
    "ActivePy",
    "ActivePyReport",
    "AdmissionError",
    "AlertEvent",
    "AlertRule",
    "AttributionReport",
    "CLEAN_DIGEST",
    "CampaignConfig",
    "CampaignResult",
    "ChaosError",
    "ChaosHarness",
    "ChaosRunOutcome",
    "Counter",
    "CriticalPathReport",
    "DEFAULT_CONFIG",
    "Dataset",
    "DeadlineError",
    "DeviceLostError",
    "EventHandle",
    "ExecutionMode",
    "ExecutionResult",
    "FAULT_KIND_INFO",
    "FLEET_KINDS",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultLog",
    "FaultPlan",
    "FaultSpec",
    "Fleet",
    "FleetCampaignConfig",
    "FleetConfig",
    "FleetError",
    "FleetReport",
    "FlightRecorder",
    "GateReport",
    "GatedMetric",
    "Gauge",
    "Histogram",
    "IntegrityChecker",
    "IntegrityError",
    "JobArrival",
    "JobOutcome",
    "LOUD_KINDS",
    "LineExplanation",
    "Machine",
    "MetricsRegistry",
    "Observability",
    "ObservabilityError",
    "PLAN_MODES",
    "PLAN_ORIGINS",
    "PerfGateError",
    "Plan",
    "PlanExplanation",
    "ProfileCache",
    "Program",
    "ProgramBuilder",
    "ReportLike",
    "ReproError",
    "RunOptions",
    "SILENT_KINDS",
    "SearchReport",
    "SimClock",
    "SimSnapshot",
    "Simulator",
    "SloSnapshot",
    "Span",
    "Statement",
    "StaticIspBaseline",
    "SystemConfig",
    "TenantIsolationError",
    "TenantSpec",
    "TimeAttributor",
    "TimeSeries",
    "Tracer",
    "TrafficGenerator",
    "UncorrectableMediaError",
    "Workload",
    "__version__",
    "all_workloads",
    "assign_csd_code",
    "build_attribution_report",
    "build_critical_path",
    "build_machine",
    "dataset_of",
    "default_cache",
    "default_tenants",
    "dump",
    "dumps",
    "evaluate_alerts",
    "explain_plan",
    "get_workload",
    "percentile",
    "perf_check",
    "perf_snapshot",
    "program_from_function",
    "render_gantt",
    "run_c_baseline",
    "run_campaign",
    "run_plan",
    "search_plan",
    "sparkline",
    "to_chrome_trace",
    "to_fleet_chrome_trace",
    "to_jsonable",
    "trace_span",
    "validate_chrome_trace",
    "workload_names",
    "write_chrome_trace",
    "write_fleet_chrome_trace",
]
