"""The ActivePy facade: the framework's public entry point.

A user hands over an unannotated program and its dataset; ActivePy does
the rest (paper Figure 3): sampling, curve fitting, Equation-1-driven
planning, code generation for both units, and monitored execution with
dynamic migration.  The report returned exposes every intermediate so
experiments and tests can audit each stage.

Run-shaping knobs (tracing, progress triggers, fault plans, an
observability handle) travel in a keyword-only :class:`RunOptions`
dataclass; the pre-redesign ``trace=``/``progress_triggers=`` keywords
still work for one release behind a :class:`DeprecationWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .._deprecations import warn_once
from ..analysis.timeline import ExecutionTimeline
from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import PlanningError
from ..faults import FaultInjector, FaultPlan
from ..hw.topology import Machine, build_machine
from ..lang.dataset import Dataset
from ..lang.program import Program
from ..obs import Observability
from .codegen import CodeGenerator, CompiledProgram, ExecutionMode
from .estimator import LineEstimate, build_estimates
from .executor import ExecutionResult, PlanExecutor, ProgressTrigger
from .explain import PREDICTION_ERROR_BUCKETS, PlanExplanation, explain_plan
from .planner import Plan, assign_csd_code
from .plansearch import SearchOptions, SearchReport, search_plan
from .profcache import ProfileCache, cached_sampling, default_cache
from .sampling import SamplingPhase, SamplingReport

__all__ = ["ActivePy", "ActivePyReport", "PLAN_MODES", "RunOptions", "run_plan"]

#: How step 3 picks the host/CSD split: the paper's greedy Algorithm 1,
#: or the branch-and-bound speculative search over forked simulator
#: states (:mod:`repro.runtime.plansearch`).
PLAN_MODES = ("greedy", "search")

#: Distinguishes "caller never passed the deprecated keyword" from any
#: legitimate value (including None/False/()).
_UNSET: Any = object()


@dataclass(frozen=True)
class RunOptions:
    """Everything that shapes one :meth:`ActivePy.run` besides the work.

    Attributes
    ----------
    trace:
        Attach an :class:`ExecutionTimeline` of every span to the
        report (backed by the observability tracer).
    progress_triggers:
        Experiment machinery: ``(progress_fraction, availability)``
        pairs that throttle the CSE when the offloaded work crosses a
        progress fraction (the paper's Figure 5 study).
    fault_plan:
        Deterministic fault injection (:mod:`repro.faults`) armed
        before execution.
    obs:
        A caller-owned :class:`~repro.obs.Observability` handle; the
        machine's components record metrics and spans into it.  Omit
        for a zero-overhead disabled handle.
    plan_mode:
        Override the instance's planning mode for this run: "greedy"
        (Algorithm 1) or "search" (branch-and-bound over forked
        simulator states).  ``None`` keeps the instance default.
    search_options:
        Knobs for ``plan_mode="search"``
        (:class:`~repro.runtime.plansearch.SearchOptions`); ``None``
        keeps the instance default.
    """

    trace: bool = False
    progress_triggers: Tuple[ProgressTrigger, ...] = ()
    fault_plan: Optional[FaultPlan] = None
    obs: Optional[Observability] = None
    plan_mode: Optional[str] = None
    search_options: Optional[SearchOptions] = None

    def __post_init__(self) -> None:
        if self.plan_mode is not None and self.plan_mode not in PLAN_MODES:
            raise PlanningError(
                f"invalid plan_mode {self.plan_mode!r}; expected one of "
                f"{PLAN_MODES}"
            )


@dataclass
class ActivePyReport:
    """Everything one ActivePy run produced, stage by stage."""

    program_name: str
    sampling: SamplingReport
    estimates: List[LineEstimate]
    plan: Plan
    compiled: CompiledProgram
    result: ExecutionResult
    #: End-to-end simulated seconds: sampling + compile + execution.
    total_seconds: float
    #: Span trace of the run (None unless requested).
    timeline: Optional[ExecutionTimeline] = None
    #: The observability handle the run recorded into (None when
    #: observability was disabled for the run).
    obs: Optional[Observability] = None
    #: Predicted vs measured per-line times and the migration audit
    #: trail (always attached; costs no simulated time).
    explanation: Optional[PlanExplanation] = None
    #: True when the sampling phase was served from the profile cache
    #: (wall-clock shortcut only; simulated results are bit-identical
    #: either way, so this never appears in run signatures).
    sampling_cached: bool = False
    #: How the profile cache treated this run: "hit", "miss",
    #: "uncacheable" (unfingerprintable program), or "off".
    sampling_cache_status: str = "off"
    #: The branch-and-bound search's full outcome (None for greedy
    #: runs).  ``search.cache_hit`` marks warm runs that skipped the
    #: search and served the plan from the profile cache.
    search: Optional[SearchReport] = None

    @property
    def execution_seconds(self) -> float:
        return self.result.total_seconds

    @property
    def overhead_seconds(self) -> float:
        """Sampling + code-generation cost (the paper's ~0.1 s claim)."""
        return self.total_seconds - self.result.total_seconds

    # --- the common report protocol (see analysis/export.py) ---------------

    def summary(self) -> Dict[str, Any]:
        """The headline numbers of the run, JSON-ready."""
        return {
            "program": self.program_name,
            "total_seconds": self.total_seconds,
            "execution_seconds": self.execution_seconds,
            "overhead_seconds": self.overhead_seconds,
            "assignments": list(self.plan.assignments),
            "migrated": self.result.migrated,
            "degraded": self.result.degraded,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        """Full JSON-ready view: summary + execution result + metrics."""
        payload: Dict[str, Any] = {"experiment": "activepy-run"}
        payload.update(self.summary())
        payload["result"] = self.result.to_jsonable()
        if self.explanation is not None:
            payload["explanation"] = self.explanation.to_jsonable()
        if self.obs is not None:
            payload["metrics"] = self.obs.snapshot()
        return payload


class ActivePy:
    """The runtime framework.

    Parameters
    ----------
    config:
        Platform parameters; defaults to the paper-calibrated platform.
    migration_enabled:
        The full-fledged framework migrates; the paper's "ActivePy w/o
        migration" ablation sets this to False.
    profile_cache:
        Where repeat runs find their sampling/fitting results
        (:mod:`repro.runtime.profcache`).  ``None`` uses the
        process-wide default cache (honouring ``REPRO_PROFCACHE`` /
        ``REPRO_CACHE_DIR``); ``False`` disables caching for this
        instance; a :class:`ProfileCache` pins a specific directory.
        A cache hit skips the wall-clock work of re-profiling but
        charges the identical simulated sampling cost, so simulated
        results are bit-identical warm or cold.  Runs with
        ``profiler_noise > 0`` always bypass the cache (their profiles
        are meant to differ run to run).
    plan_mode:
        "greedy" runs the paper's Algorithm 1 (the default); "search"
        runs the branch-and-bound speculative search
        (:mod:`repro.runtime.plansearch`), which never returns a plan
        with a worse speculative makespan than greedy's.  Search
        results are keyed into the profile cache, so warm runs skip
        the search entirely.
    search_options:
        Default :class:`~repro.runtime.plansearch.SearchOptions` for
        ``plan_mode="search"`` (beam width, worker processes).
    """

    def __init__(
        self,
        config: SystemConfig = DEFAULT_CONFIG,
        migration_enabled: bool = True,
        profile_cache: Any = None,
        plan_mode: str = "greedy",
        search_options: Optional[SearchOptions] = None,
    ) -> None:
        if plan_mode not in PLAN_MODES:
            raise PlanningError(
                f"invalid plan_mode {plan_mode!r}; expected one of "
                f"{PLAN_MODES}"
            )
        self.config = config
        self.migration_enabled = migration_enabled
        self.plan_mode = plan_mode
        self.search_options = search_options
        self._sampling_phase = SamplingPhase(config)
        self._codegen = CodeGenerator(config)
        if profile_cache is None or profile_cache is True:
            self._profile_cache: Optional[ProfileCache] = default_cache()
        elif profile_cache is False:
            self._profile_cache = None
        else:
            self._profile_cache = profile_cache

    def run(
        self,
        program: Program,
        dataset: Dataset,
        machine: Optional[Machine] = None,
        *,
        options: Optional[RunOptions] = None,
        obs: Optional[Observability] = None,
        fault_plan: Optional[FaultPlan] = None,
        trace: Any = _UNSET,
        progress_triggers: Any = _UNSET,
    ) -> ActivePyReport:
        """Run an unannotated program end to end.

        Run-shaping knobs travel in ``options`` (a :class:`RunOptions`);
        ``obs`` and ``fault_plan`` are accepted directly as conveniences
        and override the corresponding ``options`` fields.  The old
        ``trace=``/``progress_triggers=`` keywords still work behind a
        :class:`DeprecationWarning`.

        Injected faults and the runtime's recovery actions land on
        ``result.fault_events``; with tracing the report carries an
        :class:`ExecutionTimeline` of every span, and with an enabled
        ``obs`` handle ``report.obs`` exposes the collected metrics.
        """
        opts = self._resolve_options(
            options, obs=obs, fault_plan=fault_plan,
            trace=trace, progress_triggers=progress_triggers,
        )
        if machine is None:
            machine = build_machine(self.config, obs=opts.obs)
        elif opts.obs is not None and machine.obs is not opts.obs:
            # Pre-built machine: its components already hold the
            # machine's handle by reference, so point that handle at
            # the caller's sinks instead of rebuilding the hardware.
            machine.obs.adopt(opts.obs)
        handle = machine.obs
        if opts.trace:
            # Tracing implies an enabled handle: the timeline is now
            # materialised from the tracer's span log.
            handle.enabled = True
            handle.ensure_tracer()
        trace_mark = handle.tracer.count if handle.tracer is not None else 0
        device = _resolve_device(machine, dataset)

        injector = None
        if opts.fault_plan is not None and len(opts.fault_plan) > 0:
            injector = FaultInjector(machine, opts.fault_plan)
            injector.arm()

        start = machine.now

        # 1. Sampling phase: run the program on scaled sample inputs.
        #    The profile cache short-circuits the *wall-clock* work of
        #    re-profiling an unchanged run; the simulated cost charged
        #    below comes from the (bit-identical) cached report, so sim
        #    results do not depend on cache state.  The run's cache key
        #    is computed once here and reused by the plan cache.
        sampling, cache_key, cache_status = cached_sampling(
            self._sampling_phase, program, dataset, self._profile_cache,
            obs=handle,
        )
        machine.simulator.clock.advance(sampling.sampling_seconds, component="host")
        handle.record_span("sampling-phase", "sampling", "host", start, machine.now)

        # 2. Extrapolate to the raw input; calibrate C from the device's
        #    performance counters.
        estimates = build_estimates(
            sampling,
            full_records=dataset.n_records,
            config=self.config,
            device_counters=device.cse.read_performance_counters(),
        )

        # 3. Pick the CSD code regions: Algorithm 1's greedy pass, and
        #    — in "search" mode — the branch-and-bound refinement over
        #    forked simulator states, seeded with greedy's plan so it
        #    can only match or beat it.  Like greedy, the search is
        #    digital-twin work and charges no simulated time; its wall
        #    cost is bounded by the perf gate and amortised by the
        #    profile cache.
        plan = assign_csd_code(estimates, self.config)
        search_report: Optional[SearchReport] = None
        plan_mode = (
            opts.plan_mode if opts.plan_mode is not None else self.plan_mode
        )
        if plan_mode == "search":
            search_report = self._search_plan(
                program, dataset, estimates, plan,
                cache=self._profile_cache, cache_key=cache_key, handle=handle,
                opts=opts,
            )
            plan = search_report.plan

        # 4. Generate machine code for both units and distribute it.
        compile_start = machine.now
        compiled = self._codegen.generate(
            machine, program, plan, mode=ExecutionMode.ACTIVEPY, device=device
        )
        handle.record_span("codegen", "compile", "host", compile_start, machine.now)

        # 5. Execute with runtime monitoring (and migration, if enabled).
        executor = PlanExecutor(
            machine, migration_enabled=self.migration_enabled,
            device=device,
            fault_log=injector.log if injector is not None else None,
        )
        result = executor.execute(
            compiled, n_records=dataset.n_records,
            progress_triggers=opts.progress_triggers,
        )

        # 6. Explain: the planner's per-line predictions next to what
        #    the executor measured, so the plan is auditable — search
        #    plans additionally carry their diff against greedy.
        explanation = explain_plan(
            plan, result, self.config, search=search_report
        )
        if handle.enabled:
            self._record_explanation(handle, explanation)

        timeline = (
            handle.tracer.to_timeline(since=trace_mark)
            if opts.trace and handle.tracer is not None else None
        )
        return ActivePyReport(
            program_name=program.name,
            sampling=sampling,
            estimates=estimates,
            plan=plan,
            compiled=compiled,
            result=result,
            total_seconds=machine.now - start,
            timeline=timeline,
            obs=handle if handle.enabled else None,
            explanation=explanation,
            sampling_cached=cache_status == "hit",
            sampling_cache_status=cache_status,
            search=search_report,
        )

    def _search_plan(
        self,
        program: Program,
        dataset: Dataset,
        estimates: List[LineEstimate],
        greedy_plan: Plan,
        cache: Optional[ProfileCache],
        cache_key: Optional[str],
        handle: Observability,
        opts: RunOptions,
    ) -> SearchReport:
        """Run (or cache-serve) the branch-and-bound plan search.

        The plan cache key derives from the sampling fingerprint plus
        the search knobs, so a warm run skips the search entirely and
        counts a ``plansearch.cache_hit``; any code or input change
        that would re-profile also re-searches.
        """
        search_opts = (
            opts.search_options if opts.search_options is not None
            else self.search_options
        )
        if search_opts is None:
            search_opts = SearchOptions()
        report: Optional[SearchReport] = None
        plan_cache_key: Optional[str] = None
        if cache is not None and cache_key is not None:
            plan_cache_key = cache.plan_key(
                cache_key, search_opts.digest_token()
            )
            payload = cache.get_plan(plan_cache_key)
            if payload is not None:
                try:
                    report = SearchReport.from_jsonable(payload)
                    report.cache_hit = True
                except PlanningError:
                    report = None
        if report is None:
            report = search_plan(
                program, dataset, estimates, self.config,
                options=search_opts, greedy=greedy_plan,
            )
            if cache is not None and plan_cache_key is not None:
                cache.put_plan(plan_cache_key, report.to_jsonable())
        if handle.enabled:
            report.publish(handle)
        return report

    @staticmethod
    def _record_explanation(
        handle: Observability, explanation: PlanExplanation
    ) -> None:
        """Expose per-line prediction error through the metrics registry."""
        metrics = handle.metrics
        for line in explanation.lines:
            prefix = f"plan.line.{line.name}"
            metrics.gauge(f"{prefix}.predicted_seconds").set(
                line.predicted_seconds
            )
            metrics.gauge(f"{prefix}.measured_seconds").set(line.measured_seconds)
            metrics.gauge(f"{prefix}.error_seconds").set(line.error_seconds)
            metrics.histogram(
                "plan.prediction.relative_error", buckets=PREDICTION_ERROR_BUCKETS
            ).observe(line.relative_error)
        metrics.gauge("plan.prediction.max_relative_error").set(
            explanation.max_relative_error
        )
        metrics.gauge("plan.prediction.total_error_seconds").set(
            explanation.total_error_seconds
        )

    @staticmethod
    def _resolve_options(
        options: Optional[RunOptions],
        obs: Optional[Observability],
        fault_plan: Optional[FaultPlan],
        trace: Any,
        progress_triggers: Any,
    ) -> RunOptions:
        """Fold direct and deprecated keywords into one RunOptions."""
        opts = options if options is not None else RunOptions()
        if trace is not _UNSET:
            warn_once(
                "ActivePy.run:trace",
                "ActivePy.run(trace=...) is deprecated and will be removed; "
                "pass options=RunOptions(trace=...) instead",
                stacklevel=3,
            )
            opts = replace(opts, trace=bool(trace))
        if progress_triggers is not _UNSET:
            warn_once(
                "ActivePy.run:progress_triggers",
                "ActivePy.run(progress_triggers=...) is deprecated and will "
                "be removed; pass options=RunOptions(progress_triggers=...) "
                "instead",
                stacklevel=3,
            )
            opts = replace(opts, progress_triggers=tuple(progress_triggers))
        if fault_plan is not None:
            opts = replace(opts, fault_plan=fault_plan)
        if obs is not None:
            opts = replace(opts, obs=obs)
        return opts


def _resolve_device(machine: Machine, dataset: Dataset):
    """The CSD a program offloads to: the one holding its dataset.

    Stores the dataset on the primary device if no attached CSD holds
    it yet.
    """
    for device in machine.csds:
        if device.holds_dataset(dataset.name):
            return device
    machine.csd.store_dataset(dataset.name, dataset.raw_bytes)
    return machine.csd


def run_plan(
    machine: Machine,
    program: Program,
    plan: Plan,
    dataset: Dataset,
    mode: ExecutionMode,
    migration_enabled: bool = False,
    progress_triggers: Sequence[ProgressTrigger] = (),
    config: Optional[SystemConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> ExecutionResult:
    """Compile and execute an externally supplied plan.

    Shared helper for the baselines (which bring their own plans) and
    ablations; charges compile cost per the mode and runs the executor
    against the device holding the dataset.  ``fault_plan`` arms
    deterministic fault injection before execution.
    """
    device = _resolve_device(machine, dataset)
    injector = None
    if fault_plan is not None and len(fault_plan) > 0:
        injector = FaultInjector(machine, fault_plan)
        injector.arm()
    generator = CodeGenerator(config if config is not None else machine.config)
    compiled = generator.generate(machine, program, plan, mode=mode, device=device)
    executor = PlanExecutor(
        machine, migration_enabled=migration_enabled, device=device,
        fault_log=injector.log if injector is not None else None,
    )
    return executor.execute(
        compiled, n_records=dataset.n_records, progress_triggers=progress_triggers
    )
