"""The ActivePy facade: the framework's public entry point.

A user hands over an unannotated program and its dataset; ActivePy does
the rest (paper Figure 3): sampling, curve fitting, Equation-1-driven
planning, code generation for both units, and monitored execution with
dynamic migration.  The report returned exposes every intermediate so
experiments and tests can audit each stage.

Run-shaping knobs (tracing, progress triggers, fault plans, an
observability handle) travel in a keyword-only :class:`RunOptions`
dataclass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import ConfigError, PlanningError
from ..faults import FaultInjector, FaultPlan
from ..hw.topology import Machine, build_machine
from ..lang.dataset import Dataset
from ..lang.program import Program
from ..obs import Observability, Span
from .codegen import CodeGenerator, CompiledProgram, ExecutionMode
from .estimator import LineEstimate, build_estimates
from .executor import ExecutionResult, PlanExecutor, ProgressTrigger
from .explain import PREDICTION_ERROR_BUCKETS, PlanExplanation, explain_plan
from .planner import Plan, assign_csd_code
from .plansearch import SearchReport, search_plan
from .profcache import ProfileCache, cached_sampling, default_cache
from .sampling import SamplingPhase, SamplingReport

__all__ = ["ActivePy", "ActivePyReport", "PLAN_MODES", "RunOptions", "run_plan"]

#: How step 3 picks the host/CSD split: the paper's greedy Algorithm 1,
#: or the exact search over steps priced in closed form, each what the
#: executor would charge for it (:mod:`repro.runtime.plansearch`).
PLAN_MODES = ("greedy", "search")


@dataclass(frozen=True)
class RunOptions:
    """Everything that shapes one :meth:`ActivePy.run` besides the work.

    Attributes
    ----------
    trace:
        Attach every :class:`~repro.obs.Span` the run recorded to the
        report as ``report.spans`` (backed by the observability tracer).
    progress_triggers:
        Experiment machinery: ``(progress_fraction, availability)``
        pairs that throttle the CSE when the offloaded work crosses a
        progress fraction (the paper's Figure 5 study).  Each is a pair
        of finite numbers, the fraction in [0, 1] and the availability
        in (0, 1]; anything else raises :class:`ConfigError`.
    fault_plan:
        Deterministic fault injection (:mod:`repro.faults`) armed
        before execution.
    obs:
        A caller-owned :class:`~repro.obs.Observability` handle; the
        machine's components record metrics and spans into it.  Omit
        for a zero-overhead disabled handle.
    """

    trace: bool = False
    progress_triggers: Tuple[ProgressTrigger, ...] = ()
    fault_plan: Optional[FaultPlan] = None
    obs: Optional[Observability] = None

    def __post_init__(self) -> None:
        _check_progress_triggers(self.progress_triggers)


def _check_progress_triggers(triggers: Sequence[ProgressTrigger]) -> None:
    """Raise :class:`ConfigError` unless every trigger is a pair of finite
    numbers, the fraction in [0, 1] and the availability in (0, 1]."""
    try:
        pairs = [tuple(trigger) for trigger in triggers]
    except TypeError:
        raise ConfigError(
            f"progress triggers must be (fraction, availability) pairs, got {triggers!r}"
        ) from None
    for pair in pairs:
        if not (
            len(pair) == 2
            and all(
                isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value)
                for value in pair
            )
            and 0.0 <= pair[0] <= 1.0
            and 0.0 < pair[1] <= 1.0
        ):
            raise ConfigError(
                "a progress trigger is a pair of finite numbers, the fraction in "
                f"[0, 1] and the availability in (0, 1]; got {pair!r}"
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
    #: The run's spans, in recording order (None unless traced).
    spans: Optional[Tuple[Span, ...]] = None
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
    #: The plan search's full outcome (None for greedy
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
        runs the exact plan search (:mod:`repro.runtime.plansearch`),
        which returns the plan with the smallest fault-free makespan
        and keeps greedy's on a tie.
        Search results are keyed into the profile cache, so warm runs
        skip the search entirely.
    """

    def __init__(
        self,
        config: SystemConfig = DEFAULT_CONFIG,
        migration_enabled: bool = True,
        profile_cache: Any = None,
        plan_mode: str = "greedy",
    ) -> None:
        if plan_mode not in PLAN_MODES:
            raise PlanningError(
                f"invalid plan_mode {plan_mode!r}; expected one of "
                f"{PLAN_MODES}"
            )
        self.config = config
        self.migration_enabled = migration_enabled
        self.plan_mode = plan_mode
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
    ) -> ActivePyReport:
        """Run an unannotated program end to end.

        Run-shaping knobs travel in ``options`` (a :class:`RunOptions`);
        the planning mode is the instance's ``plan_mode``.

        Injected faults and the runtime's recovery actions land on
        ``result.fault_events``; with tracing ``report.spans`` holds
        every span the run recorded, and with an enabled
        ``obs`` handle ``report.obs`` exposes the collected metrics.
        """
        opts = options if options is not None else RunOptions()
        if machine is None:
            machine = build_machine(self.config, obs=opts.obs)
        elif opts.obs is not None and machine.obs is not opts.obs:
            # Pre-built machine: its components already hold the
            # machine's handle by reference, so point that handle at
            # the caller's sinks instead of rebuilding the hardware.
            machine.obs.adopt(opts.obs)
        try:
            return self._run_on(machine, program, dataset, opts)
        finally:
            # Publish the run's write-behind metric cells, also when the
            # run raised: a caller snapshots what it did up to the raise.
            machine.obs.flush()

    def _run_on(
        self, machine: Machine, program: Program, dataset: Dataset,
        opts: RunOptions,
    ) -> ActivePyReport:
        """The body of :meth:`run` on a resolved machine."""
        handle = machine.obs
        if opts.trace:
            # Tracing implies an enabled handle: the report's spans are
            # read back from the tracer's span log.
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
        #    — in "search" mode — the exact search over steps priced in
        #    closed form (each bit for bit what the executor charges for
        #    it fault-free), which keeps greedy's plan on a tie so it can
        #    only match or beat it.  Like greedy, the search is
        #    digital-twin work and charges no simulated time; its wall
        #    cost is bounded by the perf gate and amortised by the
        #    profile cache.
        plan = assign_csd_code(estimates, self.config)
        search_report: Optional[SearchReport] = None
        if self.plan_mode == "search":
            search_report = self._search_plan(
                program, dataset, estimates, plan,
                cache=self._profile_cache, cache_key=cache_key, handle=handle,
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

        spans = (
            tuple(handle.tracer.spans_since(trace_mark))
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
            spans=spans,
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
    ) -> SearchReport:
        """Run (or cache-serve) the plan search.

        Plans are cached under the sampling fingerprint, so a warm run
        skips the search entirely and counts a ``plansearch.cache_hit``;
        any code or input change that would re-profile also re-searches.
        """
        report: Optional[SearchReport] = None
        if cache is not None and cache_key is not None:
            report = cache.get_plan(cache_key)
            if report is not None:
                report.cache_hit = True
        if report is None:
            report = search_plan(
                program, dataset, estimates, self.config, greedy=greedy_plan,
            )
            if cache is not None and cache_key is not None:
                cache.put_plan(cache_key, report)
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
    _check_progress_triggers(progress_triggers)
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
