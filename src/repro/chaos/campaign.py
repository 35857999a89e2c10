"""The chaos campaign driver, and the single-machine campaign.

A campaign is a loop of seeded experiments.  In the single-machine
campaign run ``r`` picks workload ``workloads[r % len(workloads)]`` and
seed ``base_seed + r``, generates a random :class:`FaultPlan` over the
workload's fault-free horizon, runs the workload on a **fresh machine**
under that plan, and checks the :mod:`~repro.chaos.invariants`.  The
rack-level campaign (:mod:`repro.fleet.chaos`) does the same with
seeded fleets under fleet-level plans.

Both run through one driver, :func:`run_campaign`.  A config
(:class:`CampaignConfig` or
:class:`~repro.fleet.chaos.FleetCampaignConfig`) lists the run keys in
run order and writes the campaign's headline; the harness it builds
(:class:`ChaosHarness` or :class:`~repro.fleet.chaos.FleetHarness`)
runs one key, supplies the shrink predicate for a failed outcome and
prints its replay command.  The driver owns the rest: the run loop (in
process, or across a process pool), ``on_outcome`` streaming, the ddmin
shrink (:mod:`~repro.chaos.shrink`) of every violating run in run
order, and one :class:`CampaignResult`.

Everything is derived from the config and the run key, so a reported
failure replays bit-for-bit on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from typing import (
    TYPE_CHECKING, Any, Callable, ClassVar, Dict, Iterator, List, Optional,
    Sequence, Tuple, Union,
)

from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import ChaosError
from ..faults.spec import LOUD_KINDS, SILENT_KINDS, FaultPlan
from ..hw.topology import build_machine
from ..obs import Observability
from ..runtime.activepy import ActivePy, ActivePyReport, RunOptions
from ..workloads import get_workload
from .invariants import InvariantViolation, check_invariants
from .shrink import ShrinkResult, render_plan, shrink_plan

if TYPE_CHECKING:
    from ..fleet.chaos import FleetCampaignConfig, FleetChaosOutcome

    AnyCampaignConfig = Union["CampaignConfig", FleetCampaignConfig]
    AnyOutcome = Union["ChaosRunOutcome", FleetChaosOutcome]

#: Default campaign scale: big enough that plans/migrations are real,
#: small enough that a 200-run campaign finishes in tens of seconds.
DEFAULT_SCALE = 2 ** -6

#: The default campaign rotation — diverse plan shapes (all-device,
#: mixed, migration-prone) without paying for the whole suite.
DEFAULT_WORKLOADS = ("tpch_q6", "kmeans", "blackscholes", "pagerank")


@dataclass(frozen=True)
class ChaosRunOutcome:
    """One seeded experiment, judged.

    ``fault_event_count`` counts every :class:`~repro.faults.FaultEvent`
    the run logged — injected faults *and* the runtime's recovery
    actions.  ``metrics`` is the run's final observability snapshot when
    the campaign collects one.
    """

    workload: str
    seed: int
    plan: FaultPlan
    violations: Tuple[InvariantViolation, ...]
    degraded: Optional[bool]
    fault_event_count: int
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Dict[str, Any]:
        """The judged outcome, JSON-ready (metrics omitted)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "ok": self.ok,
            "degraded": self.degraded,
            "fault_event_count": self.fault_event_count,
            "violations": [v.render() for v in self.violations],
        }

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": "chaos-run"}
        payload.update(self.summary())
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    def failure_key(self) -> Dict[str, Any]:
        """The fields that name this run in a failure report."""
        return {"workload": self.workload, "seed": self.seed}

    def failure_title(self) -> str:
        return f"FAILURE: {self.workload} seed={self.seed}"


@dataclass(frozen=True)
class ShrunkFailure:
    """A violating run distilled to its minimal reproducing plan."""

    outcome: AnyOutcome
    shrink: ShrinkResult
    replay_command: str

    def render(self) -> str:
        lines = [self.outcome.failure_title()]
        for violation in self.outcome.violations:
            lines.append(f"  violated  {violation.render()}")
        lines.append(
            f"  shrunk    {len(self.outcome.plan)} fault(s) -> "
            f"{len(self.shrink.minimal)} ({self.shrink.probes} probe(s))"
        )
        for text in render_plan(self.shrink.minimal):
            lines.append(f"    - {text}")
        lines.append(f"  replay    {self.replay_command}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CampaignConfig:
    """What to throw at the stack, and how hard."""

    runs: int = 25
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS
    base_seed: int = 0
    fault_count: int = 3
    scale: float = DEFAULT_SCALE
    system_config: SystemConfig = DEFAULT_CONFIG
    shrink_failures: bool = True
    max_shrink_probes: int = 128
    #: Widen the fault-plan kind pool to include the silent-corruption
    #: kinds (:data:`~repro.faults.spec.SILENT_KINDS`).  Off by default:
    #: silent faults are only survivable with the integrity layer on, so
    #: campaigns opt in together with ``integrity_enabled``.
    silent_corruption: bool = False
    #: Attach a per-run metrics snapshot to every outcome — the numbers
    #: a violation repro needs (retries, fallbacks, torn writes) without
    #: re-running under a debugger.
    collect_metrics: bool = True

    def __post_init__(self) -> None:
        # "0 runs, all invariants held" is the kind of vacuous green a
        # CI gate must never report.
        if self.runs < 1:
            raise ChaosError(f"runs must be at least 1, got {self.runs}")
        if self.fault_count < 1:
            raise ChaosError(
                f"fault_count must be at least 1, got {self.fault_count}"
            )
        if not self.workloads:
            raise ChaosError("workloads must not be empty")

    # --- what the campaign driver asks of a config -------------------------

    experiment: ClassVar[str] = "chaos-campaign"
    held: ClassVar[str] = "all invariants held"

    def harness(self) -> ChaosHarness:
        return ChaosHarness(
            system_config=self.system_config,
            scale=self.scale,
            fault_count=self.fault_count,
            collect_metrics=self.collect_metrics,
            silent_corruption=self.silent_corruption,
        )

    def run_keys(self) -> List[Tuple[str, int]]:
        """``(workload, seed)`` of every run, in run order."""
        return [
            (self.workloads[run % len(self.workloads)], self.base_seed + run)
            for run in range(self.runs)
        ]

    def headline(self, outcomes: Sequence[ChaosRunOutcome]) -> List[str]:
        runs = len(outcomes)
        return [
            f"chaos campaign: {runs} run(s) across "
            f"{len(self.workloads)} workload(s), "
            f"seeds {self.base_seed}..{self.base_seed + max(runs - 1, 0)}",
            f"  fault events    : {sum(o.fault_event_count for o in outcomes)}",
            f"  degraded runs   : {sum(1 for o in outcomes if o.degraded)}/{runs}",
        ]

    def summary_fields(self, outcomes: Sequence[ChaosRunOutcome]) -> Dict[str, Any]:
        return {
            "fault_event_count": sum(o.fault_event_count for o in outcomes),
            "degraded_runs": sum(1 for o in outcomes if o.degraded),
            "workloads": list(self.workloads),
            "base_seed": self.base_seed,
        }


@dataclass
class CampaignResult:
    """Every outcome plus the shrunk failures, ready to render."""

    config: AnyCampaignConfig
    outcomes: List[AnyOutcome] = field(default_factory=list)
    failures: List[ShrunkFailure] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> int:
        return sum(len(outcome.violations) for outcome in self.outcomes)

    @property
    def ok(self) -> bool:
        return not self.failures and all(o.ok for o in self.outcomes)

    def render(self) -> str:
        lines = self.config.headline(self.outcomes)
        lines.append(f"  violations      : {self.violations}")
        for failure in self.failures:
            lines.append("")
            lines.append(failure.render())
        if self.ok:
            lines.append(f"  {self.config.held}")
        return "\n".join(lines)

    # --- the common report protocol (see analysis/export.py) ---------------

    def summary(self) -> Dict[str, Any]:
        """Campaign headline: pass/fail counts, JSON-ready."""
        return {
            "runs": self.runs,
            "ok": self.ok,
            "violations": self.violations,
            "failures": len(self.failures),
            **self.config.summary_fields(self.outcomes),
        }

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": self.config.experiment}
        payload.update(self.summary())
        payload["outcomes"] = [o.to_jsonable() for o in self.outcomes]
        payload["failures"] = [
            {
                **f.outcome.failure_key(),
                "minimal_plan": list(render_plan(f.shrink.minimal)),
                "shrink_probes": f.shrink.probes,
                "replay": f.replay_command,
            }
            for f in self.failures
        ]
        return payload


class ChaosHarness:
    """Builds and judges seeded fault runs for one campaign setting.

    The fault-free baseline per workload is computed once and cached:
    it supplies both the invariant reference (result signature) and the
    time horizon random fault plans are drawn over.
    """

    def __init__(
        self,
        system_config: SystemConfig = DEFAULT_CONFIG,
        scale: float = DEFAULT_SCALE,
        fault_count: int = 3,
        collect_metrics: bool = False,
        silent_corruption: bool = False,
    ) -> None:
        self.system_config = system_config
        self.scale = scale
        self.fault_count = fault_count
        self.collect_metrics = collect_metrics
        self.silent_corruption = silent_corruption
        self._baselines: Dict[str, ActivePyReport] = {}

    # --- building blocks --------------------------------------------------

    def baseline(self, workload_name: str) -> ActivePyReport:
        """The cached fault-free run of a workload at this setting."""
        if workload_name not in self._baselines:
            workload = get_workload(workload_name, scale=self.scale)
            machine = build_machine(self.system_config)
            self._baselines[workload_name] = ActivePy(self.system_config).run(
                workload.program, workload.dataset, machine=machine,
            )
        return self._baselines[workload_name]

    def plan_for(self, workload_name: str, seed: int) -> FaultPlan:
        """The deterministic fault plan run ``(workload, seed)`` uses.

        Fault times are aimed past most of the sampling/compile prefix
        (where they would all collapse onto the first chunk boundary)
        into the window where chunks are actually in flight.
        """
        baseline = self.baseline(workload_name)
        offset = 0.8 * baseline.overhead_seconds
        # LOUD_KINDS is the historical pool; appending the silent kinds
        # (rather than replacing) keeps loud plans for a given seed
        # related to their silent-campaign counterparts.
        kinds = LOUD_KINDS + SILENT_KINDS if self.silent_corruption else None
        return FaultPlan.random(
            seed=seed,
            horizon_s=baseline.total_seconds - offset,
            count=self.fault_count,
            offset_s=offset,
            kinds=kinds,
        )

    def run_plan(self, workload_name: str, plan: FaultPlan,
                 seed: Optional[int] = None) -> ChaosRunOutcome:
        """Run one workload under one plan on a fresh machine and judge it."""
        baseline = self.baseline(workload_name)
        workload = get_workload(workload_name, scale=self.scale)
        obs = Observability() if self.collect_metrics else None
        machine = build_machine(self.system_config, obs=obs)
        try:
            report = ActivePy(self.system_config).run(
                workload.program, workload.dataset, machine=machine,
                options=RunOptions(fault_plan=plan, obs=obs),
            )
        except Exception as exc:  # noqa: BLE001 — the invariant under test
            return ChaosRunOutcome(
                workload=workload_name,
                seed=plan.seed if seed is None else seed,
                plan=plan,
                violations=(InvariantViolation(
                    "no-unhandled-exception",
                    f"{type(exc).__name__}: {exc}",
                ),),
                degraded=None,
                fault_event_count=0,
                # The snapshot matters *most* here: it shows what the
                # machine was doing when the run blew up.
                metrics=obs.snapshot() if obs is not None else None,
            )
        violations = check_invariants(report, baseline, workload.program)
        return ChaosRunOutcome(
            workload=workload_name,
            seed=plan.seed if seed is None else seed,
            plan=plan,
            violations=tuple(violations),
            degraded=report.result.degraded,
            fault_event_count=len(report.result.fault_events),
            metrics=obs.snapshot() if obs is not None else None,
        )

    def run_seed(self, workload_name: str, seed: int) -> ChaosRunOutcome:
        """One fully seeded experiment (the replay entry point)."""
        return self.run_plan(workload_name, self.plan_for(workload_name, seed),
                             seed=seed)

    # --- what the campaign driver asks of a harness ------------------------

    def reproducer(self, outcome: ChaosRunOutcome) -> Callable[[FaultPlan], bool]:
        """Predicate for the shrinker: does this plan still violate?"""
        def reproduces(candidate: FaultPlan) -> bool:
            return not self.run_plan(outcome.workload, candidate).ok
        return reproduces

    def replay_command(self, outcome: ChaosRunOutcome) -> str:
        """The CLI command that replays ``outcome``'s seeded run."""
        parts = [
            "python -m repro chaos",
            f"--workload {outcome.workload}",
            f"--seed {outcome.seed}",
            f"--fault-count {self.fault_count}",
        ]
        if self.scale != DEFAULT_SCALE:
            parts.append(f"--scale {self.scale}")
        if not self.system_config.checkpoint_validate:
            parts.append("--no-validate")
        if self.silent_corruption:
            parts.append("--sdc")
        if (self.system_config.integrity_enabled
                and not self.system_config.integrity_verify):
            parts.append("--no-verify")
        return " ".join(parts)

    def warm(self, keys: Sequence[Tuple[str, int]]) -> None:
        """Compute the baselines the runs' plans are drawn over."""
        for workload_name in dict.fromkeys(name for name, _ in keys):
            self.baseline(workload_name)


#: Harness the pool workers run keys on.  Under ``fork`` the parent sets
#: it, pre-warmed, before the pool starts and children inherit it; under
#: ``spawn`` the initializer rebuilds it from the config in each worker.
_WORKER_HARNESS: Any = None


def _init_worker(config: AnyCampaignConfig) -> None:
    global _WORKER_HARNESS
    if _WORKER_HARNESS is None:
        _WORKER_HARNESS = config.harness()


def _run_key(key: Tuple[Any, ...]) -> AnyOutcome:
    return _WORKER_HARNESS.run_seed(*key)


def _pool_map(config: AnyCampaignConfig, harness: Any,
              keys: List[Tuple[Any, ...]], workers: int) -> Iterator[AnyOutcome]:
    """Run every key across ``workers`` processes; yield in run order."""
    # Imported here: the in-process campaign loop should not pay for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _WORKER_HARNESS
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    if context.get_start_method() == "fork":
        harness.warm(keys)
    _WORKER_HARNESS = harness
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(keys)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(config,),
        ) as pool:
            yield from pool.map(_run_key, keys)
    finally:
        _WORKER_HARNESS = None


def run_campaign(
    config: AnyCampaignConfig,
    on_outcome: Optional[Callable[[AnyOutcome], None]] = None,
    workers: int = 1,
) -> CampaignResult:
    """Run a full campaign; shrink and report every violating run.

    ``config`` is a :class:`CampaignConfig` or a
    :class:`~repro.fleet.chaos.FleetCampaignConfig`.  With ``workers > 1``
    the runs execute across that many processes; the result is the same
    as the in-process one, outcome for outcome.  ``on_outcome`` fires in
    this process, in run order, as each outcome arrives.
    """
    if workers < 1:
        raise ChaosError(f"workers must be at least 1, got {workers}")
    harness = config.harness()
    keys = config.run_keys()
    if workers == 1 or len(keys) == 1:
        outcomes: Iterator[AnyOutcome] = starmap(harness.run_seed, keys)
    else:
        outcomes = _pool_map(config, harness, keys, workers)
    result = CampaignResult(config=config)
    for outcome in outcomes:
        result.outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)
    # Shrinking re-runs one plan after another, so it stays in this
    # process and in run order whatever ``workers`` is.
    for outcome in result.outcomes:
        if outcome.ok:
            continue
        if config.shrink_failures and len(outcome.plan) > 0:
            shrunk = shrink_plan(
                outcome.plan,
                harness.reproducer(outcome),
                max_probes=config.max_shrink_probes,
            )
        else:
            shrunk = ShrinkResult(
                minimal=outcome.plan, probes=0, budget_exhausted=False,
            )
        result.failures.append(ShrunkFailure(
            outcome=outcome,
            shrink=shrunk,
            replay_command=harness.replay_command(outcome),
        ))
    return result
