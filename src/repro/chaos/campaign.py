"""The chaos campaign runner.

A campaign is a loop of seeded experiments: run ``r`` picks workload
``workloads[r % len(workloads)]`` and seed ``base_seed + r``, generates
a random :class:`FaultPlan` over the workload's fault-free horizon,
runs the workload on a **fresh machine** under that plan, and checks
the :mod:`~repro.chaos.invariants`.  On a violation the plan is shrunk
(:mod:`~repro.chaos.shrink`) and the failure is reported with the exact
CLI command that replays it.

Everything is derived from ``(workload, seed, fault_count, scale,
config)``, so a reported failure replays bit-for-bit on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import ChaosError
from ..faults.spec import LOUD_KINDS, SILENT_KINDS, FaultPlan
from ..hw.topology import build_machine
from ..obs import Observability
from ..runtime.activepy import ActivePy, ActivePyReport, RunOptions
from ..workloads import get_workload
from .invariants import InvariantViolation, check_invariants
from .shrink import ShrinkResult, render_plan, shrink_plan

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


@dataclass(frozen=True)
class ShrunkFailure:
    """A violating run distilled to its minimal reproducing plan."""

    outcome: ChaosRunOutcome
    shrink: ShrinkResult
    replay_command: str

    def render(self) -> str:
        lines = [
            f"FAILURE: {self.outcome.workload} seed={self.outcome.seed}",
        ]
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


@dataclass
class CampaignResult:
    """Every outcome plus the shrunk failures, ready to render."""

    config: CampaignConfig
    outcomes: List[ChaosRunOutcome] = field(default_factory=list)
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
        degraded = sum(1 for o in self.outcomes if o.degraded)
        lines = [
            f"chaos campaign: {self.runs} run(s) across "
            f"{len(self.config.workloads)} workload(s), "
            f"seeds {self.config.base_seed}.."
            f"{self.config.base_seed + max(self.runs - 1, 0)}",
            f"  fault events    : "
            f"{sum(o.fault_event_count for o in self.outcomes)}",
            f"  degraded runs   : {degraded}/{self.runs}",
            f"  violations      : {self.violations}",
        ]
        for failure in self.failures:
            lines.append("")
            lines.append(failure.render())
        if self.ok:
            lines.append("  all invariants held")
        return "\n".join(lines)

    # --- the common report protocol (see analysis/export.py) ---------------

    def summary(self) -> Dict[str, Any]:
        """Campaign headline: pass/fail counts, JSON-ready."""
        return {
            "runs": self.runs,
            "ok": self.ok,
            "violations": self.violations,
            "failures": len(self.failures),
            "fault_event_count": sum(
                o.fault_event_count for o in self.outcomes
            ),
            "degraded_runs": sum(1 for o in self.outcomes if o.degraded),
            "workloads": list(self.config.workloads),
            "base_seed": self.config.base_seed,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": "chaos-campaign"}
        payload.update(self.summary())
        payload["outcomes"] = [o.to_jsonable() for o in self.outcomes]
        payload["failures"] = [
            {
                "workload": f.outcome.workload,
                "seed": f.outcome.seed,
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

    def reproducer(self, workload_name: str) -> Callable[[FaultPlan], bool]:
        """Predicate for the shrinker: does this plan still violate?"""
        def reproduces(candidate: FaultPlan) -> bool:
            return not self.run_plan(workload_name, candidate).ok
        return reproduces


def replay_command(outcome: ChaosRunOutcome, config: CampaignConfig) -> str:
    parts = [
        "python -m repro chaos",
        f"--workload {outcome.workload}",
        f"--seed {outcome.seed}",
        f"--fault-count {config.fault_count}",
    ]
    if config.scale != DEFAULT_SCALE:
        parts.append(f"--scale {config.scale}")
    if not config.system_config.checkpoint_validate:
        parts.append("--no-validate")
    if config.silent_corruption:
        parts.append("--sdc")
    if (config.system_config.integrity_enabled
            and not config.system_config.integrity_verify):
        parts.append("--no-verify")
    return " ".join(parts)


def run_campaign(
    config: CampaignConfig,
    on_outcome: Optional[Callable[[ChaosRunOutcome], None]] = None,
) -> CampaignResult:
    """Run a full campaign; shrink and report every violating run."""
    harness = ChaosHarness(
        system_config=config.system_config,
        scale=config.scale,
        fault_count=config.fault_count,
        collect_metrics=config.collect_metrics,
        silent_corruption=config.silent_corruption,
    )
    result = CampaignResult(config=config)
    for run in range(config.runs):
        workload_name = config.workloads[run % len(config.workloads)]
        seed = config.base_seed + run
        outcome = harness.run_seed(workload_name, seed)
        result.outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)
        if outcome.ok:
            continue
        if config.shrink_failures and len(outcome.plan) > 0:
            shrunk = shrink_plan(
                outcome.plan,
                harness.reproducer(workload_name),
                max_probes=config.max_shrink_probes,
            )
        else:
            shrunk = ShrinkResult(
                minimal=outcome.plan, probes=0, budget_exhausted=False,
            )
        result.failures.append(ShrunkFailure(
            outcome=outcome,
            shrink=shrunk,
            replay_command=replay_command(outcome, config),
        ))
    return result
