"""Fleet chaos: seeded rack-level fault campaigns and their invariants.

The single-machine chaos layer (:mod:`repro.chaos`) hardens one run on
one machine.  This module does the same one level up: a campaign of
seeded fleet runs, each under a random **fleet-level** fault plan
(device losses, per-tenant fault storms), judged against two
rack-level guarantees:

* **Termination** — every admitted job terminates in *exactly one* of
  {completed, degraded, shed-with-error}; a shed is always typed
  (reason + error class), never silent; nothing is double-counted or
  lost.
* **Tenant isolation** — faults aimed at tenant A never perturb tenant
  B's run signatures.  Every tenant that no
  ``TENANT_FAULT_INJECTION`` targeted must receive exactly the
  fault-free signature for each job that ran.

The campaign runs through the same driver as the single-machine one
(:func:`repro.chaos.campaign.run_campaign`): violating plans are
minimised with the same ddmin shrinker and reported with the exact CLI
command that replays them.  Profiles are cached across the whole
campaign, so shrink probes re-run only the cheap outer DES.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..chaos.invariants import InvariantViolation
from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import FleetError, TenantIsolationError
from ..faults.spec import FaultKind, FaultPlan, FaultSpec
from .fleet import (
    DEFAULT_FLEET_SCALE,
    Fleet,
    FleetConfig,
    FleetReport,
    device_names,
)
from .profiles import ProfileStore
from .traffic import TenantSpec, default_tenants

__all__ = [
    "FleetCampaignConfig",
    "FleetChaosOutcome",
    "FleetHarness",
    "check_fleet_invariants",
    "raise_for_violations",
    "random_fleet_plan",
]

#: The terminal statuses the termination invariant admits.
_TERMINAL_STATUSES = ("completed", "degraded", "shed")


def random_fleet_plan(
    seed: int,
    horizon_s: float,
    device_count: int,
    tenant_names: Tuple[str, ...],
    count: int = 2,
) -> FaultPlan:
    """A deterministic fleet-level fault plan from a seed.

    Draws only :data:`~repro.faults.spec.FLEET_KINDS`: device losses
    (sometimes rejoining, sometimes gone for good) and per-tenant fault
    windows wide enough to catch dispatches.  A private
    :class:`random.Random` keyed on the seed alone makes the same
    arguments always yield the same plan.
    """
    if horizon_s <= 0:
        raise FleetError(f"horizon_s must be positive, got {horizon_s}")
    if count < 1:
        raise FleetError(f"count must be at least 1, got {count}")
    if not tenant_names:
        raise FleetError("tenant_names must not be empty")
    rng = random.Random(f"fleet-plan:{seed}")
    devices = device_names(device_count)
    specs: List[FaultSpec] = []
    for _ in range(count):
        if rng.random() < 0.5:
            # Half of rack faults are device losses; half of those
            # rejoin after a window (a reboot), the rest never return.
            rejoins = rng.random() < 0.5
            specs.append(FaultSpec(
                kind=FaultKind.DEVICE_LOST_MID_JOB,
                at_time=rng.uniform(0.05, 0.8) * horizon_s,
                target=rng.choice(devices),
                duration_s=(
                    rng.uniform(0.1, 0.3) * horizon_s if rejoins else 0.0
                ),
            ))
        else:
            specs.append(FaultSpec(
                kind=FaultKind.TENANT_FAULT_INJECTION,
                at_time=rng.uniform(0.05, 0.6) * horizon_s,
                target=rng.choice(sorted(tenant_names)),
                duration_s=rng.uniform(0.2, 0.5) * horizon_s,
                count=rng.randint(1, 3),
            ))
    return FaultPlan(specs=tuple(specs), seed=seed)


def check_fleet_invariants(
    report: FleetReport,
    plan: FaultPlan,
    profiles: ProfileStore,
) -> List[InvariantViolation]:
    """All rack-level invariant violations of one fleet run."""
    violations: List[InvariantViolation] = []

    # 1. Termination: every arrival has exactly one outcome (the report
    #    builder already guarantees at-least/at-most once; re-check the
    #    universe of statuses and the typed-shed rule here, where the
    #    campaign can see it).
    seen_ids = [outcome.job_id for outcome in report.outcomes]
    if len(seen_ids) != len(set(seen_ids)):
        violations.append(InvariantViolation(
            "job-termination", "an arrival owns more than one outcome",
        ))
    if len(seen_ids) != report.job_count:
        violations.append(InvariantViolation(
            "job-termination",
            f"{report.job_count} job(s) arrived but "
            f"{len(seen_ids)} outcome(s) were recorded",
        ))
    for outcome in report.outcomes:
        if outcome.status not in _TERMINAL_STATUSES:
            violations.append(InvariantViolation(
                "job-termination",
                f"job {outcome.job_id} ended in unknown status "
                f"{outcome.status!r}",
            ))
        if outcome.status == "shed" and (
            outcome.reason is None or outcome.error is None
        ):
            violations.append(InvariantViolation(
                "job-termination",
                f"job {outcome.job_id} was shed silently "
                f"(reason={outcome.reason!r}, error={outcome.error!r})",
            ))
        if outcome.status != "shed" and outcome.signature is None:
            violations.append(InvariantViolation(
                "job-termination",
                f"job {outcome.job_id} finished without a run signature",
            ))

    # 2. Tenant isolation: tenants no fault targeted get the fault-free
    #    signature on every job that ran.  (Device losses may delay or
    #    degrade a bystander's jobs — resume/replay relocates work —
    #    but the *result* must be the baseline result.)
    targeted = {
        spec.target for spec in plan
        if spec.kind is FaultKind.TENANT_FAULT_INJECTION
    }
    for outcome in report.outcomes:
        if outcome.tenant in targeted or outcome.signature is None:
            continue
        expected = profiles.baseline(outcome.workload).signature
        if tuple(outcome.signature) != tuple(expected):
            violations.append(InvariantViolation(
                "tenant-isolation",
                f"tenant {outcome.tenant!r} was not targeted by any fault "
                f"but job {outcome.job_id} ({outcome.workload}) returned "
                f"signature {outcome.signature} instead of the fault-free "
                f"{expected}",
            ))

    # 3. Clock sanity: the outer DES must be as monotone as the inner
    #    sim — finishes after arrivals, non-negative waits.
    for outcome in report.outcomes:
        if outcome.finish_time < outcome.arrival_time:
            violations.append(InvariantViolation(
                "fleet-clock-monotonic",
                f"job {outcome.job_id} finished at {outcome.finish_time} "
                f"before arriving at {outcome.arrival_time}",
            ))
        wait = outcome.queue_wait_s
        if wait is not None and wait < 0:
            violations.append(InvariantViolation(
                "fleet-clock-monotonic",
                f"job {outcome.job_id} has negative queue wait {wait}",
            ))

    return violations


def raise_for_violations(violations: List[InvariantViolation]) -> None:
    """Raise the typed error matching the worst violation, if any.

    Isolation breaches raise :class:`~repro.errors.TenantIsolationError`;
    anything else raises :class:`~repro.errors.FleetError`.  Campaigns
    collect violations as data instead; this is for callers that want
    an exception (e.g. library users wrapping a single run).
    """
    if not violations:
        return
    rendered = "; ".join(v.render() for v in violations)
    if any(v.name == "tenant-isolation" for v in violations):
        raise TenantIsolationError(rendered)
    raise FleetError(rendered)


@dataclass(frozen=True)
class FleetChaosOutcome:
    """One seeded fleet experiment, judged."""

    seed: int
    plan: FaultPlan
    violations: Tuple[InvariantViolation, ...]
    completed: int
    degraded: int
    shed: int
    makespan_s: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "fleet_faults": len(self.plan),
            "completed": self.completed,
            "degraded": self.degraded,
            "shed": self.shed,
            "makespan_s": self.makespan_s,
            "violations": [v.render() for v in self.violations],
        }

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": "fleet-chaos-run"}
        payload.update(self.summary())
        return payload

    def failure_key(self) -> Dict[str, Any]:
        """The fields that name this run in a failure report."""
        return {"seed": self.seed}

    def failure_title(self) -> str:
        return f"FLEET FAILURE: seed={self.seed}"


@dataclass(frozen=True)
class FleetCampaignConfig:
    """What to throw at the rack, and how hard."""

    runs: int = 100
    device_count: int = 4
    tenants: Tuple[TenantSpec, ...] = field(default_factory=default_tenants)
    job_count: int = 24
    base_seed: int = 0
    #: Fleet-level faults per run.
    fault_count: int = 2
    target_load: float = 0.7
    scale: float = DEFAULT_FLEET_SCALE
    system_config: SystemConfig = DEFAULT_CONFIG
    shrink_failures: bool = True
    max_shrink_probes: int = 128
    #: Plant the cross-tenant residue bug the campaign must catch.
    no_isolation: bool = False

    def __post_init__(self) -> None:
        # "0 runs, all invariants held" must never gate anything green.
        if self.runs < 1:
            raise FleetError(f"runs must be at least 1, got {self.runs}")
        if self.fault_count < 1:
            raise FleetError(
                f"fault_count must be at least 1, got {self.fault_count}"
            )

    # --- what the campaign driver asks of a config -------------------------

    experiment: ClassVar[str] = "fleet-chaos-campaign"
    held: ClassVar[str] = "all fleet invariants held"

    def harness(self) -> FleetHarness:
        return FleetHarness(self)

    def run_keys(self) -> List[Tuple[int]]:
        """``(seed,)`` of every run, in run order."""
        return [(self.base_seed + run,) for run in range(self.runs)]

    def headline(self, outcomes: Sequence[FleetChaosOutcome]) -> List[str]:
        runs = len(outcomes)
        return [
            f"fleet chaos campaign: {runs} run(s), "
            f"{self.device_count} device(s), {len(self.tenants)} tenant(s), "
            f"seeds {self.base_seed}..{self.base_seed + max(runs - 1, 0)}",
            f"  jobs/run        : {self.job_count}",
            f"  completed       : {sum(o.completed for o in outcomes)}",
            f"  degraded        : {sum(o.degraded for o in outcomes)}",
            f"  shed            : {sum(o.shed for o in outcomes)}",
        ]

    def summary_fields(self, outcomes: Sequence[FleetChaosOutcome]) -> Dict[str, Any]:
        return {
            "device_count": self.device_count,
            "tenants": [t.name for t in self.tenants],
            "job_count": self.job_count,
            "base_seed": self.base_seed,
            "completed": sum(o.completed for o in outcomes),
            "degraded": sum(o.degraded for o in outcomes),
            "shed": sum(o.shed for o in outcomes),
        }


class FleetHarness:
    """Builds and judges seeded fleet runs for one campaign setting.

    One :class:`~repro.fleet.profiles.ProfileStore` is shared across
    every run and every shrink probe, so each distinct (workload,
    inner-plan) ActivePy run is paid for once and replays hit only the
    outer discrete-event simulation.
    """

    def __init__(self, config: FleetCampaignConfig) -> None:
        self.config = config
        self.profiles = ProfileStore(
            system_config=config.system_config, scale=config.scale,
        )
        self._resolved: Optional[Tuple[TenantSpec, ...]] = None
        self._horizon: Optional[float] = None

    def fleet_config(self, seed: int, plan: FaultPlan) -> FleetConfig:
        return FleetConfig(
            device_count=self.config.device_count,
            tenants=self.config.tenants,
            job_count=self.config.job_count,
            seed=seed,
            target_load=self.config.target_load,
            scale=self.config.scale,
            system_config=self.config.system_config,
            plan=plan,
            no_isolation=self.config.no_isolation,
        )

    def _resolved_tenants(self) -> Tuple[TenantSpec, ...]:
        if self._resolved is None:
            probe = Fleet(
                self.fleet_config(seed=0, plan=FaultPlan()),
                profiles=self.profiles,
            )
            self._resolved = probe.resolve_tenants()
        return self._resolved

    def horizon_s(self) -> float:
        """The expected arrival span — where fleet faults are aimed.

        ``job_count / aggregate arrival rate``, padded 20%: losses and
        windows land while traffic is still flowing, not after the rack
        has gone quiet.
        """
        if self._horizon is None:
            tenants = self._resolved_tenants()
            aggregate = sum(t.rate_jobs_per_s for t in tenants)
            self._horizon = 1.2 * self.config.job_count / aggregate
        return self._horizon

    def plan_for(self, seed: int) -> FaultPlan:
        """The deterministic fleet plan run ``seed`` uses."""
        return random_fleet_plan(
            seed=seed,
            horizon_s=self.horizon_s(),
            device_count=self.config.device_count,
            tenant_names=tuple(t.name for t in self.config.tenants),
            count=self.config.fault_count,
        )

    def run_plan(self, plan: FaultPlan,
                 seed: Optional[int] = None) -> FleetChaosOutcome:
        """Run one fleet under one plan and judge the rack invariants."""
        used_seed = plan.seed if seed is None else seed
        fleet = Fleet(
            self.fleet_config(seed=used_seed, plan=plan),
            profiles=self.profiles,
        )
        try:
            report = fleet.run()
        except Exception as exc:  # noqa: BLE001 — the invariant under test
            return FleetChaosOutcome(
                seed=used_seed,
                plan=plan,
                violations=(InvariantViolation(
                    "no-unhandled-exception",
                    f"{type(exc).__name__}: {exc}",
                ),),
                completed=0,
                degraded=0,
                shed=0,
                makespan_s=0.0,
            )
        violations = check_fleet_invariants(report, plan, self.profiles)
        return FleetChaosOutcome(
            seed=used_seed,
            plan=plan,
            violations=tuple(violations),
            completed=report.completed,
            degraded=report.degraded,
            shed=report.shed,
            makespan_s=report.makespan_s,
        )

    def run_seed(self, seed: int) -> FleetChaosOutcome:
        """One fully seeded fleet experiment (the replay entry point)."""
        return self.run_plan(self.plan_for(seed), seed=seed)

    # --- what the campaign driver asks of a harness ------------------------

    def reproducer(self, outcome: FleetChaosOutcome) -> Callable[[FaultPlan], bool]:
        """Predicate for the shrinker: does this fleet plan still violate?

        Shrink probes keep the run's own traffic seed fixed so only the
        plan varies — the predicate is a pure function of the plan.
        """
        def reproduces(candidate: FaultPlan) -> bool:
            return not self.run_plan(candidate, seed=outcome.seed).ok
        return reproduces

    def replay_command(self, outcome: FleetChaosOutcome) -> str:
        """The CLI command that replays ``outcome``'s seeded fleet run."""
        config = self.config
        parts = [
            "python -m repro chaos --fleet",
            "--runs 1",
            f"--seed {outcome.seed}",
            f"--devices {config.device_count}",
            f"--tenants {len(config.tenants)}",
            f"--jobs {config.job_count}",
            f"--fault-count {config.fault_count}",
        ]
        if config.scale != DEFAULT_FLEET_SCALE:
            parts.append(f"--scale {config.scale}")
        if config.no_isolation:
            parts.append("--no-isolation")
        return " ".join(parts)

    def warm(self, keys: Sequence[Tuple[int]]) -> None:
        """Resolve the tenants and the horizon every plan is drawn over."""
        self.horizon_s()
