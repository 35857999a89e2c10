"""Job profiles: what one ActivePy run costs, measured by running it.

The fleet scheduler needs, for every job it places, the job's service
time, its checkpoint resume points, and the run signature its tenant is
owed.  All three come from **actually running** the workload through
:class:`~repro.runtime.activepy.ActivePy` on a fresh single-machine
platform — the fleet never invents numbers the single-machine stack
would not produce.  Profiles are content-addressed by ``(workload,
inner fault plan)`` and cached, so a campaign (and especially the
shrinker's many probes) pays for each distinct inner run exactly once.

A job under a :data:`~repro.faults.spec.FaultKind.TENANT_FAULT_INJECTION`
window profiles against the derived inner :class:`FaultPlan`: the inner
machine's own recovery machinery (chunk replay, host fallback,
checkpoint restore) decides whether the job degrades — the fleet just
reads the verdict off the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..chaos.invariants import run_signature
from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import FleetError
from ..faults.spec import LOUD_KINDS, FaultPlan
from ..hw.topology import build_machine
from ..runtime.activepy import ActivePy, RunOptions
from ..workloads import get_workload, workload_names

__all__ = ["JobProfile", "ProfileStore"]


@dataclass(frozen=True)
class JobProfile:
    """The fleet-visible shape of one (workload, inner-fault) run."""

    workload: str
    #: End-to-end simulated service seconds (sampling + compile + run).
    service_seconds: float
    #: Resumable offsets into the service time, one per completed line
    #: boundary (ascending, exclusive of 0 and of the total).  Empty
    #: when checkpointing is disabled — every failover then replans
    #: from scratch.
    checkpoint_boundaries: Tuple[float, ...]
    #: The single-machine run signature (program, line order, digest)
    #: the tenant's report must carry.
    signature: Tuple
    #: True when the inner run itself had to degrade (host fallback
    #: under its injected faults) — the fleet outcome inherits this.
    degraded: bool
    #: Fault events the inner run logged (injections + recoveries).
    fault_event_count: int

    def resume_point(self, progress_s: float) -> float:
        """The durable offset to resume from after losing a device.

        The largest checkpoint boundary at or below ``progress_s``;
        0.0 (replan from scratch) when no boundary was reached.
        """
        best = 0.0
        for boundary in self.checkpoint_boundaries:
            if boundary <= progress_s:
                best = boundary
            else:
                break
        return best


class ProfileStore:
    """Measured :class:`JobProfile`\\ s, cached per (workload, plan)."""

    def __init__(
        self,
        system_config: SystemConfig = DEFAULT_CONFIG,
        scale: float = 2 ** -6,
    ) -> None:
        if not 0 < scale <= 1:
            raise FleetError(f"scale must lie in (0, 1], got {scale}")
        self.system_config = system_config
        self.scale = scale
        self._profiles: Dict[Tuple[str, str], JobProfile] = {}
        self._baseline_reports: Dict[str, object] = {}
        #: Inner ActivePy runs actually executed (cache misses).
        self.runs = 0

    @staticmethod
    def _plan_key(plan: Optional[FaultPlan]) -> str:
        if plan is None or len(plan) == 0:
            return "fault-free"
        return json.dumps(plan.to_jsonable(), sort_keys=True)

    def profile(
        self, workload_name: str, plan: Optional[FaultPlan] = None
    ) -> JobProfile:
        """The measured profile of ``workload_name`` under ``plan``."""
        key = (workload_name, self._plan_key(plan))
        profile = self._profiles.get(key)
        if profile is None:
            # Only a known name is ever cached, so a hit needs no check.
            if workload_name not in workload_names():
                raise FleetError(f"unknown workload {workload_name!r}")
            profile = self._profiles[key] = self._measure(workload_name, plan)
        return profile

    def baseline(self, workload_name: str) -> JobProfile:
        """The fault-free profile — the signature every tenant is owed."""
        return self.profile(workload_name, None)

    def mean_service_seconds(self, workload_rotation: Tuple[str, ...]) -> float:
        """Mean fault-free service time across a workload rotation."""
        if not workload_rotation:
            raise FleetError("workload rotation must not be empty")
        profiles = [self.baseline(name) for name in workload_rotation]
        return sum(p.service_seconds for p in profiles) / len(profiles)

    def inner_plan(self, workload_name: str, seed: int, count: int) -> FaultPlan:
        """A deterministic loud inner plan aimed at a workload's run window.

        Mirrors the single-machine chaos harness: faults are drawn past
        most of the sampling/compile prefix so they land where chunks
        are in flight, from the frozen :data:`LOUD_KINDS` pool.
        """
        baseline = self._baseline_report(workload_name)
        offset = 0.8 * baseline.overhead_seconds
        return FaultPlan.random(
            seed=seed,
            horizon_s=baseline.total_seconds - offset,
            count=count,
            offset_s=offset,
            kinds=LOUD_KINDS,
        )

    # --- measurement ------------------------------------------------------

    def _report(self, workload_name: str, plan: Optional[FaultPlan]):
        workload = get_workload(workload_name, scale=self.scale)
        machine = build_machine(self.system_config)
        self.runs += 1
        return ActivePy(self.system_config).run(
            workload.program, workload.dataset, machine=machine,
            options=RunOptions(fault_plan=plan),
        )

    def _baseline_report(self, workload_name: str):
        """The cached fault-free report — inner-plan horizons read it."""
        if workload_name not in self._baseline_reports:
            self._baseline_reports[workload_name] = self._report(
                workload_name, None
            )
        return self._baseline_reports[workload_name]

    def _measure(
        self, workload_name: str, plan: Optional[FaultPlan]
    ) -> JobProfile:
        if plan is None or len(plan) == 0:
            report = self._baseline_report(workload_name)
        else:
            report = self._report(workload_name, plan)
        result = report.result
        boundaries: Tuple[float, ...] = ()
        if self.system_config.checkpoint_enabled:
            # PR 2 checkpoints are line-boundary records: after each
            # line completes, its outputs are durable in BAR memory.
            # The resumable offsets are therefore the cumulative time
            # through each completed line (the sampling/compile prefix
            # included — a resume re-uses the committed plan and code).
            elapsed = report.overhead_seconds
            cumulative = []
            for timing in result.line_timings[:-1]:
                elapsed += timing.seconds
                cumulative.append(elapsed)
            boundaries = tuple(cumulative)
        return JobProfile(
            workload=workload_name,
            service_seconds=report.total_seconds,
            checkpoint_boundaries=boundaries,
            signature=run_signature(report),
            degraded=result.degraded,
            fault_event_count=len(result.fault_events),
        )
