"""The fleet: N simulated CSD machines behind one front-end scheduler.

A :class:`Fleet` is a deterministic two-level simulation.  The inner
level is the real single-machine stack — every job's service time,
checkpoint boundaries, degradation verdict, and run signature are
measured by actually running its workload through
:class:`~repro.runtime.activepy.ActivePy` (see
:mod:`~repro.fleet.profiles`).  The outer level is a discrete-event
loop over those measured profiles: seeded open-loop arrivals
(:mod:`~repro.fleet.traffic`) flow through per-tenant admission control
(:mod:`~repro.fleet.admission`), get placed on free devices, and
terminate — **every admitted job, exactly once** — as completed,
degraded, or shed-with-a-typed-error.

Fleet-level faults (:data:`~repro.faults.spec.FLEET_KINDS`) land here,
not on any machine's injector:

* ``DEVICE_LOST_MID_JOB`` drains the victim device; its in-flight job
  fails over to a survivor, resuming from the largest line-boundary
  checkpoint it had reached (replanning from scratch when checkpointing
  is off or no boundary was reached), under a retry budget with
  seeded exponential backoff + jitter.
* ``TENANT_FAULT_INJECTION`` makes the targeted tenant's jobs
  dispatched inside the window run under a derived inner
  :class:`~repro.faults.spec.FaultPlan` — the single-machine recovery
  stack absorbs those faults, and the isolation invariant checks the
  blast radius stayed inside the targeted tenant.

``no_isolation=True`` plants a deliberate bug for the chaos campaign
to catch: the scheduler stops scrubbing per-job device state between
tenants, so a device that just served a faulted job leaks *residue*
into the next job's output digest — a cross-tenant signature
perturbation the tenant-isolation invariant must detect and the
shrinker must reduce to a 1-minimal plan.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Any, Dict, List, Optional, Tuple

from ..config import DEFAULT_CONFIG, SystemConfig
from ..errors import AdmissionError, FleetError
from ..faults.spec import FLEET_KINDS, FaultKind, FaultPlan
from ..obs import (
    AlertEvent, AlertRule, FlightRecorder, Observability, Span, evaluate_alerts,
)
from ..obs.timeseries import KIND_GAUGE, KIND_RATE, KIND_SAMPLES
from ..sim import EventHandle, Simulator
from .admission import (
    SHED_NO_DEVICES,
    SHED_OVERLOAD,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_RETRY_BUDGET,
    AdmissionController,
    QueuedJob,
)
from .profiles import JobProfile, ProfileStore
from .slo import SloSnapshot
from .traffic import JobArrival, TenantSpec, TrafficGenerator, default_tenants

__all__ = [
    "DEFAULT_ALERT_CONSECUTIVE",
    "DEFAULT_FLEET_SCALE",
    "DEFAULT_SLO_MULTIPLE",
    "SLO_ERROR_BUDGET",
    "FleetConfig",
    "FleetReport",
    "Fleet",
    "JobOutcome",
    "device_names",
]

#: Default fleet scale — matches the single-machine chaos campaign's
#: DEFAULT_SCALE so profiles are real but a 100-seed campaign is cheap.
DEFAULT_FLEET_SCALE = 2 ** -6

#: Terminal job statuses — the termination invariant's universe.
STATUS_COMPLETED = "completed"
STATUS_DEGRADED = "degraded"
STATUS_SHED = "shed"

#: Default end-to-end SLO target, as a multiple of the tenant's slowest
#: baseline service time.  A clean, un-overloaded fleet keeps queue
#: waits well under one service time, so the sliding-window p99 stays
#: below this; sustained breaches mean real contention (a lost device,
#: a hot tenant), which is exactly what the default alert rules watch.
DEFAULT_SLO_MULTIPLE = 3.0

#: Consecutive breaching points before the default SLO alert fires.
DEFAULT_ALERT_CONSECUTIVE = 4

#: The SLO error budget the burn-rate series is normalised against: a
#: p99 target tolerates 1% of samples over it, so ``burn = fraction
#: over target / 0.01`` — burn > 1.0 means the budget is being spent
#: faster than it accrues.
SLO_ERROR_BUDGET = 0.01


def device_names(count: int) -> Tuple[str, ...]:
    """The fleet's device names: ``csd``, ``csd1``, ``csd2``, ...

    The same naming :func:`~repro.hw.topology.build_machine` uses for
    multi-CSD platforms, so fleet fault targets read like device names
    everywhere else in the stack.
    """
    if count < 1:
        raise FleetError(f"device count must be at least 1, got {count}")
    return tuple("csd" if i == 0 else f"csd{i}" for i in range(count))


@dataclass(frozen=True)
class FleetConfig:
    """Everything a fleet run is derived from.  Same config, same run."""

    device_count: int = 4
    tenants: Tuple[TenantSpec, ...] = field(default_factory=default_tenants)
    #: Jobs drawn from the traffic generator (arrivals, pre-admission).
    job_count: int = 24
    seed: int = 0
    #: Aggregate offered load as a fraction of fleet service capacity;
    #: used to resolve tenant rates left ``None``.
    target_load: float = 0.7
    #: Fleet-wide queued-job ceiling before graceful degradation sheds
    #: best-effort work.  ``None`` = ``4 * device_count``.
    overload_watermark: Optional[int] = None
    #: Failover resubmissions a job may consume before it is shed.
    max_retries: int = 3
    #: Exponential backoff base for failover retries (simulated s).
    backoff_base_s: float = 0.05
    #: Uniform jitter fraction applied on top of the backoff.
    backoff_jitter: float = 0.25
    #: Workload scale factor for the inner profiling runs.
    scale: float = DEFAULT_FLEET_SCALE
    system_config: SystemConfig = DEFAULT_CONFIG
    #: Fleet-level faults only (:data:`FLEET_KINDS`); machine-level
    #: kinds belong in an inner plan, not here.
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Inner faults per job inside a TENANT_FAULT_INJECTION window
    #: (overridden by the spec's own ``count``).
    tenant_fault_count: int = 2
    #: Plant the cross-tenant residue bug (``--no-isolation``).
    no_isolation: bool = False

    def __post_init__(self) -> None:
        if self.device_count < 1:
            raise FleetError(
                f"device_count must be at least 1, got {self.device_count}"
            )
        if self.job_count < 1:
            raise FleetError(f"job_count must be at least 1, got {self.job_count}")
        if not 0 < self.target_load:
            raise FleetError(
                f"target_load must be positive, got {self.target_load}"
            )
        if self.max_retries < 0:
            raise FleetError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.backoff_base_s <= 0:
            raise FleetError(
                f"backoff_base_s must be positive, got {self.backoff_base_s}"
            )
        if self.backoff_jitter < 0:
            raise FleetError(
                f"backoff_jitter must be non-negative, got {self.backoff_jitter}"
            )
        if self.overload_watermark is not None and self.overload_watermark < 1:
            raise FleetError(
                f"overload_watermark must be at least 1, "
                f"got {self.overload_watermark}"
            )
        names = set(device_names(self.device_count))
        for spec in self.plan:
            if spec.kind not in FLEET_KINDS:
                raise FleetError(
                    f"{spec.kind.value} is a machine-level fault; a fleet "
                    f"plan takes fleet kinds only "
                    f"({', '.join(k.value for k in FLEET_KINDS)})"
                )
            if (
                spec.kind is FaultKind.DEVICE_LOST_MID_JOB
                and spec.target not in names
            ):
                raise FleetError(
                    f"DEVICE_LOST_MID_JOB target {spec.target!r} is not one "
                    f"of this fleet's devices {sorted(names)}"
                )

    @property
    def watermark(self) -> int:
        return (
            self.overload_watermark
            if self.overload_watermark is not None
            else 4 * self.device_count
        )


@dataclass(frozen=True)
class JobOutcome:
    """One job's terminal state — exactly one per arrival, always typed.

    ``status`` is one of ``completed`` / ``degraded`` / ``shed``.  Shed
    outcomes always carry ``reason`` and ``error`` (the typed error's
    class name); they are never silent.
    """

    job_id: int
    tenant: str
    workload: str
    priority: int
    status: str
    arrival_time: float
    finish_time: float
    admitted: bool
    reason: Optional[str] = None
    error: Optional[str] = None
    device: Optional[str] = None
    first_dispatch_time: Optional[float] = None
    retries: int = 0
    resumed_from_s: float = 0.0
    inner_faults: int = 0
    signature: Optional[Tuple] = None

    @property
    def queue_wait_s(self) -> Optional[float]:
        if self.first_dispatch_time is None:
            return None
        return self.first_dispatch_time - self.arrival_time

    @property
    def end_to_end_s(self) -> float:
        return self.finish_time - self.arrival_time

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "workload": self.workload,
            "priority": self.priority,
            "status": self.status,
            "arrival_time": self.arrival_time,
            "finish_time": self.finish_time,
            "admitted": self.admitted,
            "reason": self.reason,
            "error": self.error,
            "device": self.device,
            "first_dispatch_time": self.first_dispatch_time,
            "retries": self.retries,
            "resumed_from_s": self.resumed_from_s,
            "inner_faults": self.inner_faults,
            "signature": list(self.signature) if self.signature else None,
        }


@dataclass(frozen=True)
class FleetReport:
    """What a fleet run did, end to end.  JSON-ready and renderable."""

    device_count: int
    tenant_names: Tuple[str, ...]
    seed: int
    job_count: int
    outcomes: Tuple[JobOutcome, ...]
    slos: Tuple[SloSnapshot, ...]
    #: Simulated time from first arrival to last terminal event.
    makespan_s: float
    #: Jobs that finished (completed or degraded) per simulated second.
    throughput_jobs_per_s: float
    shed_by_reason: Dict[str, int]
    device_events: Tuple[Tuple[float, str, str], ...]
    #: Inner ActivePy runs actually executed (profile cache misses).
    profile_runs: int
    metrics: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: A copy of the run's flight recorder as it stood at run end, when
    #: the run carried one; None otherwise.
    recorder: Optional[FlightRecorder] = field(
        default=None, repr=False, compare=False,
    )
    #: Alerts the default SLO rules raised over the recorded series.
    alerts: Tuple[AlertEvent, ...] = ()
    #: Per-tenant end-to-end SLO targets the alerts were judged against.
    slo_targets: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Chrome-trace raw material, collected only when a tracer was
    #: attached: completed/interrupted dispatches as spans on
    #: their device and failover/retry/shed/device-loss moments as
    #: zero-length ``fleet-event`` spans (rendered as instants).
    trace_spans: Tuple[Span, ...] = field(default=(), repr=False)
    trace_instants: Tuple[Span, ...] = field(default=(), repr=False)

    @cached_property
    def timeline(self) -> Dict[str, Any]:
        """The recorder's dump (``FlightRecorder.to_jsonable()``) when
        the run carried one; empty otherwise.  Built on first use, so a
        run whose report is never dumped does not pay for it."""
        return self.recorder.to_jsonable() if self.recorder is not None else {}

    @cached_property
    def _status_counts(self) -> Dict[str, int]:
        """Outcomes per status, counted in one pass on first use."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def completed(self) -> int:
        return self._status_counts.get(STATUS_COMPLETED, 0)

    @property
    def degraded(self) -> int:
        return self._status_counts.get(STATUS_DEGRADED, 0)

    @property
    def shed(self) -> int:
        return self._status_counts.get(STATUS_SHED, 0)

    def slo_for(self, tenant: str) -> SloSnapshot:
        for snapshot in self.slos:
            if snapshot.tenant == tenant:
                return snapshot
        raise FleetError(f"no SLO snapshot for tenant {tenant!r}")

    def summary(self) -> Dict[str, Any]:
        """The fleet run's headline, JSON-ready."""
        return {
            "device_count": self.device_count,
            "tenants": list(self.tenant_names),
            "seed": self.seed,
            "job_count": self.job_count,
            "completed": self.completed,
            "degraded": self.degraded,
            "shed": self.shed,
            "makespan_s": self.makespan_s,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "profile_runs": self.profile_runs,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": "fleet-run"}
        payload.update(self.summary())
        payload["outcomes"] = [o.to_jsonable() for o in self.outcomes]
        payload["slos"] = [s.to_jsonable() for s in self.slos]
        payload["device_events"] = [list(e) for e in self.device_events]
        if self.metrics:
            payload["metrics"] = self.metrics
        if self.timeline:
            payload["timeline"] = self.timeline
        if self.alerts:
            payload["alerts"] = [a.to_jsonable() for a in self.alerts]
        if self.slo_targets:
            payload["slo_targets"] = dict(sorted(self.slo_targets.items()))
        return payload

    def render(self) -> str:
        lines = [
            f"fleet: {self.device_count} device(s), "
            f"{len(self.tenant_names)} tenant(s), seed {self.seed}",
            f"  jobs      {self.job_count} arrived  "
            f"{self.completed} completed  {self.degraded} degraded  "
            f"{self.shed} shed",
            f"  makespan  {self.makespan_s:.3f}s  "
            f"throughput {self.throughput_jobs_per_s:.3f} jobs/s",
        ]
        for reason, count in sorted(self.shed_by_reason.items()):
            lines.append(f"  shed[{reason}] {count}")
        for at_time, device, what in self.device_events:
            lines.append(f"  device    t={at_time:.3f}s {device} {what}")
        for snapshot in self.slos:
            lines.append("  " + snapshot.render())
        for alert in self.alerts:
            lines.append("  " + alert.render())
        return "\n".join(lines)


class _Device:
    """One logical CSD machine slot in the fleet scheduler."""

    __slots__ = (
        "name", "live", "job", "completion", "dispatched_at", "residue",
        "util_points",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.live = True
        self.job: Optional[QueuedJob] = None
        #: The running job's pending completion.  Losing the device
        #: cancels it, so an interrupted dispatch never finishes.  Set
        #: back to None with ``job``: the handle refers to the run, and
        #: keeping it would leave the run in a reference cycle.
        self.completion: Optional[EventHandle] = None
        self.dispatched_at = 0.0
        #: Tenant whose faulted job last ran here without a scrub —
        #: only ever non-None under the planted ``no_isolation`` bug.
        self.residue: Optional[str] = None
        #: This device's ``fleet.util`` gauge points, written at run end.
        self.util_points: List[Tuple[float, float]] = []


class _FleetRun:
    """One fleet run: its state and one handler per event kind.

    Set-up schedules every arrival and every device loss and rejoin on
    a :class:`~repro.sim.Simulator` the run owns, with observability
    off so no ``sim.*`` counter reaches the fleet's metrics.  The
    handlers schedule only job completions and failover retries, a
    bounded number per job, so the event queue drains by construction.
    """

    def __init__(self, fleet: "Fleet", tenants: Tuple[TenantSpec, ...]) -> None:
        cfg = fleet.config
        self.config = cfg
        self.obs = fleet.obs
        self.profiles = fleet.profiles
        self.tenants = tenants
        self.arrivals = TrafficGenerator(tenants, seed=cfg.seed).schedule(cfg.job_count)
        self.controller = AdmissionController(tenants, overload_watermark=cfg.watermark)
        self.devices = {name: _Device(name) for name in device_names(cfg.device_count)}
        #: Placement takes the first free device in name order.
        self.placement_order = [self.devices[name] for name in sorted(self.devices)]
        self.backoff_rng = random.Random(f"fleet-backoff:{cfg.seed}")
        # The flight recorder, when one is attached.  `rec is None` is
        # the default fast path: every instrumented site guards on it,
        # so a recorder-less run does zero extra wall work — and no
        # site ever touches simulated time, so enabling the recorder
        # leaves the schedule bit-identical (bench_obs pins both).
        # Nothing reads the recorder while the loop runs, so the sites
        # only collect points; `record_timeline` writes each series once.
        self.rec = fleet.obs.timeseries if fleet.obs.enabled else None
        self.targets = fleet.slo_targets(tenants) if self.rec is not None else {}
        self.arrived_points: List[Tuple[float, float]] = []
        self.admitted_points: List[Tuple[float, float]] = []
        self.retry_points: List[Tuple[float, float]] = []
        self.depth_points: List[Tuple[float, float]] = []
        #: Dispatches made; the per-job metrics are derived at run end
        #: from this and the outcomes (`record_metrics`).
        self.dispatches = 0
        self.collect_trace = fleet.obs.tracing
        self.trace_spans: List[Span] = []
        self.trace_instants: List[Span] = []
        self.outcomes: Dict[int, JobOutcome] = {}
        self.device_events: List[Tuple[float, str, str]] = []
        self.first_dispatch: Dict[int, float] = {}

        self.sim = Simulator()
        #: The handlers read the time here, one property instead of two.
        self.clock = self.sim.clock
        for arrival in self.arrivals:
            self.sim.schedule_at(arrival.arrival_time, partial(self.arrive, arrival))
        specs = cfg.plan.sorted_specs()
        for spec in specs:
            if spec.kind is FaultKind.DEVICE_LOST_MID_JOB:
                device = self.devices[spec.target]
                self.sim.schedule_at(spec.at_time, partial(self.device_lost, device))
                if spec.duration_s > 0:
                    self.sim.schedule_at(
                        spec.at_time + spec.duration_s,
                        partial(self.device_rejoined, device),
                    )
        # TENANT_FAULT_INJECTION needs no event: windows are consulted
        # at dispatch time.
        self.tenant_windows = tuple(
            spec for spec in specs
            if spec.kind is FaultKind.TENANT_FAULT_INJECTION
        )

    # --- event handlers -----------------------------------------------------

    def arrive(self, arrival: JobArrival) -> None:
        now = self.clock.now
        if self.rec is not None:
            self.arrived_points.append((now, 1.0))
        reason = self.controller.admit(arrival, now)
        if reason is not None:
            self._terminate(arrival, STATUS_SHED, reason=reason,
                            error=AdmissionError.__name__)
        else:
            if self.rec is not None:
                self.admitted_points.append((now, 1.0))
            for victim in self.controller.shed_overload():
                self._shed(victim, SHED_OVERLOAD, AdmissionError(
                    f"fleet backlog exceeded the overload watermark "
                    f"({self.config.watermark}); lowest-priority work shed"
                ))
        self._settle()

    def job_done(self, device: _Device, profile: JobProfile,
                 inner_plan: Optional[FaultPlan]) -> None:
        job = device.job
        assert job is not None
        arrival = job.arrival
        signature = profile.signature
        tainted_by = device.residue
        tainted = self.config.no_isolation and tainted_by not in (None, arrival.tenant)
        if tainted:
            # The planted bug: the previous faulted job's state was
            # never scrubbed, and it bleeds into this job's output.
            signature = (*signature[:2], f"{signature[2]}+residue:{tainted_by}")
        if not self.config.no_isolation:
            # Correct scheduler: per-job device state is scrubbed
            # between jobs, faulted or not.
            device.residue = None
        elif inner_plan is not None:
            device.residue = arrival.tenant
        degraded = profile.degraded or job.retries > 0 or tainted
        status = STATUS_DEGRADED if degraded else STATUS_COMPLETED
        self._terminate(
            arrival, status, job,
            device=device.name,
            resumed_from_s=job.resume_offset_s,
            inner_faults=len(inner_plan) if inner_plan else 0,
            signature=signature,
        )
        now = self.clock.now
        if self.rec is not None:
            device.util_points.append((now, 0.0))
        if self.collect_trace:
            # Built positionally, args already in sorted key order.
            self.trace_spans.append(Span(
                f"{arrival.workload}#{arrival.job_id}", "job", device.name,
                device.dispatched_at, now,
                (("resumed_from_s", job.resume_offset_s),
                 ("retries", job.retries),
                 ("status", status),
                 ("tenant", arrival.tenant)),
            ))
        device.job = device.completion = None
        self._settle()

    def device_lost(self, device: _Device) -> None:
        if not device.live:
            return
        now = self.clock.now
        device.live = False
        self.device_events.append((now, device.name, "lost"))
        self.obs.count("fleet.device_lost")
        if self.rec is not None:
            device.util_points.append((now, 0.0))
        self._instant("device lost", device.name)
        if device.job is not None:
            self._fail_over(device)
        self._settle()

    def device_rejoined(self, device: _Device) -> None:
        if device.live:
            return
        device.live = True
        device.residue = None  # a rejoin is a clean boot
        self.device_events.append((self.clock.now, device.name, "rejoined"))
        self.obs.count("fleet.device_rejoined")
        self._instant("device rejoined", device.name)
        self._settle()

    def retry_ready(self, job: QueuedJob) -> None:
        self.controller.requeue(job)
        if self.rec is not None:
            self.retry_points.append((self.clock.now, 1.0))
        self._instant(f"retry job {job.arrival.job_id}", "fleet")
        self._settle()

    def shed_stranded(self) -> None:
        """Shed what is still queued once no event is left.

        No live device will ever free up or rejoin, so these jobs can
        never run: shedding them loudly keeps the termination invariant
        honest rather than vacuous.
        """
        for job in self.controller.drain():
            self._shed(job, SHED_NO_DEVICES, FleetError(
                f"job {job.arrival.job_id} was admitted but no live device "
                f"remains to run it"
            ))

    # --- what the handlers share ---------------------------------------------

    def _settle(self) -> None:
        """End every event that acted: place queued jobs, sample the backlog.

        Placement hands the next queued job to each free device in name
        order.  Dispatching frees no device, so one pass over the
        devices does it, and it stops as soon as no job is queued.
        """
        now = self.clock.now
        controller = self.controller
        if controller.total_queued:
            for device in self.placement_order:
                if device.job is None and device.live:
                    self._dispatch(device, controller.next_job(), now)
                    if not controller.total_queued:
                        break
        if self.rec is not None:
            self.depth_points.append((now, float(controller.total_queued)))

    def _dispatch(self, device: _Device, job: QueuedJob, now: float) -> None:
        """Start ``job`` on ``device`` and schedule its completion."""
        arrival = job.arrival
        self.first_dispatch.setdefault(arrival.job_id, now)
        inner_plan = self._inner_plan(job)
        profile = self.profiles.profile(arrival.workload, inner_plan)
        device.job = job
        device.dispatched_at = now
        remaining = max(0.0, profile.service_seconds - job.resume_offset_s)
        self.dispatches += 1
        if self.rec is not None:
            device.util_points.append((now, 1.0))
        device.completion = self.sim.schedule_at(
            now + remaining, partial(self.job_done, device, profile, inner_plan)
        )

    def _inner_plan(self, job: QueuedJob) -> Optional[FaultPlan]:
        """The inner fault plan of a job dispatched in its tenant's window."""
        now = self.clock.now
        for index, spec in enumerate(self.tenant_windows):
            if (
                spec.target == job.arrival.tenant
                and spec.at_time <= now <= spec.at_time + spec.duration_s
            ):
                # Deterministic inner seed: pure arithmetic over the
                # fleet seed, the window index, and the job id —
                # never hash(), which is salted per process.
                inner_seed = (
                    self.config.seed * 1_000_003 + index * 8_191
                    + job.arrival.job_id
                )
                return self.profiles.inner_plan(
                    job.arrival.workload, seed=inner_seed, count=spec.count,
                )
        return None

    def _fail_over(self, device: _Device) -> None:
        job = device.job
        assert job is not None and device.completion is not None
        device.completion.cancel()
        device.job = device.completion = None
        now = self.clock.now
        if self.collect_trace:
            self.trace_spans.append(Span(
                f"{job.arrival.workload}#{job.arrival.job_id} (interrupted)",
                "job-interrupted", device.name, device.dispatched_at, now,
                (("retry", job.retries + 1), ("tenant", job.arrival.tenant)),
            ))
        self._instant(f"failover job {job.arrival.job_id}", device.name)
        job.retries += 1
        cfg = self.config
        if job.retries > cfg.max_retries:
            self._shed(job, SHED_RETRY_BUDGET, FleetError(
                f"job {job.arrival.job_id} exhausted its retry budget "
                f"({cfg.max_retries}) after losing {device.name}"
            ))
            return
        # Resume from the furthest durable checkpoint the run had
        # reached; with no boundary (or checkpointing off) the
        # failover replans from scratch on the surviving device.
        # Progress made this dispatch, measured on the service axis.
        progress = job.resume_offset_s + (now - device.dispatched_at)
        baseline = self.profiles.baseline(job.arrival.workload)
        job.resume_offset_s = baseline.resume_point(progress)
        backoff = (
            cfg.backoff_base_s
            * (2 ** (job.retries - 1))
            * (1.0 + cfg.backoff_jitter * self.backoff_rng.random())
        )
        self.obs.count("fleet.failovers")
        self.obs.observe("fleet.failover_backoff_s", backoff)
        self.sim.schedule_at(now + backoff, partial(self.retry_ready, job))

    def _shed(self, job: QueuedJob, reason: str, error: Exception) -> None:
        self._terminate(job.arrival, STATUS_SHED, job, reason=reason,
                        error=type(error).__name__)

    def _terminate(self, arrival: JobArrival, status: str,
                   job: Optional[QueuedJob] = None, **fields: Any) -> None:
        """Record the job's one terminal outcome, finishing now.

        ``job`` is the admitted job; it is None only for a job shed at
        the front door.  ``fields`` fill the rest of the outcome.
        """
        job_id = arrival.job_id
        if job_id in self.outcomes:
            raise FleetError(
                f"job {job_id} terminated twice — "
                f"{self.outcomes[job_id].status} then {status}"
            )
        now = self.clock.now
        outcome = JobOutcome(
            job_id=job_id,
            tenant=arrival.tenant,
            workload=arrival.workload,
            priority=arrival.priority,
            status=status,
            arrival_time=arrival.arrival_time,
            finish_time=now,
            admitted=job is not None,
            first_dispatch_time=self.first_dispatch.get(job_id),
            retries=job.retries if job is not None else 0,
            **fields,
        )
        self.outcomes[job_id] = outcome
        if status == STATUS_SHED:
            self._instant(f"shed job {job_id} [{outcome.reason}]", "fleet")

    def record_metrics(self) -> None:
        """Write the per-job metrics in one pass over the outcomes.

        The same updates the loop would have made job by job: counters
        of arrivals, admissions, dispatches, statuses and shed reasons
        (a counter of ``n`` ones is ``float(n)`` exactly), and the
        end-to-end and queue-wait histograms, observed in termination
        order so their sums add up in the same order.  An instrument no
        job touched is not created.
        """
        obs = self.obs
        if not obs.enabled:
            return
        metrics = obs.metrics
        statuses: Dict[str, int] = {}
        reasons: Dict[str, int] = {}
        admitted = 0
        end_to_ends: List[float] = []
        queue_waits: List[float] = []
        for outcome in self.outcomes.values():
            status = outcome.status
            statuses[status] = statuses.get(status, 0) + 1
            admitted += outcome.admitted
            if status == STATUS_SHED:
                reasons[outcome.reason] = reasons.get(outcome.reason, 0) + 1
                continue
            end_to_ends.append(outcome.end_to_end_s)
            if outcome.first_dispatch_time is not None:
                queue_waits.append(outcome.queue_wait_s)
        counts = {
            "fleet.jobs.arrived": len(self.outcomes),
            "fleet.jobs.admitted": admitted,
            "fleet.dispatches": self.dispatches,
            **{f"fleet.jobs.{status}": n for status, n in statuses.items()},
            **{f"fleet.shed.{reason}": n for reason, n in reasons.items()},
        }
        for name, count in counts.items():
            if count:
                metrics.counter(name).inc(float(count))
        for name, values in (("fleet.end_to_end_s", end_to_ends),
                             ("fleet.queue_wait_s", queue_waits)):
            if values:
                metrics.histogram(name).observe_many(values)

    def record_timeline(self) -> None:
        """Write every flight-recorder series of the run, each in one call.

        The loop collected the gauge and rate points; the finished and
        shed rates, each tenant's ``fleet.e2e`` samples and its
        sliding-window SLO series come from the outcomes, in
        termination order.  Each SLO point is what a query of the
        tenant's ``fleet.e2e`` ring would have returned at that job's
        finish: the p50 and p99 of the window and its burn rate, the
        share of the window over the tenant's target as a multiple of
        :data:`SLO_ERROR_BUDGET`.
        """
        rec = self.rec
        assert rec is not None
        for device in self.placement_order:
            rec.record(f"fleet.util.{device.name}", KIND_GAUGE, device.util_points)
        rec.record("fleet.queue_depth", KIND_GAUGE, self.depth_points)
        finished: Dict[str, List[Tuple[float, float]]] = {
            tenant.name: [] for tenant in self.tenants
        }
        finished_at: List[Tuple[float, float]] = []
        shed_at: List[Tuple[float, float]] = []
        for outcome in self.outcomes.values():
            if outcome.status == STATUS_SHED:
                shed_at.append((outcome.finish_time, 1.0))
            else:
                finished_at.append((outcome.finish_time, 1.0))
                finished[outcome.tenant].append(
                    (outcome.finish_time, outcome.end_to_end_s)
                )
        for name, points in (
            ("fleet.rate.arrived", self.arrived_points),
            ("fleet.rate.admitted", self.admitted_points),
            ("fleet.rate.retries", self.retry_points),
            ("fleet.rate.shed", shed_at),
            ("fleet.rate.finished", finished_at),
        ):
            rec.record(name, KIND_RATE, points)
        for tenant, samples in finished.items():
            rec.record(f"fleet.e2e.{tenant}", KIND_SAMPLES, samples)
            p50s, p99s, burns = rec.sliding_windows(
                samples, self.targets[tenant], SLO_ERROR_BUDGET,
            )
            rec.record(f"fleet.slo_window.{tenant}.e2e_p50_s", KIND_GAUGE, p50s)
            rec.record(f"fleet.slo_window.{tenant}.e2e_p99_s", KIND_GAUGE, p99s)
            rec.record(f"fleet.burn.{tenant}", KIND_GAUGE, burns)

    def _instant(self, name: str, resource: str) -> None:
        if self.collect_trace:
            now = self.clock.now
            self.trace_instants.append(
                Span(name, "fleet-event", resource, now, now)
            )


class Fleet:
    """The front-end scheduler: admission, placement, failover, SLOs."""

    def __init__(
        self,
        config: FleetConfig = FleetConfig(),
        profiles: Optional[ProfileStore] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.profiles = profiles if profiles is not None else ProfileStore(
            system_config=config.system_config, scale=config.scale,
        )
        if (
            self.profiles.system_config is not config.system_config
            or self.profiles.scale != config.scale
        ):
            raise FleetError(
                "profile store was built for a different (config, scale) "
                "than this fleet"
            )
        self.obs = obs if obs is not None else Observability()

    # --- tenant resolution --------------------------------------------------

    def resolve_tenants(self) -> Tuple[TenantSpec, ...]:
        """Tenants with concrete arrival rates.

        A tenant declared without ``rate_jobs_per_s`` gets its share
        (by ``weight``) of the fleet's derived aggregate rate::

            aggregate = target_load * device_count / mean_service_s

        i.e. the open-loop stream offers ``target_load`` of the fleet's
        measured service capacity.  Rates given explicitly pass through.
        """
        unresolved = [t for t in self.config.tenants if t.rate_jobs_per_s is None]
        if not unresolved:
            return self.config.tenants
        mean_service = self.profiles.mean_service_seconds(
            tuple(sorted({w for t in unresolved for w in t.workloads}))
        )
        aggregate = self.config.target_load * self.config.device_count / mean_service
        total_weight = sum(t.weight for t in unresolved)
        resolved = []
        for tenant in self.config.tenants:
            if tenant.rate_jobs_per_s is None:
                tenant = replace(
                    tenant,
                    rate_jobs_per_s=aggregate * tenant.weight / total_weight,
                )
            resolved.append(tenant)
        return tuple(resolved)

    # --- SLO targets and alert rules ----------------------------------------

    def slo_targets(
        self, tenants: Tuple[TenantSpec, ...]
    ) -> Dict[str, float]:
        """Each tenant's end-to-end SLO target, in simulated seconds.

        An explicit ``TenantSpec.slo_e2e_s`` wins; otherwise the target
        is :data:`DEFAULT_SLO_MULTIPLE` times the tenant's slowest
        measured baseline service time — generous enough that a healthy
        fleet never breaches it, tight enough that losing a device under
        load does.
        """
        targets: Dict[str, float] = {}
        for tenant in tenants:
            if tenant.slo_e2e_s is not None:
                targets[tenant.name] = tenant.slo_e2e_s
            else:
                slowest = max(
                    self.profiles.baseline(workload).service_seconds
                    for workload in tenant.workloads
                )
                targets[tenant.name] = DEFAULT_SLO_MULTIPLE * slowest
        return targets

    def alert_rules(
        self,
        tenants: Tuple[TenantSpec, ...],
        targets: Dict[str, float],
    ) -> Tuple[AlertRule, ...]:
        """The default rule set: one sliding-window p99 rule per tenant."""
        return tuple(
            AlertRule(
                name=f"slo-burn:{tenant.name}",
                series=f"fleet.slo_window.{tenant.name}.e2e_p99_s",
                threshold=targets[tenant.name],
                op=">",
                consecutive=DEFAULT_ALERT_CONSECUTIVE,
            )
            for tenant in tenants
        )

    # --- the event loop -----------------------------------------------------

    def run(self) -> FleetReport:
        """Run the fleet to completion and report every job's fate."""
        run = _FleetRun(self, self.resolve_tenants())
        # No event budget: the queue drains by construction.
        run.sim.run_all(max_events=math.inf)
        run.shed_stranded()
        return self._build_report(run)

    # --- reporting ----------------------------------------------------------

    def _build_report(self, run: _FleetRun) -> FleetReport:
        run.record_metrics()
        alerts: Tuple[AlertEvent, ...] = ()
        if run.rec is not None:
            run.record_timeline()
            run.rec.finalize(run.sim.now)
            alerts = evaluate_alerts(
                run.rec, self.alert_rules(run.tenants, run.targets)
            )
            # Counters land before the registry snapshot below.
            for event in alerts:
                self.obs.count("obs.alerts.fired")
                self.obs.count(f"obs.alerts.{event.rule}")
        arrivals = run.arrivals
        try:
            ordered = tuple(run.outcomes[a.job_id] for a in arrivals)
        except KeyError:
            missing = [a.job_id for a in arrivals if a.job_id not in run.outcomes]
            raise FleetError(
                f"fleet run ended with job(s) {missing} unaccounted for — "
                f"the termination guarantee is broken in the scheduler itself"
            ) from None
        # One pass in arrival order: each tenant's counts (arrived,
        # admitted, then one per status) and its queue-wait and
        # end-to-end samples.
        column = {STATUS_COMPLETED: 2, STATUS_DEGRADED: 3, STATUS_SHED: 4}
        counts = {tenant.name: [0, 0, 0, 0, 0] for tenant in run.tenants}
        samples: Dict[str, Tuple[List[float], List[float]]] = {
            tenant.name: ([], []) for tenant in run.tenants
        }
        shed_by_reason: Dict[str, int] = {}
        last_terminal = -math.inf
        for outcome in ordered:
            status = outcome.status
            row = counts[outcome.tenant]
            row[0] += 1
            row[1] += outcome.admitted
            row[column[status]] += 1
            if status == STATUS_SHED:
                shed_by_reason[outcome.reason] = (
                    shed_by_reason.get(outcome.reason, 0) + 1
                )
            else:
                queue_waits, end_to_ends = samples[outcome.tenant]
                if outcome.first_dispatch_time is not None:
                    queue_waits.append(outcome.queue_wait_s)
                end_to_ends.append(outcome.end_to_end_s)
            if outcome.finish_time > last_terminal:
                last_terminal = outcome.finish_time
        slos = []
        for tenant in run.tenants:
            arrived, admitted, completed, degraded, shed = counts[tenant.name]
            queue_waits, end_to_ends = samples[tenant.name]
            snapshot = SloSnapshot.from_samples(
                tenant=tenant.name,
                priority=tenant.priority,
                arrived=arrived,
                admitted=admitted,
                completed=completed,
                degraded=degraded,
                shed=shed,
                queue_waits=queue_waits,
                end_to_ends=end_to_ends,
            )
            slos.append(snapshot)
            self.obs.gauge(
                f"fleet.slo.{tenant.name}.queue_wait_p99_s",
                snapshot.queue_wait_p99_s,
            )
            self.obs.gauge(
                f"fleet.slo.{tenant.name}.end_to_end_p99_s",
                snapshot.end_to_end_p99_s,
            )
        makespan = max(last_terminal - arrivals[0].arrival_time, 0.0)
        finished_jobs = len(ordered) - sum(shed_by_reason.values())
        throughput = finished_jobs / makespan if makespan > 0 else 0.0
        self.obs.gauge("fleet.makespan_s", makespan)
        self.obs.gauge("fleet.throughput_jobs_per_s", throughput)
        return FleetReport(
            device_count=self.config.device_count,
            tenant_names=tuple(t.name for t in run.tenants),
            seed=self.config.seed,
            job_count=len(arrivals),
            outcomes=ordered,
            slos=tuple(slos),
            makespan_s=makespan,
            throughput_jobs_per_s=throughput,
            shed_by_reason=shed_by_reason,
            device_events=tuple(run.device_events),
            profile_runs=self.profiles.runs,
            metrics=self.obs.snapshot() if self.obs.enabled else {},
            recorder=run.rec.copy() if run.rec is not None else None,
            alerts=alerts,
            slo_targets=dict(run.targets),
            trace_spans=tuple(run.trace_spans),
            trace_instants=tuple(run.trace_instants),
        )
