"""Rack-scale fleet serving: many CSD machines behind one front-end.

The paper's single-machine story — ActivePy programs compiled onto one
computational-storage device — scales out here: a :class:`Fleet` of N
simulated machines takes a seeded open-loop job stream
(:class:`TrafficGenerator`) through per-tenant admission control
(token buckets + bounded queues), places jobs on free devices, fails
them over on device loss (resuming from line-boundary checkpoints),
degrades gracefully under overload, and accounts per-tenant SLOs
(queue-wait / end-to-end p50 and p99).

Chaos campaigns over the fleet (``run_campaign(FleetCampaignConfig(...))``
from :mod:`repro.chaos`, or ``python -m repro chaos --fleet``) enforce the two rack-level
guarantees — every admitted job terminates exactly once, in a typed
state; tenant A's faults never perturb tenant B's run signatures —
and ddmin-shrink any violating fleet plan to a minimal repro.
"""

from ..obs.export import to_fleet_chrome_trace, write_fleet_chrome_trace
from .admission import (
    AdmissionController,
    QueuedJob,
    SHED_NO_DEVICES,
    SHED_OVERLOAD,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_RETRY_BUDGET,
    TokenBucket,
)
from .chaos import (
    FleetCampaignConfig,
    FleetChaosOutcome,
    FleetHarness,
    check_fleet_invariants,
    raise_for_violations,
    random_fleet_plan,
)
from .fleet import (
    DEFAULT_ALERT_CONSECUTIVE,
    DEFAULT_FLEET_SCALE,
    DEFAULT_SLO_MULTIPLE,
    Fleet,
    FleetConfig,
    FleetReport,
    JobOutcome,
    device_names,
)
from .profiles import JobProfile, ProfileStore
from .slo import SloSnapshot, percentile
from .traffic import (
    DEFAULT_FLEET_WORKLOADS,
    JobArrival,
    TenantSpec,
    TrafficGenerator,
    default_tenants,
)

__all__ = [
    "AdmissionController",
    "DEFAULT_ALERT_CONSECUTIVE",
    "DEFAULT_FLEET_SCALE",
    "DEFAULT_FLEET_WORKLOADS",
    "DEFAULT_SLO_MULTIPLE",
    "Fleet",
    "FleetCampaignConfig",
    "FleetChaosOutcome",
    "FleetConfig",
    "FleetHarness",
    "FleetReport",
    "JobArrival",
    "JobOutcome",
    "JobProfile",
    "ProfileStore",
    "QueuedJob",
    "SHED_NO_DEVICES",
    "SHED_OVERLOAD",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "SHED_RETRY_BUDGET",
    "SloSnapshot",
    "TenantSpec",
    "TokenBucket",
    "TrafficGenerator",
    "check_fleet_invariants",
    "default_tenants",
    "device_names",
    "percentile",
    "raise_for_violations",
    "random_fleet_plan",
    "to_fleet_chrome_trace",
    "write_fleet_chrome_trace",
]
