"""SLO accounting: latency percentiles as first-class metrics.

The fleet records two latency samples per admitted job — queue wait
(arrival to first dispatch) and end-to-end (arrival to final
completion) — and summarises them per tenant as p50/p99 percentiles.
:func:`percentile` reimplements ``numpy.percentile``'s default linear
interpolation exactly (a property test pins the equivalence), so the
fleet's SLO numbers match what any downstream notebook would compute
from the raw samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence, Tuple

from ..errors import FleetError

__all__ = ["SloSnapshot", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``samples``, numpy-compatible.

    Linear interpolation between closest ranks — the same formula as
    ``numpy.percentile(samples, q)`` with the default method, down to
    the arithmetic order, so the two agree bit-for-bit.
    """
    if not samples:
        raise FleetError("percentile of an empty sample set is undefined")
    if not 0 <= q <= 100:
        raise FleetError(f"percentile q must lie in [0, 100], got {q}")
    return _interpolate(sorted(float(sample) for sample in samples), q)


def _interpolate(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of the non-empty, ascending ``ordered``."""
    rank = (len(ordered) - 1) * (q / 100.0)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[int(rank)]
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


@dataclass(frozen=True)
class SloSnapshot:
    """One tenant's service-level view of a fleet run.

    Latency percentiles are 0.0 when the tenant has no samples (every
    job shed, or none arrived) — the counts disambiguate.
    """

    tenant: str
    priority: int
    arrived: int
    admitted: int
    completed: int
    degraded: int
    shed: int
    queue_wait_p50_s: float
    queue_wait_p99_s: float
    end_to_end_p50_s: float
    end_to_end_p99_s: float
    #: The raw samples the percentiles were computed from, for audit.
    queue_wait_samples: Tuple[float, ...] = field(default=(), repr=False)
    end_to_end_samples: Tuple[float, ...] = field(default=(), repr=False)

    @classmethod
    def from_samples(
        cls,
        tenant: str,
        priority: int,
        arrived: int,
        admitted: int,
        completed: int,
        degraded: int,
        shed: int,
        queue_waits: Sequence[float],
        end_to_ends: Sequence[float],
    ) -> "SloSnapshot":
        def p(samples: Sequence[float], q: float) -> float:
            return percentile(samples, q) if samples else 0.0

        return cls(
            tenant=tenant,
            priority=priority,
            arrived=arrived,
            admitted=admitted,
            completed=completed,
            degraded=degraded,
            shed=shed,
            queue_wait_p50_s=p(queue_waits, 50.0),
            queue_wait_p99_s=p(queue_waits, 99.0),
            end_to_end_p50_s=p(end_to_ends, 50.0),
            end_to_end_p99_s=p(end_to_ends, 99.0),
            queue_wait_samples=tuple(queue_waits),
            end_to_end_samples=tuple(end_to_ends),
        )

    # --- the common report protocol (see analysis/export.py) ---------------

    def summary(self) -> Dict[str, Any]:
        """The tenant's SLO headline, JSON-ready."""
        return {
            "tenant": self.tenant,
            "priority": self.priority,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "shed": self.shed,
            "queue_wait_p50_s": self.queue_wait_p50_s,
            "queue_wait_p99_s": self.queue_wait_p99_s,
            "end_to_end_p50_s": self.end_to_end_p50_s,
            "end_to_end_p99_s": self.end_to_end_p99_s,
        }

    def to_jsonable(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"experiment": "fleet-tenant-slo"}
        payload.update(self.summary())
        payload["queue_wait_samples"] = list(self.queue_wait_samples)
        payload["end_to_end_samples"] = list(self.end_to_end_samples)
        return payload

    def render(self) -> str:
        return (
            f"{self.tenant:<10} prio {self.priority}  "
            f"arrived {self.arrived:>3}  admitted {self.admitted:>3}  "
            f"completed {self.completed:>3}  degraded {self.degraded:>3}  "
            f"shed {self.shed:>3}  "
            f"queue p50/p99 {self.queue_wait_p50_s:.3f}/"
            f"{self.queue_wait_p99_s:.3f}s  "
            f"e2e p50/p99 {self.end_to_end_p50_s:.3f}/"
            f"{self.end_to_end_p99_s:.3f}s"
        )
