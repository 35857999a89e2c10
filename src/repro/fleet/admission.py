"""Per-tenant admission control: token buckets, bounded queues, shedding.

The front-end's first line of defence.  Every arriving job passes its
tenant's :class:`TokenBucket` (rate limiting) and bounded queue (memory
limiting); past either limit the job is **shed with a typed
:class:`~repro.errors.AdmissionError` reason**, never silently dropped
and never allowed to grow an unbounded backlog.  When the fleet-wide
backlog crosses the overload watermark, the controller degrades
gracefully: it sheds queued jobs from the *lowest-priority* tenants
first (newest first within a tenant), exactly once each, each with its
reason attached.

Everything is driven by the fleet's simulated clock — no wall time —
so admission decisions replay deterministically from a seed.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import FleetError
from .traffic import JobArrival, TenantSpec

__all__ = [
    "AdmissionController",
    "QueuedJob",
    "SHED_NO_DEVICES",
    "SHED_OVERLOAD",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "SHED_RETRY_BUDGET",
    "TokenBucket",
]

#: The typed shed reasons an :class:`~repro.errors.AdmissionError` or
#: :class:`~repro.errors.FleetError` outcome carries.
SHED_RATE_LIMITED = "rate-limited"
SHED_QUEUE_FULL = "queue-full"
SHED_OVERLOAD = "overload-shed"
SHED_RETRY_BUDGET = "retry-budget-exhausted"
SHED_NO_DEVICES = "no-live-devices"


class TokenBucket:
    """A deterministic token bucket over simulated time.

    Refills continuously at ``rate`` tokens/s up to ``burst``; a job is
    admitted iff a whole token is available at its arrival instant.
    """

    __slots__ = ("rate", "burst", "tokens", "last_refill")

    def __init__(self, rate: float, burst: int) -> None:
        if rate <= 0:
            raise FleetError(f"token rate must be positive, got {rate}")
        if burst < 1:
            raise FleetError(f"token burst must be at least 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_refill = 0.0

    def _refill(self, now: float) -> None:
        if now < self.last_refill:
            raise FleetError(
                f"token bucket clock moved backwards: "
                f"{self.last_refill} -> {now}"
            )
        self.tokens = min(self.burst, self.tokens + (now - self.last_refill) * self.rate)
        self.last_refill = now

    def try_take(self, now: float) -> bool:
        """Consume one token at ``now`` if available."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class QueuedJob:
    """A job sitting in (or re-entering) the dispatch queue."""

    arrival: JobArrival
    #: Monotone admission sequence — FIFO order within a priority band.
    seq: int
    #: Service seconds already made durable via checkpoints (resume
    #: offset after a device-loss failover; 0.0 = from scratch).
    resume_offset_s: float = 0.0
    #: Failover resubmissions consumed so far.
    retries: int = 0

    @property
    def priority(self) -> int:
        return self.arrival.priority


def _seq_of(job: QueuedJob) -> int:
    return job.seq


class AdmissionController:
    """Token buckets + bounded queues + overload shedding, per tenant.

    Each tenant's queue is kept sorted by ``seq`` and the controller
    counts what is queued, so neither dispatch nor shedding walks the
    queued jobs: the next job is the least ``(-priority, seq)`` of the
    queue heads, an overload victim is the tail of the lowest-priority
    non-empty queue, and a requeue is a binary-search insert.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        overload_watermark: int,
    ) -> None:
        if overload_watermark < 1:
            raise FleetError(
                f"overload_watermark must be at least 1, got {overload_watermark}"
            )
        self.tenants: Dict[str, TenantSpec] = {t.name: t for t in tenants}
        self.overload_watermark = overload_watermark
        self._buckets: Dict[str, TokenBucket] = {}
        for tenant in tenants:
            if tenant.rate_jobs_per_s is None:
                raise FleetError(
                    f"tenant {tenant.name!r} has no resolved rate; "
                    f"resolve tenants before building the controller"
                )
            rate = (
                tenant.admission_rate
                if tenant.admission_rate is not None
                else 1.5 * tenant.rate_jobs_per_s
            )
            self._buckets[tenant.name] = TokenBucket(rate, tenant.admission_burst)
        self._queues: Dict[str, List[QueuedJob]] = {t.name: [] for t in tenants}
        #: The same queues in tenant-name order, and in shedding order:
        #: lowest priority first, then by name.
        self._by_name = [self._queues[name] for name in sorted(self._queues)]
        self._by_shed_order = [
            self._queues[name]
            for _, name in sorted((t.priority, t.name) for t in tenants)
        ]
        self._queued = 0
        self._seq = 0

    # --- admission --------------------------------------------------------

    def admit(self, arrival: JobArrival, now: float) -> Optional[str]:
        """Admit ``arrival`` into its tenant queue, or return a shed reason.

        ``None`` means admitted (queued).  A non-``None`` return is one
        of the ``SHED_*`` reasons; the caller must record the shed —
        the controller never forgets a job silently.
        """
        tenant = self.tenants.get(arrival.tenant)
        if tenant is None:
            raise FleetError(f"unknown tenant {arrival.tenant!r}")
        if not self._buckets[arrival.tenant].try_take(now):
            return SHED_RATE_LIMITED
        queue = self._queues[arrival.tenant]
        if len(queue) >= tenant.queue_limit:
            return SHED_QUEUE_FULL
        # Seqs only grow, so appending keeps the queue sorted.
        queue.append(QueuedJob(arrival=arrival, seq=self._seq))
        self._seq += 1
        self._queued += 1
        return None

    def requeue(self, job: QueuedJob) -> None:
        """Return a failed-over job to its tenant queue.

        Re-entry keeps the job's original admission ``seq``, so a
        retried job resumes its old place in the FIFO order instead of
        going to the back — it has already waited once.  Requeueing is
        not re-admission: no token is consumed and no queue bound is
        enforced (the job's queue slot was released when it dispatched,
        and an admitted job must never be silently un-admitted).
        """
        insort(self._queues[job.arrival.tenant], job, key=_seq_of)
        self._queued += 1

    # --- dispatch ---------------------------------------------------------

    @property
    def total_queued(self) -> int:
        return self._queued

    def next_job(self) -> Optional[QueuedJob]:
        """Pop the next job to dispatch: highest priority, then FIFO."""
        best: Optional[List[QueuedJob]] = None
        best_key = None
        for queue in self._by_name:
            if queue:
                head = queue[0]
                key = (-head.arrival.priority, head.seq)
                if best_key is None or key < best_key:
                    best_key = key
                    best = queue
        if best is None:
            return None
        self._queued -= 1
        return best.pop(0)

    # --- graceful degradation ---------------------------------------------

    def shed_overload(self) -> List[QueuedJob]:
        """Shed queued jobs until the backlog is back under the watermark.

        Victims come from the lowest-priority tenant with queued work,
        newest admission first — the premium tenants keep their place
        while best-effort load is the first to degrade.  Every victim
        is returned to the caller to be recorded as shed-with-error.
        """
        victims: List[QueuedJob] = []
        while self._queued > self.overload_watermark:
            queue = next(queue for queue in self._by_shed_order if queue)
            victims.append(queue.pop())
            self._queued -= 1
        return victims

    def drain(self) -> List[QueuedJob]:
        """Remove and return everything still queued (fleet shutdown)."""
        drained = [job for queue in self._by_name for job in queue]
        for queue in self._by_name:
            queue.clear()
        self._queued = 0
        return sorted(drained, key=_seq_of)
