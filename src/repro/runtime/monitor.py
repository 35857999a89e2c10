"""Runtime monitoring (paper §III-D).

ActivePy watches the throughput of code running on the CSD through the
status updates each line posts.  It re-estimates the remaining CSD time
when either

1. the observed IPC is *decreasing* across consecutive updates, or
2. the observed IPC falls significantly below the estimated instruction
   throughput (estimated instructions / estimated time).

The monitor never sees the simulator's availability knob — it infers
congestion purely from the architectural counters, exactly as the real
system must.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import SystemConfig
from .dispatch import StatusUpdate


@dataclass(frozen=True, slots=True)
class MonitorDecision:
    """What the monitor concluded after an observation."""

    reestimate: bool
    reason: str = ""
    #: Device availability inferred from IPC (observed / expected).
    inferred_availability: float = 1.0
    #: How far observed IPC has drifted below expectation, in [0, 1]:
    #: 0.0 = on prediction, 0.9 = running at a tenth of the predicted
    #: rate.  Surfaced so migration decisions are auditable against the
    #: planner's assumptions, not just a boolean trigger.
    ipc_drift: float = 0.0


#: The decision for an update at the full expected rate with no trigger,
#: shared because nearly every update on a healthy device reads this.
_STEADY = MonitorDecision(reestimate=False)


@dataclass
class RuntimeMonitor:
    """Tracks CSD execution rate and flags degradation."""

    config: SystemConfig
    #: IPC the device should deliver when healthy (from the estimate).
    expected_ipc: float
    #: Number of consecutive strictly decreasing updates that counts
    #: as a downward trend.
    trend_window: int = 3
    #: Updates observed since the last reset.
    observations: int = field(default=0, init=False)
    #: The latest observed (clamped) IPC since the last reset.
    last_ipc: Optional[float] = field(default=None, init=False)
    #: Consecutive strict falls ending at the latest update.
    _falls: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.expected_ipc <= 0:
            raise ValueError(f"expected_ipc must be positive, got {self.expected_ipc}")
        if self.trend_window < 2:
            raise ValueError("trend_window must be at least 2")

    # --- observation ----------------------------------------------------------

    def observe(self, update: StatusUpdate) -> MonitorDecision:
        """Ingest one status update and decide whether to re-estimate."""
        self.observe_many(update.ipc, 1)
        ipc = self.last_ipc
        inferred = min(1.0, ipc / self.expected_ipc)

        if ipc < self.config.ipc_degradation_threshold * self.expected_ipc:
            reason = (
                f"IPC {ipc:.3f} below "
                f"{self.config.ipc_degradation_threshold:.0%} of expected "
                f"{self.expected_ipc:.3f}"
            )
        elif self._falls >= self.trend_window - 1:
            reason = f"IPC decreasing over the last {self.trend_window} updates"
        elif inferred == 1.0:
            return _STEADY
        else:
            reason = ""
        return MonitorDecision(
            reestimate=bool(reason),
            reason=reason,
            inferred_availability=inferred,
            ipc_drift=max(0.0, 1.0 - inferred),
        )

    def observe_many(self, ipc: float, count: int) -> None:
        """Ingest ``count`` status updates at ``ipc``, deciding nothing.

        A quiet stretch of chunks calls this directly: there each
        update's decision would be ``_STEADY``.
        """
        ipc = max(0.0, ipc)
        # The last ``trend_window`` updates fall strictly exactly when
        # the run of strict falls ending here is ``trend_window - 1``
        # long.  Only the first of equal updates can fall.
        last = self.last_ipc
        falls = self._falls + 1 if last is not None and ipc < last else 0
        self._falls = falls if count == 1 else 0
        self.last_ipc = ipc
        self.observations += count

    @staticmethod
    def reestimate_remaining_seconds(
        remaining_device_compute_s: float,
        remaining_device_access_s: float,
        inferred_availability: float,
    ) -> float:
        """Project the remaining CSD time at the degraded rate.

        The estimated compute time stretches by the inferred
        availability (clamped to [1e-3, 1]); internal data access is
        DMA-driven and assumed unaffected by engine contention.
        """
        availability = max(1e-3, min(1.0, inferred_availability))
        return remaining_device_compute_s / availability + remaining_device_access_s

    # NOTE: after a device-side chunk replay the executor calls
    # :meth:`reset` — IPC samples spanning a crash/replay boundary are
    # fault noise, and a "decreasing trend" assembled across one must
    # not trigger a spurious migration.

    def reset(self) -> None:
        self.observations = 0
        self.last_ipc = None
        self._falls = 0
