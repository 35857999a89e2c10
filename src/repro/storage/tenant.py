"""Co-tenant background load on the CSE.

The paper's system-dynamics argument (§II-B3) names two cycle thieves:
other applications sharing the device, and the device's own management
work.  :class:`BackgroundLoad` models the first as a periodic duty
cycle — for ``busy_fraction`` of every ``period_s`` the co-tenant holds
the engine, throttling foreground availability to ``available_during``.
The load drives itself through simulator events, so it composes with
anything else the experiment schedules.  The device model has no FTL,
so it has no garbage collection to steal cycles (the second thief).
"""

from __future__ import annotations

from ..errors import HardwareError
from .cse import ComputationalStorageEngine


class BackgroundLoad:
    """A periodic co-tenant occupying the CSE."""

    def __init__(
        self,
        cse: ComputationalStorageEngine,
        period_s: float,
        busy_fraction: float,
        available_during: float = 0.2,
        start_at: float = 0.0,
    ) -> None:
        if period_s <= 0:
            raise HardwareError(f"period must be positive, got {period_s}")
        if not 0 < busy_fraction < 1:
            raise HardwareError(
                f"busy_fraction must lie in (0, 1), got {busy_fraction}"
            )
        if not 0 < available_during <= 1:
            raise HardwareError(
                f"available_during must lie in (0, 1], got {available_during}"
            )
        if start_at < 0:
            raise HardwareError(f"start_at must be non-negative, got {start_at}")
        self.cse = cse
        self.period_s = float(period_s)
        self.busy_fraction = float(busy_fraction)
        self.available_during = float(available_during)
        self.start_at = float(start_at)
        self.bursts_started = 0
        self._running = False
        self._stopped = False

    @property
    def mean_availability(self) -> float:
        """Long-run average availability the foreground task sees."""
        busy = self.busy_fraction * self.available_during
        idle = 1.0 - self.busy_fraction
        return busy + idle

    def start(self) -> "BackgroundLoad":
        """Arm the load; the first burst begins at ``start_at``."""
        if self._running:
            raise HardwareError("background load already started")
        self._running = True
        self.cse.simulator.schedule_at(
            max(self.start_at, self.cse.simulator.now),
            self._begin_burst,
            label="tenant-burst-begin",
        )
        return self

    def stop(self) -> None:
        """Let the current burst finish and schedule nothing further."""
        self._stopped = True

    def _begin_burst(self) -> None:
        if self._stopped:
            return
        self.bursts_started += 1
        self.cse.set_availability(self.available_during)
        self.cse.simulator.schedule_after(
            self.period_s * self.busy_fraction,
            self._end_burst,
            label="tenant-burst-end",
        )

    def _end_burst(self) -> None:
        self.cse.set_availability(1.0)
        if self._stopped:
            return
        self.cse.simulator.schedule_after(
            self.period_s * (1.0 - self.busy_fraction),
            self._begin_burst,
            label="tenant-burst-begin",
        )
