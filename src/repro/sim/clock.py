"""Simulated monotonic clock.

The whole machine shares one :class:`SimClock`.  Time only moves
forward: synchronous costs (compute, transfers, media latency) call
:meth:`SimClock.advance`, and the event engine calls
:meth:`SimClock.advance_to` when it dequeues the next event.  All
timestamps are floats in simulated seconds since machine construction.

Because every simulated second passes through this one chokepoint, the
clock is also where time *attribution* hooks in: an optional
:class:`~repro.obs.attribution.TimeAttributor` observes each movement
after the fact, tagged with the component that consumed it.  The hook
runs after ``_now`` has already been updated and never changes what the
clock returns, so simulated time is bit-identical with attribution on
or off.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional, Sequence

from ..errors import SimulationError

__all__ = ["SimClock"]


class SimClock:
    """A monotonic clock measured in simulated seconds.

    The clock only moves forward.  Components hold a shared reference
    and call :meth:`advance` as they consume time, or :meth:`advance_to`
    when synchronising with an event timestamp.  Both accept an optional
    ``component`` label consumed by the attached attributor (if any);
    unlabelled movements inherit the attributor's current scope.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start}")
        self._now = float(start)
        self._attributor = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def attributor(self):
        """The attached :class:`TimeAttributor`, or ``None``."""
        return self._attributor

    def set_attributor(self, attributor) -> None:
        """Attach (or detach, with ``None``) a time attributor."""
        self._attributor = attributor

    def advance(self, duration: float, component: Optional[str] = None) -> float:
        """Move the clock forward by ``duration`` seconds.

        Returns the new time.  Negative durations are rejected; zero is
        allowed (instantaneous bookkeeping events).
        """
        if duration < 0:
            raise SimulationError(f"cannot advance clock by negative duration {duration}")
        old = self._now
        self._now = old + duration
        if self._attributor is not None:
            self._attributor.record(old, self._now, component)
        return self._now

    def advance_to(self, timestamp: float, component: Optional[str] = None) -> float:
        """Move the clock forward to an absolute ``timestamp``.

        A timestamp in the past is rejected: simulated time is
        monotonic.  Returns the new time.
        """
        if timestamp < self._now:
            raise SimulationError(
                f"cannot move clock backwards from {self._now} to {timestamp}"
            )
        old = self._now
        self._now = float(timestamp)
        if self._attributor is not None:
            self._attributor.record(old, self._now, component)
        return self._now

    def advance_along(self, readings: Sequence[float], components: Iterable[str]) -> None:
        """Move the clock through ``readings``, one reading per advance.

        ``readings[0]`` is the current reading and ``readings[i + 1]``
        the reading after an advance labelled ``components[i]``: the
        readings of one :meth:`advance` call each, as the caller's
        ``itertools.accumulate`` fold computed them.  The attributor, if
        any, sees every movement, in order.
        """
        attributor = self._attributor
        if attributor is not None:
            for old, new, component in zip(readings, islice(readings, 1, None), components):
                attributor.record(old, new, component)
        self._now = readings[-1]

    def restore(self, timestamp: float) -> None:
        """Set the clock to ``timestamp``, forwards *or backwards*.

        This is the snapshot-restore escape hatch used by
        :meth:`repro.sim.Simulator.restore`: rewinding is the whole
        point of forkable machine state, so the monotonicity guard is
        deliberately bypassed.  No attribution record is emitted — an
        attached attributor's telescoping identity only holds while
        time is contiguous, so restore inside attribution-free search
        loops.
        """
        if timestamp < 0:
            raise SimulationError(f"cannot restore clock to negative time {timestamp}")
        self._now = float(timestamp)

    def reset(self) -> None:
        """Rewind to time zero (only for reusing a clock across runs).

        Any attached attributor is reset too: its records telescope to
        ``end - start`` only while time is contiguous, and a rewind
        breaks that chain.
        """
        self._now = 0.0
        if self._attributor is not None:
            self._attributor.reset()

    def __repr__(self) -> str:
        return f"SimClock(now={self._now!r})"
