"""The simulator loop: one heap-ordered event store.

:class:`Simulator` owns the shared :class:`~repro.sim.clock.SimClock`
and a min-heap of :class:`EventHandle` entries, and runs scheduled
callbacks in time order — same-time events in scheduling order, with
cancels honoured at any point.  Hardware models use it for
asynchronous behaviour (CSE availability changes, co-tenant bursts,
injected faults); straight-line execution cost is accounted
synchronously via ``clock.advance``.

The traffic is small: a whole paper run keeps at most a handful of
events pending, so a plain heap with lazy cancellation is all the
engine needs, and a snapshot is an O(pending) copy.

Scheduling returns an :class:`EventHandle`, the stored entry itself.
When the simulator carries an enabled :class:`~repro.obs.Observability`
handle it counts scheduled and fired events (``sim.events_scheduled``,
``sim.events_fired``); metric recording never advances the clock, so
results are identical with observability on or off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, FrozenSet, Optional, Tuple

from ..errors import SimulationError
from ..obs import Observability
from .clock import SimClock

__all__ = ["EventHandle", "SimSnapshot", "Simulator"]

#: Builds an :class:`EventHandle` from its field tuple without a
#: Python-level constructor call (scheduling is the engine's hot path).
_new_handle = tuple.__new__


class EventHandle(tuple):
    """One scheduled callback, as returned by ``schedule_at``/``schedule_after``.

    The handle *is* the heap entry: a ``(time, seq, action, label,
    simulator)`` tuple, so the heap orders entries by ``(time, seq)``
    without a Python-level comparison.  Treat it as opaque and read
    :attr:`time`, :attr:`seq` and :attr:`label`.  :meth:`cancel`
    removes the event from its simulator's *current* timeline if it is
    pending there, and is a no-op otherwise (already fired, already
    cancelled, or scheduled after the snapshot that timeline was
    restored from).  Sequence numbers are never reused, so a handle can
    never cancel another event.
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Absolute simulated time the event fires.")
    seq = property(itemgetter(1), doc="Scheduling order; ties fire in seq order.")
    label = property(itemgetter(3), doc="The diagnostic label given at scheduling.")

    def cancel(self) -> None:
        """Cancel the event if it is pending in the current timeline."""
        seq, sim = self[1], self[4]
        if seq in sim._pending:
            sim._pending.remove(seq)
            sim._cancelled.add(seq)

    @property
    def cancelled(self) -> bool:
        """True when :meth:`cancel` removed the event from the current timeline."""
        return self[1] in self[4]._cancelled

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "scheduled"
        return (
            f"EventHandle(time={self.time!r}, seq={self.seq}, "
            f"label={self.label!r}, {state})"
        )


@dataclass(frozen=True)
class SimSnapshot:
    """Frozen event + clock state captured by :meth:`Simulator.snapshot`.

    Restorable any number of times (:meth:`Simulator.restore`), into the
    simulator it came from or into a fresh one.
    """

    clock_now: float
    heap: Tuple[EventHandle, ...] = field(repr=False)
    pending: FrozenSet[int] = field(repr=False)
    cancelled: FrozenSet[int] = field(repr=False)
    fired: int
    next_seq: int

    @property
    def pending_events(self) -> int:
        """Live events captured in the snapshot (diagnostics)."""
        return len(self.pending)


class Simulator:
    """Owns the clock and the event heap; runs events in time order.

    Construction is keyword-only: ``Simulator(clock=..., obs=...)``.
    """

    def __init__(
        self,
        *,
        clock: Optional[SimClock] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.obs = obs if obs is not None else Observability.disabled()
        #: Heap of :class:`EventHandle` entries; cancelled ones are
        #: dropped lazily when they reach the top.
        self._heap: list = []
        #: Seqs of the events scheduled and neither fired nor cancelled.
        self._pending: set = set()
        #: Seqs cancelled in this timeline (answers ``handle.cancelled``).
        self._cancelled: set = set()
        self._fired = 0
        self._next_seq = 0

    # --- introspection ------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for tests/diagnostics)."""
        return self._fired

    @property
    def pending_events(self) -> int:
        """Live (scheduled, not fired, not cancelled) events — O(1)."""
        return len(self._pending)

    @property
    def next_event_time(self) -> float:
        """When the earliest heap entry is due; ``inf`` with none.

        The entry may be a cancelled one not yet dropped, so no event
        fires before this time.  :meth:`fire_due_events` does nothing
        while the clock reads less.
        """
        heap = self._heap
        return heap[0][0] if heap else math.inf

    # --- scheduling ---------------------------------------------------------

    def schedule_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule ``action`` at an absolute simulated time."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event in the past ({time} < {self.clock.now})"
            )
        if self.obs.enabled:
            self.obs.metrics.counter("sim.events_scheduled").inc()
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = _new_handle(EventHandle, (time, seq, action, label, self))
        heappush(self._heap, handle)
        self._pending.add(seq)
        return handle

    def schedule_after(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay}")
        return self.schedule_at(self.clock.now + delay, action, label)

    # --- running ------------------------------------------------------------

    def _fire(self, deadline: Optional[float], limit: float = math.inf) -> int:
        """Pop and fire pending events in ``(time, seq)`` order.

        ``deadline`` None fires what is due at the clock's *current*
        reading (re-read per event, since a callback may advance it) and
        leaves the clock alone; otherwise the clock advances to each
        event's timestamp before its callback runs.  At most ``limit``
        events fire.  Returns the number fired.
        """
        heap = self._heap
        pending = self._pending
        clock = self.clock
        counter = (
            self.obs.metrics.counter("sim.events_fired") if self.obs.enabled else None
        )
        fired = 0
        while heap and fired < limit:
            time = heap[0][0]
            if time > (clock.now if deadline is None else deadline):
                break
            _, seq, action, _, _ = heappop(heap)
            if seq not in pending:
                continue  # cancelled
            pending.remove(seq)
            if deadline is not None:
                now = clock.now
                clock.advance_to(time if time > now else now)
            action()
            self._fired += 1
            fired += 1
            if counter is not None:
                counter.inc()
        return fired

    def fire_due_events(self) -> int:
        """Run every event due at or before the current time.

        Used by synchronous execution paths after advancing the clock:
        the executor consumes compute time, then lets any background
        events (availability changes, tenant bursts) that became due
        take effect.
        Never advances the clock.  Returns the number of events fired.
        """
        heap = self._heap
        if not heap or heap[0][0] > self.clock.now:
            return 0
        return self._fire(None)

    def run_until(self, deadline: float) -> None:
        """Advance to ``deadline``, firing all events on the way."""
        if deadline < self.clock.now:
            raise SimulationError(
                f"deadline {deadline} is before current time {self.clock.now}"
            )
        self._fire(deadline)
        self.clock.advance_to(deadline)

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Fire every scheduled event in order until the queue drains.

        Raises :class:`~repro.errors.SimulationError` only when events
        remain *beyond* the budget — draining exactly ``max_events``
        events is a successful run.
        """
        self._fire(math.inf, limit=max_events)
        if self._pending:
            raise SimulationError(
                f"run_all exceeded {max_events} events; likely a scheduling loop"
            )

    # --- snapshot / restore -------------------------------------------------

    def snapshot(self) -> SimSnapshot:
        """Capture the event state and clock reading, O(pending events).

        The snapshot pins pending events (callbacks included, by
        reference), the fired count, and the clock reading.  Callbacks
        close over live model objects; a snapshot freezes *scheduling*
        state, not the state those callbacks mutate.
        """
        return SimSnapshot(
            clock_now=self.clock.now,
            heap=tuple(self._heap),
            pending=frozenset(self._pending),
            cancelled=frozenset(self._cancelled),
            fired=self._fired,
            next_seq=self._next_seq,
        )

    def restore(self, snapshot: SimSnapshot) -> None:
        """Rewind this simulator to a snapshot (clock may move backwards).

        Handles keep working across a restore: each cancels its own
        event if that event is pending in the restored timeline.
        Sequence numbers keep counting up, so an event scheduled after
        the restore never shares a seq with one scheduled before it.
        An attached time attributor is *not* rewound — restore inside
        attribution-free search loops.
        """
        # In place, so a drain that a callback restored under keeps
        # working on the live structures.
        self._heap[:] = snapshot.heap
        self._pending.clear()
        self._pending.update(snapshot.pending)
        self._cancelled.clear()
        self._cancelled.update(snapshot.cancelled)
        self._fired = snapshot.fired
        self._next_seq = max(self._next_seq, snapshot.next_seq)
        self.clock.restore(snapshot.clock_now)
