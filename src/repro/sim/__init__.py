"""Discrete-event simulation substrate.

A :class:`Simulator` owns the monotonic :class:`SimClock` and one
heap-ordered event store; scheduling returns an :class:`EventHandle`,
and ``snapshot()`` / ``restore()`` capture and rewind the pending
events as a :class:`SimSnapshot`.  All hardware models in :mod:`repro.hw`
and :mod:`repro.storage` advance time through this engine, so an
end-to-end ActivePy run is fully deterministic.
"""

from .clock import SimClock
from .engine import EventHandle, SimSnapshot, Simulator

__all__ = [
    "EventHandle",
    "SimClock",
    "SimSnapshot",
    "Simulator",
]
