"""Exact attribution of simulated time to hardware components.

Every simulated nanosecond flows through :class:`~repro.sim.clock.SimClock`
— ``advance`` for synchronous costs, ``advance_to`` for event
synchronisation.  A :class:`TimeAttributor` installed on the clock sees
each movement as an ``(old, new)`` timestamp pair tagged with the
component that consumed the time:

``host``
    Host-side compute, sampling, codegen and any unlabelled time.
``cse``
    The in-device computational storage engine, including crash
    recovery backoff while the host waits for a device reset.
``pcie``
    Host↔device link transfers (host-storage, d2h and remote-access
    links) plus command/doorbell messages.
``nvme``
    Time the dispatcher spends parked in queue-pair polling loops
    waiting for completions (queueing delay).
``nand``
    In-device media transfers over the internal link and ECC retry
    latency on correctable read faults.
``checkpoint`` / ``migration``
    Checkpoint write costs and migration compile/state-transfer costs.
``integrity``
    End-to-end checksum verification (:mod:`repro.integrity`): the
    per-byte digest-check cost paid at every protected consumption
    point when ``integrity_enabled`` is on.  Empty by default — the
    integrity layer charges nothing when disabled.

**The sum identity is exact, not approximate.**  Each movement is kept
as the pair ``(old, new)`` and re-expressed at report time as a
compensated difference ``hi + err`` (two-diff: ``hi = new - old`` with
``err`` the exact rounding error, recoverable in floating point because
``hi`` is within a factor of two of the true difference).  Summing
every ``hi`` and ``err`` with :func:`math.fsum` therefore yields the
*correctly rounded* value of the telescoping sum ``end - start`` — the
same real number the clock itself computed — so
:attr:`AttributionReport.residual` is ``0.0`` exactly, asserted by
tests on every workload in the rotation.

Attribution is an observability feature: recording happens after the
clock has already moved and never feeds back into simulated time, so
runs stay bit-identical with attribution on or off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError
from .metrics import Histogram

__all__ = [
    "AttributedSegment",
    "AttributionReport",
    "COMPONENTS",
    "DEFAULT_COMPONENT",
    "TimeAttributor",
    "build_attribution_report",
]

#: The closed component taxonomy.  Labels outside this set are rejected
#: at the recording site so typos cannot silently open a new bucket.
COMPONENTS = (
    "host",
    "cse",
    "pcie",
    "nvme",
    "nand",
    "checkpoint",
    "migration",
    "integrity",
)

#: Unlabelled clock movement lands here: the host runtime owns the
#: interpreter loop, so time nobody claims is host time by definition.
DEFAULT_COMPONENT = "host"

_COMPONENT_SET = frozenset(COMPONENTS)

#: Buckets for queueing-delay histograms (seconds, decade-ish spacing).
_DELAY_BUCKETS_S = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


def _two_diff(new: float, old: float) -> Tuple[float, float]:
    """Split ``new - old`` into ``(hi, err)`` with ``hi + err`` exact.

    Standard two-diff (Knuth/Møller): ``hi`` is the rounded difference
    and ``err`` the exactly-representable rounding error, so the pair
    carries the *real-number* difference with no information loss.
    """
    hi = new - old
    bb = new - hi
    err = (new - (hi + bb)) + (bb - old)
    return hi, err


@dataclass(frozen=True)
class AttributedSegment:
    """A maximal run of consecutive clock movements by one component."""

    start: float
    end: float
    component: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class TimeAttributor:
    """Records every clock movement tagged with the consuming component.

    Installed on a :class:`~repro.sim.clock.SimClock` via
    ``clock.set_attributor``.  Sites either pass an explicit
    ``component=`` to ``clock.advance`` (leaf hardware: compute units,
    links, media) or push a scope with :meth:`scope` around code whose
    inner advances should inherit a label (dispatcher completion polling
    → ``nvme``, crash-recovery waits → ``cse``).  Explicit labels win
    over scopes; with neither, time goes to :data:`DEFAULT_COMPONENT`.
    """

    def __init__(self) -> None:
        # One (component, old, new) triple per clock movement, in order.
        self._records: List[Tuple[str, float, float]] = []
        # Coalesced maximal same-component runs, kept incrementally.
        self._segments: List[AttributedSegment] = []
        self._stack: List[str] = []

    # --- labelling ---------------------------------------------------------

    def push_scope(self, component: str) -> None:
        if component not in _COMPONENT_SET:
            raise ObservabilityError(
                f"unknown attribution component {component!r}; "
                f"expected one of {', '.join(COMPONENTS)}"
            )
        self._stack.append(component)

    def pop_scope(self) -> None:
        if not self._stack:
            raise ObservabilityError("attribution scope stack is empty")
        self._stack.pop()

    @property
    def current_component(self) -> str:
        return self._stack[-1] if self._stack else DEFAULT_COMPONENT

    # --- recording (called by SimClock after it has moved) -----------------

    def record(self, old: float, new: float, component: Optional[str]) -> None:
        if component is None:
            component = self.current_component
        elif component not in _COMPONENT_SET:
            raise ObservabilityError(
                f"unknown attribution component {component!r}; "
                f"expected one of {', '.join(COMPONENTS)}"
            )
        self._records.append((component, old, new))
        if new == old:
            return  # zero-duration bookkeeping; keep the record, skip segments
        last = self._segments[-1] if self._segments else None
        if last is not None and last.component == component and last.end == old:
            self._segments[-1] = AttributedSegment(last.start, new, component)
        else:
            self._segments.append(AttributedSegment(old, new, component))

    # --- queries -----------------------------------------------------------

    def mark(self) -> int:
        """A position in the record stream, for windowed reports."""
        return len(self._records)

    @property
    def record_count(self) -> int:
        return len(self._records)

    def records(self, since: int = 0) -> Sequence[Tuple[str, float, float]]:
        return tuple(self._records[since:])

    def segments(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[AttributedSegment]:
        """Coalesced segments, optionally clipped to a time window."""
        out = self._segments
        if start is not None:
            out = [s for s in out if s.end > start]
        if end is not None:
            out = [s for s in out if s.start < end]
        return list(out)

    def reset(self) -> None:
        self._records.clear()
        self._segments.clear()
        self._stack.clear()


@dataclass
class AttributionReport:
    """Per-component breakdown of a window of simulated time.

    ``seconds_by_component`` are each computed with :func:`math.fsum`
    over that component's compensated pairs; ``total_attributed`` is the
    fsum over *all* pairs, which telescopes exactly to ``end - start``.
    """

    start: float
    end: float
    seconds_by_component: Dict[str, float]
    total_attributed: float
    segments: List[AttributedSegment] = field(default_factory=list)

    @property
    def total_window(self) -> float:
        return self.end - self.start

    @property
    def residual(self) -> float:
        """Attributed minus window time — exactly ``0.0`` by construction."""
        return self.total_attributed - (self.end - self.start)

    def utilization(self) -> Dict[str, float]:
        """Fraction of the window each component held the clock."""
        window = self.end - self.start
        if window <= 0:
            return {name: 0.0 for name in self.seconds_by_component}
        return {
            name: seconds / window
            for name, seconds in self.seconds_by_component.items()
        }

    def queueing_delay_histograms(self) -> Dict[str, Histogram]:
        """Per-component histograms of contiguous-occupancy durations.

        For ``nvme`` this is literally the queueing-delay distribution
        (each segment is one uninterrupted completion wait); for other
        components it shows how bursty their clock occupancy is.
        """
        out: Dict[str, Histogram] = {}
        for segment in self.segments:
            hist = out.get(segment.component)
            if hist is None:
                hist = Histogram(
                    f"attribution.{segment.component}.segment_seconds",
                    buckets=_DELAY_BUCKETS_S,
                )
                out[segment.component] = hist
            hist.observe(segment.duration)
        return out

    def what_if(self, component: str) -> float:
        """Projected total if ``component`` took zero time.

        The simulator serialises component occupancy on one clock, so
        deleting a component's time shortens the run by exactly its
        attributed seconds — an upper bound on what a real overlap-
        capable machine could save (e.g. "total if PCIe bandwidth were
        infinite").
        """
        if component not in _COMPONENT_SET:
            raise ObservabilityError(
                f"unknown attribution component {component!r}; "
                f"expected one of {', '.join(COMPONENTS)}"
            )
        return self.total_attributed - self.seconds_by_component.get(component, 0.0)

    def rank_bottlenecks(self) -> List[Tuple[str, float]]:
        """Components ranked by time saved if each were free, descending."""
        ranked = sorted(
            self.seconds_by_component.items(),
            key=lambda item: (-item[1], item[0]),
        )
        return [(name, seconds) for name, seconds in ranked if seconds > 0.0]

    def render(self) -> str:
        lines = [
            f"attribution over [{self.start:.6f}, {self.end:.6f}] s "
            f"(total {self.total_attributed:.6f} s, residual {self.residual:.1e})"
        ]
        util = self.utilization()
        for name, seconds in self.rank_bottlenecks():
            lines.append(
                f"  {name:<11} {seconds:>12.6f} s  {util[name] * 100:6.2f}%"
            )
        return "\n".join(lines)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "start": self.start,
            "end": self.end,
            "total_attributed": self.total_attributed,
            "residual": self.residual,
            "seconds_by_component": dict(self.seconds_by_component),
            "utilization": self.utilization(),
            "bottlenecks": [
                {"component": name, "seconds": seconds, "what_if": self.what_if(name)}
                for name, seconds in self.rank_bottlenecks()
            ],
            "segment_count": len(self.segments),
        }


def build_attribution_report(
    attributor: TimeAttributor, since: int = 0
) -> AttributionReport:
    """Summarise the attributor's records from position ``since`` on.

    ``since`` is a value previously returned by
    :meth:`TimeAttributor.mark`; the report then covers exactly the
    clock movements recorded after that mark, and the identity holds
    over that window.
    """
    records = attributor.records(since)
    if not records:
        return AttributionReport(
            start=0.0,
            end=0.0,
            seconds_by_component={},
            total_attributed=0.0,
            segments=[],
        )
    start = records[0][1]
    end = records[-1][2]
    parts_by_component: Dict[str, List[float]] = {}
    all_parts: List[float] = []
    for component, old, new in records:
        hi, err = _two_diff(new, old)
        parts = parts_by_component.setdefault(component, [])
        parts.append(hi)
        parts.append(err)
        all_parts.append(hi)
        all_parts.append(err)
    seconds = {
        name: math.fsum(parts) for name, parts in sorted(parts_by_component.items())
    }
    total = math.fsum(all_parts)
    return AttributionReport(
        start=start,
        end=end,
        seconds_by_component=seconds,
        total_attributed=total,
        segments=attributor.segments(start=start, end=end),
    )
