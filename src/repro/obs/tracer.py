"""The structured span tracer.

A :class:`Tracer` accumulates immutable :class:`Span` records — named,
categorised intervals of simulated time on a named resource.  ``Span``
is the one span type: :mod:`repro.obs.export` renders the same records
as a plain-text Gantt chart and as a Chrome ``trace_event`` file that
opens in Perfetto, and the fleet records its per-device job spans and
scheduling instants as ``Span`` records too.

Spans carry **simulated** timestamps; recording one never advances the
simulated clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ObservabilityError

__all__ = ["Span", "Tracer"]


@dataclass(frozen=True, slots=True)
class Span:
    """One named interval of simulated time on one resource.

    ``cat`` is the span's category ("compute", "transfer", "compile",
    "sampling", "storage", "migration", ...) — it picks the Gantt mark
    and is the Chrome trace event category.
    """

    name: str
    cat: str
    resource: str
    start: float
    end: float
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An append-only log of :class:`Span` records."""

    def __init__(self) -> None:
        self._spans: List[Span] = []

    def record(
        self,
        name: str,
        cat: str,
        resource: str,
        start: float,
        end: float,
        args: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Append one finished span (simulated timestamps, seconds)."""
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ObservabilityError(
                f"span {name!r} has a non-finite bound: [{start}, {end}]"
            )
        if end < start:
            raise ObservabilityError(
                f"span {name!r} ends before it starts: {start} > {end}"
            )
        span = Span(
            name=name,
            cat=cat,
            resource=resource,
            start=start,
            end=end,
            args=tuple(sorted(args.items())) if args else (),
        )
        self._spans.append(span)
        return span

    @property
    def count(self) -> int:
        """Number of spans recorded so far (use to mark a position)."""
        return len(self._spans)

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def spans_since(self, mark: int) -> List[Span]:
        """Spans recorded after a prior :attr:`count` mark."""
        return list(self._spans[mark:])
