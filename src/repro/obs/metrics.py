"""Metrics primitives: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat, named collection of instruments,
Prometheus-style: **counters** only ever go up (their successive
snapshots are monotone — a property the test suite enforces),
**gauges** hold the latest value of some level (queue depth, free
blocks, availability), and **histograms** bucket observations against a
fixed upper-bound vector chosen at creation time.

None of these instruments ever touches the simulated clock: recording a
metric is free in simulated time *by construction*, which is what lets
the observability layer promise bit-identical ``total_seconds`` whether
it is enabled or not.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram buckets for durations in seconds: decades from a
#: microsecond to a hundred seconds, which brackets everything from a
#: doorbell message to a full paper-scale run.
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)


class Counter:
    """A monotonically non-decreasing accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative and finite)."""
        if amount < 0 or not math.isfinite(amount):
            raise ObservabilityError(
                f"counter {self.name!r} increment must be finite and "
                f"non-negative, got {amount}"
            )
        self.value += amount

    def inc_many(self, amounts: Sequence[float]) -> None:
        """Add every amount of ``amounts``, as one :meth:`inc` each.

        The same ``value`` bits: the amounts are added one by one, in
        order, onto the current value.  A finite total over non-negative
        amounts means every amount was valid.  Otherwise some amount is
        negative or not finite, or the total overflowed, and the batch
        is added amount by amount, so an error raises the same message
        and leaves the same value.
        """
        total = functools.reduce(operator.add, amounts, self.value)
        if math.isfinite(total) and min(amounts, default=0.0) >= 0:
            self.value = total
            return
        for amount in amounts:
            self.inc(amount)


class Gauge:
    """The latest value of some instantaneous level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        if not math.isfinite(value):
            raise ObservabilityError(
                f"gauge {self.name!r} value must be finite, got {value}"
            )
        self.value = float(value)

    def set_many(self, values: Sequence[float]) -> None:
        """Set every value of ``values``, as one :meth:`set` each.

        The last value stays.  A finite sum means every value is finite;
        otherwise the batch is set value by value, so an error raises
        the same message and leaves the same value.
        """
        if values and math.isfinite(sum(values)):
            self.value = float(values[-1])
            return
        for value in values:
            self.set(value)


class Histogram:
    """Observations bucketed against fixed upper bounds.

    ``counts[i]`` tallies observations ``<= buckets[i]``; a final
    overflow bucket catches everything beyond the last bound.  The
    bucket vector is fixed at creation — no dynamic resizing, so a
    snapshot is always comparable to an earlier one.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {name!r} needs at least one bucket")
        if any(not math.isfinite(b) for b in bounds):
            raise ObservabilityError(f"histogram {name!r} buckets must be finite")
        if list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.name = name
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Tally ``value`` into its bucket.

        The boundary convention is **inclusive upper bounds** (``<=``),
        Prometheus-style: a value exactly equal to ``buckets[i]`` lands
        in bucket ``i``, and only values strictly greater spill into
        bucket ``i + 1``.  ``bisect_left`` implements exactly this —
        for ``value == buckets[i]`` it returns ``i`` — and a hypothesis
        test over boundary values pins the convention so it cannot
        silently flip to ``<``.
        """
        if not math.isfinite(value):
            raise ObservabilityError(
                f"histogram {self.name!r} observation must be finite, got {value}"
            )
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Tally every value of ``values``, as one :meth:`observe` each.

        The same counts, ``count`` and ``sum`` bits: ``sum`` adds the
        values one by one in order.  A finite running sum means every
        value is finite, so the buckets are counted once over the sorted
        batch (``bisect_right`` per bound is the count ``<=`` it).
        Otherwise some value is not finite, or the sum overflowed, and
        the batch is observed value by value, so an error raises the
        same message and leaves the same state.
        """
        total = self.sum
        for value in values:
            total += value
        if not math.isfinite(total):
            for value in values:
                self.observe(value)
            return
        ordered = sorted(values)
        counts = self.counts
        below = 0
        for index, bound in enumerate(self.buckets):
            upto = bisect.bisect_right(ordered, bound)
            counts[index] += upto - below
            below = upto
        counts[-1] += len(ordered) - below
        self.sum = total
        self.count += len(ordered)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """A flat namespace of counters, gauges, and histograms.

    Instruments are created on first use (``counter(name)`` is
    get-or-create) and a name belongs to exactly one instrument kind for
    the registry's lifetime — reusing ``"x"`` as both a counter and a
    gauge is an error, not a silent aliasing.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # --- instrument access -------------------------------------------------

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ObservabilityError(
                    f"metric {name!r} is already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, "histogram")
            instrument = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_TIME_BUCKETS_S
            )
        return instrument

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # --- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A deterministic, JSON-ready view of every instrument.

        Counter values in successive snapshots are monotone
        non-decreasing (counters cannot be decremented or removed).
        """
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_jsonable()
                for name in sorted(self._histograms)
            },
        }

    def as_jsonable(self) -> List[Dict[str, object]]:
        """Every instrument as one flat, sorted-by-name series list.

        Unlike :meth:`snapshot` (three kind-keyed maps), this is the
        diff-friendly form: one entry per instrument, ``name``/``kind``
        /``value`` (histograms carry their full bucket state under
        ``value``), emitted in sorted-name order across *all* kinds so
        two runs' snapshots line up row-for-row under ``diff``.
        """
        series: List[Dict[str, object]] = []
        for name, counter in self._counters.items():
            series.append({"name": name, "kind": "counter", "value": counter.value})
        for name, gauge in self._gauges.items():
            series.append({"name": name, "kind": "gauge", "value": gauge.value})
        for name, histogram in self._histograms.items():
            series.append({
                "name": name, "kind": "histogram", "value": histogram.to_jsonable(),
            })
        series.sort(key=lambda entry: entry["name"])
        return series

    def render(self) -> str:
        """Plain-text dump, one instrument per line, sorted by name."""
        lines: List[str] = []
        snap = self.snapshot()
        width = max(
            (len(name) for section in snap.values() for name in section),
            default=0,
        )
        for name, value in snap["counters"].items():
            lines.append(f"{name.ljust(width)}  {value:g}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name.ljust(width)}  {value:g} (gauge)")
        for name, data in snap["histograms"].items():
            lines.append(
                f"{name.ljust(width)}  count={data['count']} sum={data['sum']:g}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"
