"""The flight recorder: per-series ring buffers over *simulated* time.

End-of-run aggregates (``MetricsRegistry``) answer "how much"; the
flight recorder answers "when".  A :class:`FlightRecorder` hangs off the
shared :class:`~repro.obs.Observability` handle and collects three kinds
of series, each a bounded ring buffer of ``(t, value)`` points keyed by
the *simulated* clock:

* **gauge** series hold the last value of a level at each instant it
  changed (device utilisation, queue depth).  Re-recording at the same
  simulated instant overwrites — a timestamp maps to one value.
* **rate** series bucket counter increments into fixed windows of
  ``window_s`` simulated seconds and emit one point per window, valued
  in events per second (arrival rate, shed rate).  Empty windows
  between increments emit explicit zeros so a flat-lining series reads
  as flat, not absent.
* **sample** series keep raw observations (per-job end-to-end latency)
  so sliding-window percentiles can be computed over a recent horizon
  with the exact numpy-compatible :func:`repro.fleet.slo.percentile`.

Like every other instrument in :mod:`repro.obs`, recording never
touches the simulated clock: the recorder is handed timestamps, it
never advances them.  When no recorder is attached (the default for
every existing entry point) the instrumented call sites cost one
attribute check and zero wall work, so run signatures stay bit-identical
— ``benchmarks/bench_obs.py`` pins the simulated overhead at exactly
``0.0``.

An :class:`AlertRule` turns a series into a structured signal:
"``fleet.slo_window.tenant-a.e2e_p99_s`` above its SLO for 4
consecutive points" fires an :class:`AlertEvent` via
:func:`evaluate_alerts`.  Rules re-arm when the series recovers, so one
sustained breach is one alert, not one per point.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..errors import ObservabilityError

__all__ = [
    "AlertEvent",
    "AlertRule",
    "FlightRecorder",
    "TimeSeries",
    "evaluate_alerts",
    "sparkline",
]

#: Series kinds a recorder distinguishes; a name belongs to exactly one.
KIND_GAUGE = "gauge"
KIND_RATE = "rate"
KIND_SAMPLES = "samples"

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Comparison operators an :class:`AlertRule` may use.
_ALERT_OPS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
}


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render ``values`` as a one-line unicode sparkline.

    Keeps the most recent ``width`` values.  A constant series renders
    as a flat mid-height line; an empty one as ``(empty)``.
    """
    if width < 1:
        raise ObservabilityError(f"sparkline width must be at least 1, got {width}")
    tail = list(values)[-width:]
    if not tail:
        return "(empty)"
    lo, hi = min(tail), max(tail)
    if hi == lo:
        return _SPARK_BLOCKS[3] * len(tail)
    span = hi - lo
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(top, int((value - lo) / span * top + 0.5))]
        for value in tail
    )


class TimeSeries:
    """One named, bounded series of ``(t, value)`` points.

    The buffer is a ring: once ``capacity`` points have been recorded
    the oldest fall off, so a recorder's memory is bounded no matter how
    long the run.  Points are appended at finite, non-decreasing ``t`` —
    simulated time never runs backwards — and a gauge re-recorded at the
    same ``t`` overwrites the point instead of duplicating the instant.
    """

    __slots__ = ("name", "kind", "points")

    def __init__(self, name: str, kind: str, capacity: int) -> None:
        if kind not in (KIND_GAUGE, KIND_RATE, KIND_SAMPLES):
            raise ObservabilityError(
                f"series {name!r}: unknown kind {kind!r}"
            )
        self.name = name
        self.kind = kind
        self.points: Deque[Tuple[float, float]] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self.extend(((float(t), float(value)),))

    def extend(self, points: Sequence[Tuple[float, float]]) -> None:
        """Append ``points`` in order, checking each as it lands.

        The one write every point of the series goes through, one at a
        time (:meth:`append`) or a whole batch at once.  ``points`` are
        ``(t, value)`` tuples of floats, and the ring keeps them as
        given.
        """
        ring = self.points
        append = ring.append
        isfinite = math.isfinite
        overwrite = self.kind == KIND_GAUGE
        last_t = ring[-1][0] if ring else -math.inf
        for point in points:
            t = point[0]
            if not isfinite(t):
                raise _non_finite_time(self.name, t)
            if t <= last_t:
                if t < last_t:
                    raise ObservabilityError(
                        f"series {self.name!r}: point at t={t} arrived after "
                        f"t={last_t} — simulated time never runs backwards"
                    )
                if overwrite:
                    ring[-1] = point
                    continue
            append(point)
            last_t = t

    def times(self) -> List[float]:
        return [t for t, _ in self.points]

    def values(self) -> List[float]:
        return [value for _, value in self.points]

    def last(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "points": list(map(list, self.points)),
        }


def _rank(size: int, q: float) -> Tuple[int, int, float]:
    """Where the ``q``-th percentile of ``size`` ascending values lies.

    ``(lower, upper, fraction)``, by the arithmetic of
    :func:`repro.fleet.slo.percentile`: the percentile is
    ``ordered[lower]`` when ``lower == upper``, else ``ordered[lower] +
    (ordered[upper] - ordered[lower]) * fraction``.
    """
    rank = (size - 1) * (q / 100.0)
    lower = math.floor(rank)
    return lower, math.ceil(rank), rank - lower


def _non_finite_time(name: str, t: float) -> ObservabilityError:
    # A NaN compares false against everything, so one would slip past
    # the ordering check and let an older point in after it.
    return ObservabilityError(
        f"series {name!r}: timestamp t={t} is not a finite simulated time"
    )


class _RateWindow:
    """Accumulator for one rate series' currently-open window."""

    __slots__ = ("index", "total")

    def __init__(self, index: float) -> None:
        #: The window's index, ``t // window_s``: an integral float, or
        #: an int after :meth:`FlightRecorder.finalize`.
        self.index = index
        self.total = 0.0


class FlightRecorder:
    """A registry of time series plus the windowing state behind them.

    ``window_s`` is the rate-bucketing *and* percentile granularity:
    counter increments aggregate into windows of this many simulated
    seconds, and :meth:`window_percentile` looks back
    ``sample_horizon_s`` (default ``8 * window_s``) from "now".
    ``capacity`` bounds every series' ring buffer.
    """

    def __init__(
        self,
        window_s: float = 0.25,
        capacity: int = 4096,
        sample_horizon_s: Optional[float] = None,
    ) -> None:
        if window_s <= 0:
            raise ObservabilityError(
                f"recorder window_s must be positive, got {window_s}"
            )
        if capacity < 1:
            raise ObservabilityError(
                f"recorder capacity must be at least 1, got {capacity}"
            )
        if sample_horizon_s is not None and sample_horizon_s <= 0:
            raise ObservabilityError(
                f"recorder sample_horizon_s must be positive, "
                f"got {sample_horizon_s}"
            )
        self.window_s = float(window_s)
        self.capacity = int(capacity)
        self.sample_horizon_s = (
            float(sample_horizon_s)
            if sample_horizon_s is not None
            else 8.0 * self.window_s
        )
        self._series: Dict[str, TimeSeries] = {}
        self._open_windows: Dict[str, _RateWindow] = {}

    # --- series access ------------------------------------------------------

    def _get_or_create(self, name: str, kind: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(name, kind, self.capacity)
        elif series.kind != kind:
            raise ObservabilityError(
                f"series {name!r} is already recorded as a {series.kind} "
                f"series, not {kind}"
            )
        return series

    def series(self, name: str) -> TimeSeries:
        try:
            return self._series[name]
        except KeyError:
            raise ObservabilityError(
                f"no series named {name!r}; recorded series: "
                f"{sorted(self._series) or '(none)'}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    # --- recording ----------------------------------------------------------

    def gauge(self, name: str, t: float, value: float) -> None:
        """Record the level ``value`` at simulated instant ``t``."""
        self.record(name, KIND_GAUGE, ((float(t), float(value)),))

    def observe(self, name: str, t: float, value: float) -> None:
        """Record one raw sample (e.g. a latency) at instant ``t``."""
        self.record(name, KIND_SAMPLES, ((float(t), float(value)),))

    def count(self, name: str, t: float, amount: float = 1.0) -> None:
        """Add ``amount`` events at instant ``t`` to a windowed rate.

        The point for a window is emitted — valued ``total / window_s``
        at the window's *end* timestamp — when time first advances past
        it, and any fully-empty windows in between emit explicit zeros
        (at most ``capacity``, which is all the ring can hold anyway).
        """
        self.record(name, KIND_RATE, ((t, amount),))

    def record(
        self, name: str, kind: str, points: Sequence[Tuple[float, float]]
    ) -> None:
        """Record ``points`` on the ``kind`` series ``name``, in order.

        The write behind :meth:`gauge`, :meth:`observe` and
        :meth:`count`: a caller that collects a series' points may
        write them in one call, with the same checks and the same
        result as one call per point.  Points are ``(t, value)`` tuples
        of floats; a gauge or sample point is stored as given, and a
        rate point's value is its increment.  An empty batch records
        nothing.
        """
        if not points:
            return
        if kind == KIND_RATE:
            self._count(name, points)
        else:
            self._get_or_create(name, kind).extend(points)

    def _count(self, name: str, points: Sequence[Tuple[float, float]]) -> None:
        """Add rate increments, closing each window time moves past."""
        # A window opens with its series, on the first valid point.
        window = self._open_windows.get(name)
        if window is None:
            series, open_index, total = None, None, 0.0
        else:
            series = self._series[name]
            open_index, total = window.index, window.total
        window_s = self.window_s
        capacity = self.capacity
        isfinite = math.isfinite
        # The points of the windows the batch closes, written together.
        closed: List[Tuple[float, float]] = []
        try:
            for t, amount in points:
                if amount < 0:
                    raise ObservabilityError(
                        f"rate series {name!r} increment must be non-negative, "
                        f"got {amount}"
                    )
                if not isfinite(t):
                    raise _non_finite_time(name, t)
                # The window index as the integral float ``t // window_s``:
                # ``int()`` of it is the exact index, and comparing a
                # float with an int is exact, so only arithmetic on an
                # index (below) goes through ``int()``.
                index = t // window_s
                if index != open_index:
                    if open_index is None:
                        series = self._get_or_create(name, KIND_RATE)
                        window = self._open_windows[name] = _RateWindow(index)
                    elif index < open_index:
                        raise ObservabilityError(
                            f"rate series {name!r}: increment at t={t} lands "
                            f"before the open window — simulated time never "
                            f"runs backwards"
                        )
                    else:
                        # Close the open window at its end, in events/s.
                        # Beyond 2**53 ``open_index + 1.0`` would round.
                        closed_index, next_index = int(open_index), int(index)
                        closed.append(
                            ((closed_index + 1) * window_s, total / window_s)
                        )
                        if next_index > closed_index + 1:
                            # Zero-fill the gap so quiet stretches read
                            # as zero rate.  The ring only keeps
                            # `capacity` points, so cap the fill there.
                            first = max(closed_index + 1, next_index - capacity)
                            closed.extend(
                                ((zero + 1) * window_s, 0.0)
                                for zero in range(first, next_index)
                            )
                        total = 0.0
                    open_index = index
                total += amount
        finally:
            if window is not None:
                window.index = open_index
                window.total = total
            if closed:
                series.extend(closed)

    def finalize(self, now: float) -> None:
        """Flush every open rate window so partial windows are visible.

        Call once when the run's event loop drains; ``now`` is the final
        simulated timestamp.  Idempotent enough for reporting: a flushed
        window restarts at ``now``'s window with a zero total.
        """
        window_s = self.window_s
        for name in sorted(self._open_windows):
            window = self._open_windows[name]
            self._series[name].extend((
                ((int(window.index) + 1) * window_s, window.total / window_s),
            ))
            window.index = int(now // self.window_s) + 1
            window.total = 0.0

    # --- sliding-window statistics ------------------------------------------

    def window_values(self, name: str, now: float) -> List[float]:
        """Values of ``name`` recorded within the horizon ending at ``now``.

        Points sit at finite, non-decreasing ``t``, so the horizon is a
        contiguous run at the newest end of the ring.  The scan walks
        back from the newest point, skips any after ``now`` and stops
        at the first one before the horizon: a query at the newest time
        costs the points inside the horizon, not the whole ring.
        """
        horizon_start = now - self.sample_horizon_s
        window = []
        # Negated comparisons, so a NaN ``now`` selects nothing.
        for t, value in reversed(self.series(name).points):
            if not t <= now:
                continue
            if not horizon_start <= t:
                break
            window.append(value)
        window.reverse()
        return window

    def window_percentile(self, name: str, q: float, now: float) -> float:
        """The ``q``-th percentile of a sample series' recent horizon.

        Reuses the numpy-compatible :func:`repro.fleet.slo.percentile`
        (imported lazily — ``repro.fleet`` imports ``repro.obs``, so a
        module-level import here would be circular).  Returns ``0.0``
        for an empty horizon, matching ``SloSnapshot``'s convention.
        """
        from ..fleet.slo import percentile

        samples = self.window_values(name, now)
        return percentile(samples, q) if samples else 0.0

    def sliding_windows(
        self,
        samples: Sequence[Tuple[float, float]],
        target: float,
        budget: float,
    ) -> Tuple[List[Tuple[float, float]], ...]:
        """Every window a sample series would have held, in one pass.

        ``samples`` are ``(t, value)`` pairs of finite floats in
        non-decreasing ``t``, as :meth:`observe` would receive them.
        Sample ``i``'s window is what :meth:`window_values` would return
        just after it was observed, queried at its own ``t``: the
        samples up to ``i`` inside the horizon ``[t - sample_horizon_s,
        t]``, capped to the newest ``capacity`` the ring keeps.  Returns
        three gauge point lists, one ``(t, ...)`` point per sample: the
        window's p50, its p99 (each equal to
        :func:`repro.fleet.slo.percentile`) and its burn, the share of
        its values above ``target`` divided by ``budget``.  Both ends of
        the window only move forward, so one sorted list follows it:
        each sample is inserted after its equals and each expired one
        removed as the first of its equals, which keeps the list
        exactly ``sorted()`` of the window.  Nothing is recorded.
        """
        horizon_s = self.sample_horizon_s
        capacity = self.capacity
        times = [t for t, _ in samples]
        values = [float(value) for _, value in samples]
        ordered: List[float] = []
        cuts: Dict[int, Tuple[Tuple[int, int, float], ...]] = {}
        p50s: List[Tuple[float, float]] = []
        p99s: List[Tuple[float, float]] = []
        burns: List[Tuple[float, float]] = []
        start = first = 0
        for end, now in enumerate(times, start=1):
            insort(ordered, values[end - 1])
            horizon_start = now - horizon_s
            while times[start] < horizon_start:
                start += 1
            while first < start or first < end - capacity:
                del ordered[bisect_left(ordered, values[first])]
                first += 1
            size = end - first
            cut = cuts.get(size)
            if cut is None:
                cut = cuts[size] = (_rank(size, 50.0), _rank(size, 99.0))
            (lo50, hi50, at50), (lo99, hi99, at99) = cut
            low = ordered[lo50]
            p50s.append((now, low if lo50 == hi50
                         else low + (ordered[hi50] - low) * at50))
            low = ordered[lo99]
            p99s.append((now, low if lo99 == hi99
                         else low + (ordered[hi99] - low) * at99))
            over = size - bisect_right(ordered, target)
            burns.append((now, over / size / budget))
        return p50s, p99s, burns

    # --- reporting ----------------------------------------------------------

    def copy(self) -> "FlightRecorder":
        """An independent recorder holding every series as it stands now.

        Points are immutable tuples, so the copy shares them: only the
        rings and the open rate windows are new.
        """
        twin = FlightRecorder(self.window_s, self.capacity, self.sample_horizon_s)
        for name, series in self._series.items():
            ring = twin._series[name] = TimeSeries(name, series.kind, self.capacity)
            ring.points = series.points.copy()
        for name, window in self._open_windows.items():
            open_window = twin._open_windows[name] = _RateWindow(window.index)
            open_window.total = window.total
        return twin

    def to_jsonable(self) -> Dict[str, object]:
        """Deterministic JSON-ready view: series in sorted-name order."""
        return {
            "window_s": self.window_s,
            "capacity": self.capacity,
            "sample_horizon_s": self.sample_horizon_s,
            "series": {
                name: self._series[name].to_jsonable()
                for name in sorted(self._series)
            },
        }

    def render(self, width: int = 60) -> str:
        """The ASCII dashboard: one sparkline per series, sorted by name."""
        if not self._series:
            return "(no series recorded)"
        name_width = max(len(name) for name in self._series)
        lines = []
        for name in sorted(self._series):
            series = self._series[name]
            values = series.values()
            lo = min(values) if values else 0.0
            hi = max(values) if values else 0.0
            lines.append(
                f"{name.ljust(name_width)}  {sparkline(values, width)}  "
                f"min={lo:g} max={hi:g} last={values[-1] if values else 0:g} "
                f"n={len(values)} ({series.kind})"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class AlertRule:
    """Fire when a series breaches a threshold for N consecutive points.

    ``op`` compares each point's value against ``threshold``; the rule
    fires on the ``consecutive``-th breaching point in a row and then
    re-arms only after a non-breaching point, so a sustained breach is
    one alert per episode.
    """

    name: str
    series: str
    threshold: float
    op: str = ">"
    consecutive: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise ObservabilityError("alert rule name must be non-empty")
        if not self.series:
            raise ObservabilityError(
                f"alert rule {self.name!r}: series must be non-empty"
            )
        if self.op not in _ALERT_OPS:
            raise ObservabilityError(
                f"alert rule {self.name!r}: op must be one of "
                f"{sorted(_ALERT_OPS)}, got {self.op!r}"
            )
        if self.consecutive < 1:
            raise ObservabilityError(
                f"alert rule {self.name!r}: consecutive must be at least 1, "
                f"got {self.consecutive}"
            )

    def breaches(self, value: float) -> bool:
        return _ALERT_OPS[self.op](value, self.threshold)


@dataclass(frozen=True)
class AlertEvent:
    """One rule firing: which rule, on which series, when, at what value."""

    rule: str
    series: str
    at_time: float
    value: float
    threshold: float
    consecutive: int

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "series": self.series,
            "at_time": self.at_time,
            "value": self.value,
            "threshold": self.threshold,
            "consecutive": self.consecutive,
        }

    def render(self) -> str:
        return (
            f"ALERT {self.rule}: {self.series}={self.value:g} breached "
            f"{self.threshold:g} for {self.consecutive} consecutive points "
            f"at t={self.at_time:.3f}s"
        )


def evaluate_alerts(
    recorder: FlightRecorder, rules: Iterable[AlertRule]
) -> Tuple[AlertEvent, ...]:
    """Scan every rule over its series and collect the alerts that fire.

    A rule whose series was never recorded is quiet, not an error — a
    clean run may never create the series a failure would.  Events come
    back ordered by firing time, ties broken by rule name.
    """
    events: List[AlertEvent] = []
    for rule in rules:
        if rule.series not in recorder:
            continue
        streak = 0
        armed = True
        for t, value in recorder.series(rule.series):
            if rule.breaches(value):
                streak += 1
                if armed and streak >= rule.consecutive:
                    events.append(AlertEvent(
                        rule=rule.name,
                        series=rule.series,
                        at_time=t,
                        value=value,
                        threshold=rule.threshold,
                        consecutive=rule.consecutive,
                    ))
                    armed = False
            else:
                streak = 0
                armed = True
    events.sort(key=lambda event: (event.at_time, event.rule))
    return tuple(events)
