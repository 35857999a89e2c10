"""Unified observability: metrics, tracing, and Chrome-trace export.

Every simulated machine carries exactly one :class:`Observability`
handle (``machine.obs``), created in
:func:`repro.hw.topology.build_machine` and shared by reference with
every component — the sim engine, compute units, links, NAND, the
dispatcher, the executor, checkpointing and migration.  Components
guard instrumentation with ``if obs.enabled:``, so a disabled handle
costs one attribute check per site and **zero simulated seconds**: no
metric or span ever advances the simulated clock, which is why runs are
bit-identical with observability on or off (enforced by tests and by
``benchmarks/bench_obs.py``).

Typical use::

    from repro import ActivePy, RunOptions
    from repro.obs import Observability

    obs = Observability.with_tracing()
    report = ActivePy().run(program, dataset, options=RunOptions(obs=obs))
    print(obs.metrics.render())

    from repro.obs import write_chrome_trace
    write_chrome_trace(obs.tracer.spans, "trace.json")  # open in Perfetto

The handle is deliberately mutable: when a caller passes its own
``Observability`` to :meth:`ActivePy.run` alongside a pre-built
machine, the machine's existing handle :meth:`~Observability.adopt`\\ s
the caller's sinks, so references components captured at build time
start feeding the caller's registry without rebuilding the machine.

Metrics written once per device chunk go through write-behind *cells*
instead of the registry: a cell is a list of pending writes the handle
owns, one per metric name, and :meth:`Observability.flush` publishes
every cell into the registry in write order.  The registry is current
after :meth:`~Observability.snapshot`, after
:meth:`~Observability.adopt` and at the end of every
:meth:`ActivePy.run`.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError
from .attribution import (
    AttributedSegment,
    AttributionReport,
    COMPONENTS,
    TimeAttributor,
    build_attribution_report,
)
from .critical_path import CriticalPathReport, CriticalPathStep, build_critical_path
from .export import (
    render_gantt,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import (
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .timeseries import (
    AlertEvent,
    AlertRule,
    FlightRecorder,
    TimeSeries,
    evaluate_alerts,
    sparkline,
)
from .tracer import Span, Tracer

__all__ = [
    "AlertEvent",
    "AlertRule",
    "AttributedSegment",
    "AttributionReport",
    "COMPONENTS",
    "Counter",
    "CriticalPathReport",
    "CriticalPathStep",
    "DEFAULT_TIME_BUCKETS_S",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TimeAttributor",
    "TimeSeries",
    "Tracer",
    "build_attribution_report",
    "build_critical_path",
    "evaluate_alerts",
    "render_gantt",
    "sparkline",
    "to_chrome_trace",
    "trace_span",
    "validate_chrome_trace",
    "write_chrome_trace",
]


class Observability:
    """A shared handle bundling a metrics registry and optional tracer.

    Attributes are mutable on purpose — ``adopt`` redirects them — so
    components must never cache registry instruments across calls:
    reach them through the handle (``obs.metrics.counter(...)``).  The
    handle's write-behind cells (:meth:`counter_cell`,
    :meth:`gauge_cell`, :meth:`histogram_cell`) are the exception: a
    cell belongs to the handle, not to a registry, so a component may
    keep it for its lifetime and append to it behind an ``enabled``
    check.  Every writer of a name shares its one cell, so the writes
    publish in the order they were made; a name written through a cell
    must not also be written into the registry directly.
    """

    def __init__(
        self,
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        attribution: Optional[TimeAttributor] = None,
        timeseries: Optional[FlightRecorder] = None,
    ) -> None:
        self.enabled = enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.attribution = attribution
        self.timeseries = timeseries
        self.clock = None  # bound by build_machine to the sim clock
        # Write-behind cells: (kind, name) -> writes not yet published.
        self._cells: Dict[Tuple[str, str], List[float]] = {}
        self._buckets: Dict[str, Sequence[float]] = {}

    # --- constructors ------------------------------------------------------

    @classmethod
    def disabled(cls) -> "Observability":
        """A dormant handle: one ``enabled`` check per site, nothing else."""
        return cls(enabled=False)

    @classmethod
    def with_tracing(cls) -> "Observability":
        """An enabled handle that also collects spans."""
        return cls(enabled=True, tracer=Tracer())

    @classmethod
    def with_attribution(cls, tracing: bool = True) -> "Observability":
        """An enabled handle that attributes every simulated second.

        Tracing is on by default so the critical path can label its
        steps with the enclosing runtime span.
        """
        return cls(
            enabled=True,
            tracer=Tracer() if tracing else None,
            attribution=TimeAttributor(),
        )

    @classmethod
    def with_timeseries(
        cls,
        window_s: float = 0.25,
        capacity: int = 4096,
        sample_horizon_s: Optional[float] = None,
        tracing: bool = False,
    ) -> "Observability":
        """An enabled handle carrying a flight recorder.

        ``window_s`` is the rate-bucketing / percentile granularity of
        the attached :class:`~repro.obs.timeseries.FlightRecorder`.
        """
        return cls(
            enabled=True,
            tracer=Tracer() if tracing else None,
            timeseries=FlightRecorder(
                window_s=window_s,
                capacity=capacity,
                sample_horizon_s=sample_horizon_s,
            ),
        )

    # --- state -------------------------------------------------------------

    @property
    def tracing(self) -> bool:
        """True when spans should be recorded."""
        return self.enabled and self.tracer is not None

    @property
    def recording(self) -> bool:
        """True when a flight recorder is attached and live."""
        return self.enabled and self.timeseries is not None

    @property
    def attributing(self) -> bool:
        """True when clock movements are being attributed."""
        return self.enabled and self.attribution is not None

    def bind_clock(self, clock) -> None:
        """Attach the simulated clock used by :meth:`trace_span`.

        Installs the attributor (if any) on the clock so every movement
        from here on is recorded.
        """
        self.clock = clock
        if clock is not None and self.attributing:
            clock.set_attributor(self.attribution)

    def ensure_tracer(self) -> Tracer:
        """Attach (and return) a tracer if none is present."""
        if self.tracer is None:
            self.tracer = Tracer()
        return self.tracer

    def ensure_timeseries(self, window_s: float = 0.25) -> FlightRecorder:
        """Attach (and return) a flight recorder if none is present."""
        if self.timeseries is None:
            self.timeseries = FlightRecorder(window_s=window_s)
        return self.timeseries

    def adopt(self, other: "Observability") -> None:
        """Redirect this handle's sinks to another handle's.

        After adoption every component holding *this* handle records
        into ``other``'s registry and tracer.  The clock binding is
        pushed the other way so ``other`` can open spans against the
        machine's simulated clock.  Both handles flush first, so every
        write made before the redirect lands in the registry it was
        made for, ahead of any write made after it.
        """
        if other is self:
            return
        self.flush()
        other.flush()
        self.enabled = other.enabled
        self.metrics = other.metrics
        self.tracer = other.tracer
        self.attribution = other.attribution
        self.timeseries = other.timeseries
        if other.clock is None:
            other.clock = self.clock
        if self.clock is not None:
            self.clock.set_attributor(
                self.attribution if self.attributing else None
            )

    # --- write-behind cells --------------------------------------------------

    def counter_cell(self, name: str) -> List[float]:
        """The cell of counter ``name``: append each increment to it."""
        return self._cells.setdefault(("counter", name), [])

    def gauge_cell(self, name: str) -> List[float]:
        """The cell of gauge ``name``: append each value; the last stays."""
        return self._cells.setdefault(("gauge", name), [])

    def histogram_cell(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> List[float]:
        """The cell of histogram ``name``: append each observation.

        ``buckets`` apply when the flush creates the histogram, as for
        :meth:`MetricsRegistry.histogram`.
        """
        if buckets is not None:
            self._buckets.setdefault(name, buckets)
        return self._cells.setdefault(("histogram", name), [])

    @property
    def pending(self) -> int:
        """How many cell writes the next :meth:`flush` publishes."""
        return sum(map(len, self._cells.values()))

    def flush(self) -> None:
        """Publish every cell's pending writes into the registry.

        Each cell publishes as one batch that equals its writes made one
        by one (:meth:`Counter.inc_many`, :meth:`Gauge.set_many`,
        :meth:`Histogram.observe_many`): the same values, the same
        errors.  An instrument is created here, on its first write, so
        a cell never written leaves no zero behind.
        """
        metrics = self.metrics
        for (kind, name), cell in self._cells.items():
            if not cell:
                continue
            try:
                if kind == "counter":
                    metrics.counter(name).inc_many(cell)
                elif kind == "gauge":
                    metrics.gauge(name).set_many(cell)
                else:
                    metrics.histogram(name, self._buckets.get(name)).observe_many(cell)
            finally:
                cell.clear()

    # --- no-op-when-disabled recording helpers -----------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def record_span(
        self,
        name: str,
        cat: str,
        resource: str,
        start: float,
        end: float,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.enabled and self.tracer is not None:
            self.tracer.record(name, cat, resource, start, end, args)

    @contextmanager
    def trace_span(
        self,
        name: str,
        cat: str,
        resource: str,
        args: Optional[Dict[str, object]] = None,
    ) -> Iterator[None]:
        """Record a span covering the simulated time the body advances.

        Requires a bound clock (``build_machine`` binds one).  Reads the
        clock at entry and exit — the body is what advances it.
        """
        if not (self.enabled and self.tracer is not None and self.clock is not None):
            yield
            return
        start = self.clock.now
        try:
            yield
        finally:
            self.tracer.record(name, cat, resource, start, self.clock.now, args)

    def attr_scope(self, component: str):
        """Context manager labelling clock movement inside the body.

        A no-op (``nullcontext``) when attribution is off, so call sites
        cost one attribute check — never simulated time — either way.
        Explicit ``component=`` labels at leaf sites still win over the
        scope.
        """
        if not self.attributing:
            return nullcontext()
        return _attributor_scope(self.attribution, component)

    def attribution_report(self, since: int = 0) -> AttributionReport:
        """Build an :class:`AttributionReport` from the attached attributor."""
        if self.attribution is None:
            raise ObservabilityError(
                "this Observability handle has no attributor; "
                "construct it with Observability.with_attribution()"
            )
        return build_attribution_report(self.attribution, since=since)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic JSON-ready view of all metrics, cells flushed."""
        self.flush()
        return self.metrics.snapshot()


@contextmanager
def _attributor_scope(attributor: TimeAttributor, component: str) -> Iterator[None]:
    attributor.push_scope(component)
    try:
        yield
    finally:
        attributor.pop_scope()


@contextmanager
def trace_span(
    obs: Observability,
    name: str,
    cat: str,
    resource: str,
    args: Optional[Dict[str, object]] = None,
) -> Iterator[None]:
    """Free-function form of :meth:`Observability.trace_span`."""
    with obs.trace_span(name, cat, resource, args):
        yield
