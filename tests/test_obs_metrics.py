"""The metrics registry, and the zero-simulated-overhead contract."""

import dataclasses
import math
import re
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.errors import ObservabilityError
from repro.hw.compute import ComputeUnit
from repro.hw.topology import build_machine
from repro.integrity import IntegrityChecker
from repro.obs import (
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
)
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload

from .oracles import tick_every_chunk

_SCALE = 2 ** -7


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ObservabilityError):
            counter.inc(-1.0)

    def test_non_finite_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ObservabilityError):
            counter.inc(math.nan)
        with pytest.raises(ObservabilityError):
            counter.inc(math.inf)


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1.0)
        gauge.set(-2.0)
        assert gauge.value == -2.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            histogram.observe(value)
        data = histogram.to_jsonable()
        assert data["counts"] == [2, 1, 1]  # <=1, <=10, overflow
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(106.2)

    def test_buckets_must_increase(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_default_time_buckets_cover_sim_scales(self):
        histogram = Histogram("h")
        assert histogram.buckets == DEFAULT_TIME_BUCKETS_S
        assert histogram.buckets[0] <= 1e-6 and histogram.buckets[-1] >= 100.0

    @settings(max_examples=200, deadline=None)
    @given(
        bucket_index=st.integers(min_value=0,
                                 max_value=len(DEFAULT_TIME_BUCKETS_S) - 1),
    )
    def test_boundary_values_bucket_inclusively(self, bucket_index):
        """The documented <= convention: a value exactly on a bucket
        boundary lands in that bucket, and the next representable float
        above it spills into the following one."""
        boundary = DEFAULT_TIME_BUCKETS_S[bucket_index]

        exact = Histogram("exact")
        exact.observe(boundary)
        assert exact.counts[bucket_index] == 1
        assert sum(exact.counts) == 1

        above = Histogram("above")
        above.observe(math.nextafter(boundary, math.inf))
        assert above.counts[bucket_index] == 0
        assert above.counts[bucket_index + 1] == 1

    @settings(max_examples=200, deadline=None)
    @given(
        bounds=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=8, unique=True,
        ),
        value=st.floats(min_value=-1e6, max_value=1e6,
                        allow_nan=False, allow_infinity=False),
    )
    def test_bucket_choice_is_the_first_inclusive_upper_bound(
        self, bounds, value
    ):
        """For arbitrary bucket vectors the chosen index is always the
        first i with value <= buckets[i] (overflow otherwise)."""
        buckets = tuple(sorted(bounds))
        histogram = Histogram("h", buckets=buckets)
        histogram.observe(value)
        expected = next(
            (i for i, bound in enumerate(buckets) if value <= bound),
            len(buckets),
        )
        assert histogram.counts[expected] == 1
        assert sum(histogram.counts) == 1


def _state(histogram):
    """A histogram's whole state, ``sum`` by its bits."""
    return (
        list(histogram.counts),
        struct.pack("<d", histogram.sum),
        histogram.count,
    )


@st.composite
def _batches(draw):
    """A bucket vector, values already observed, and a batch to add.

    The values mix exact bucket bounds and their neighbours, signed
    zeros, huge magnitudes (whose sums overflow) and arbitrary floats.
    """
    buckets = draw(st.one_of(
        st.just(DEFAULT_TIME_BUCKETS_S),
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=6, unique=True,
        ).map(lambda bounds: tuple(sorted(bounds))),
    ))
    edges = [
        near for bound in buckets
        for near in (bound, math.nextafter(bound, -math.inf),
                     math.nextafter(bound, math.inf))
    ]
    value = st.one_of(
        st.sampled_from(edges),
        st.sampled_from([0.0, -0.0, 1e308, -1e308, sys.float_info.max]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    return (
        buckets,
        draw(st.lists(value, max_size=4)),
        draw(st.lists(value, max_size=40)),
    )


class TestObserveMany:
    """A batch write against one ``observe`` per value."""

    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(batch=_batches())
    def test_batch_equals_one_observe_per_value(self, batch):
        buckets, before, values = batch
        one_by_one, batched = Histogram("h", buckets), Histogram("h", buckets)
        for value in before:
            one_by_one.observe(value)
            batched.observe(value)
        for value in values:
            one_by_one.observe(value)
        batched.observe_many(values)
        assert _state(batched) == _state(one_by_one)

    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(
        batch=_batches(),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        where=st.integers(0, 40),
    )
    def test_a_non_finite_value_fails_alike(self, batch, bad, where):
        buckets, before, values = batch
        values = list(values)
        values.insert(min(where, len(values)), bad)
        one_by_one, batched = Histogram("h", buckets), Histogram("h", buckets)
        for value in before:
            one_by_one.observe(value)
            batched.observe(value)
        with pytest.raises(ObservabilityError) as expected:
            for value in values:
                one_by_one.observe(value)
        with pytest.raises(ObservabilityError) as raised:
            batched.observe_many(values)
        assert str(raised.value) == str(expected.value)
        assert _state(batched) == _state(one_by_one)

    def test_empty_batch_changes_nothing(self):
        histogram = Histogram("h")
        histogram.observe(0.5)
        state = _state(histogram)
        histogram.observe_many([])
        assert _state(histogram) == state


#: Values whose running sums overflow, signed zeros and plain floats.
_AMOUNTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e308, sys.float_info.max]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


class TestIncMany:
    """A batch of increments against one ``inc`` per amount."""

    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(before=st.lists(_AMOUNTS, max_size=4), amounts=st.lists(_AMOUNTS, max_size=40))
    def test_batch_equals_one_inc_per_amount(self, before, amounts):
        one_by_one, batched = Counter("c"), Counter("c")
        for amount in before:
            one_by_one.inc(amount)
            batched.inc(amount)
        for amount in amounts:
            one_by_one.inc(amount)
        batched.inc_many(amounts)
        assert struct.pack("<d", batched.value) == struct.pack("<d", one_by_one.value)

    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(
        amounts=st.lists(_AMOUNTS, max_size=40),
        bad=st.sampled_from([-1.0, -1e-300, math.nan, math.inf, -math.inf]),
        where=st.integers(0, 40),
    )
    def test_a_bad_amount_fails_alike(self, amounts, bad, where):
        amounts = list(amounts)
        amounts.insert(min(where, len(amounts)), bad)
        one_by_one, batched = Counter("c"), Counter("c")
        with pytest.raises(ObservabilityError) as expected:
            for amount in amounts:
                one_by_one.inc(amount)
        with pytest.raises(ObservabilityError) as raised:
            batched.inc_many(amounts)
        assert str(raised.value) == str(expected.value)
        assert struct.pack("<d", batched.value) == struct.pack("<d", one_by_one.value)


class TestSetMany:
    """A batch of gauge values against one ``set`` per value."""

    @settings(max_examples=200, deadline=None, print_blob=True)
    @given(
        values=st.lists(st.one_of(
            st.integers(-10, 10),
            st.sampled_from([1e308, -1e308, -0.0]),
            st.floats(allow_nan=False, allow_infinity=False),
        ), max_size=20),
        bad=st.sampled_from([None, math.nan, math.inf, -math.inf]),
        where=st.integers(0, 20),
    )
    def test_batch_equals_one_set_per_value(self, values, bad, where):
        values = list(values)
        if bad is not None:
            values.insert(min(where, len(values)), bad)
        one_by_one, batched = Gauge("g"), Gauge("g")
        one_by_one.set(0.5)
        batched.set(0.5)
        try:
            for value in values:
                one_by_one.set(value)
        except ObservabilityError as exc:
            with pytest.raises(ObservabilityError, match=re.escape(str(exc))):
                batched.set_many(values)
        else:
            batched.set_many(values)
        assert struct.pack("<d", batched.value) == struct.pack("<d", one_by_one.value)


class _PerCallCell:
    """A cell that writes through at once, as every write did before
    write-behind cells."""

    def __init__(self, write):
        self.append = write

    def extend(self, values):
        for value in values:
            self.append(value)


class _PerCallObservability(Observability):
    """Every cell write goes straight into the registry: the oracle."""

    def counter_cell(self, name):
        return _PerCallCell(lambda value: self.metrics.counter(name).inc(value))

    def gauge_cell(self, name):
        return _PerCallCell(lambda value: self.metrics.gauge(name).set(value))

    def histogram_cell(self, name, buckets=None):
        return _PerCallCell(
            lambda value: self.metrics.histogram(name, buckets).observe(value)
        )


class TestCells:
    """Write-behind cells publish what one write at a time would have."""

    @pytest.mark.parametrize("kind, bad", [
        ("counter", -1.0), ("counter", math.nan),
        ("counter", math.inf), ("counter", -math.inf),
        ("gauge", math.nan), ("gauge", math.inf), ("gauge", -math.inf),
        ("histogram", math.nan), ("histogram", math.inf),
        ("histogram", -math.inf),
    ])
    def test_a_bad_write_raises_by_the_next_snapshot(self, kind, bad):
        values = [0.25, 3.0, bad, 1.0]
        direct = MetricsRegistry()
        instrument = getattr(direct, kind)("m")
        write = {"counter": "inc", "gauge": "set", "histogram": "observe"}[kind]
        with pytest.raises(ObservabilityError) as expected:
            for value in values:
                getattr(instrument, write)(value)
        obs = Observability()
        getattr(obs, f"{kind}_cell")("m").extend(values)
        with pytest.raises(ObservabilityError) as raised:
            obs.snapshot()
        assert str(raised.value) == str(expected.value)
        # The writes before the bad one are published; nothing stays pending.
        assert obs.pending == 0
        assert obs.metrics.snapshot() == direct.snapshot()

    def test_a_bad_write_in_a_run_raises_by_its_end(self, monkeypatch):
        record_work = ComputeUnit._record_work
        calls = []

        # A quiet stretch records all its chunks' work in one call, and
        # the run below makes two: the second is mid-run.
        def bad_second(unit, instructions, elapsed, count=1):
            calls.append(unit.name)
            if len(calls) == 2:
                instructions = -1.0
            record_work(unit, instructions, elapsed, count)

        monkeypatch.setattr(ComputeUnit, "_record_work", bad_second)
        workload = get_workload("tpch_q6", scale=_SCALE)
        with pytest.raises(ObservabilityError, match=(
            r"counter 'compute\.\w+\.instructions' increment must be finite "
            r"and non-negative, got -1\.0"
        )):
            ActivePy().run(workload.program, workload.dataset,
                           options=RunOptions(obs=Observability()))

    @pytest.mark.parametrize("raise_at", [1, 4, 11, 29])
    def test_a_run_raising_mid_chunk_publishes_every_earlier_write(
        self, monkeypatch, raise_at
    ):
        # ``charge_verify`` runs inside a chunk, after the chunk's
        # compute, link and executor writes and its own verified bytes.
        # The ticker sends every chunk through the per-chunk body, so
        # the run raises in the ``raise_at``-th chunk's verify charge.
        _raise_in_a_run(monkeypatch, "charge_verify", raise_at, ticks=1000)

    def test_a_run_raising_in_a_quiet_stretch_publishes_every_earlier_write(
        self, monkeypatch
    ):
        # ``charge_verify_many`` books a quiet stretch's verify charges
        # after its compute, link and executor writes.  Without a
        # ticker, the run's second call of it charges its second
        # stretch.
        raised_in = _raise_in_a_run(monkeypatch, "charge_verify_many", 2, ticks=0)
        assert [count > 1 for _, count in raised_in] == [True, True]


def _raise_in_a_run(monkeypatch, method, raise_at, ticks):
    """Raise in the ``raise_at``-th call of ``IntegrityChecker.<method>``
    of a blackscholes run, once published write-behind and once one
    write at a time, and check both publish the same writes.

    ``ticks`` arms :func:`tick_every_chunk`.  Returns the raising
    calls' arguments.
    """
    original = getattr(IntegrityChecker, method)
    config = dataclasses.replace(DEFAULT_CONFIG, integrity_enabled=True)
    workload = get_workload("blackscholes", scale=_SCALE)
    raised_in = []

    def snapshot_of(obs):
        calls = []

        def raising(checker, *args):
            result = original(checker, *args)
            calls.append(args)
            if len(calls) == raise_at:
                raised_in.append(args)
                raise RuntimeError("mid-chunk")
            return result

        with monkeypatch.context() as patch:
            patch.setattr(IntegrityChecker, method, raising)
            machine = build_machine(config, obs=obs)
            tick_every_chunk(machine.simulator, ticks)
            with pytest.raises(RuntimeError, match="mid-chunk"):
                ActivePy(config).run(
                    workload.program, workload.dataset, machine=machine,
                    options=RunOptions(obs=obs, progress_triggers=((0.5, 0.1),)),
                )
        return obs.metrics.snapshot()

    # Warm the profile cache, so both runs count one profcache hit.
    ActivePy(config).run(workload.program, workload.dataset)
    published = snapshot_of(Observability())
    assert "integrity.verified_bytes" in published["counters"]
    assert published == snapshot_of(_PerCallObservability())
    return raised_in


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert len(registry) == 1

    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")
        with pytest.raises(ObservabilityError):
            registry.histogram("x")

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(0.5)
        registry.histogram("h").observe(1e-3)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["counters"]["a"] == 2
        assert snapshot["gauges"]["g"] == 0.5
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_render_mentions_every_metric(self):
        registry = MetricsRegistry()
        assert "no metrics" in registry.render()
        registry.counter("hits").inc(3)
        assert "hits" in registry.render()

    def test_as_jsonable_is_sorted_across_kinds(self):
        """One flat series list, sorted by name regardless of kind or
        registration order, so two runs' snapshots diff cleanly."""
        registry = MetricsRegistry()
        registry.histogram("zz").observe(1.0)
        registry.counter("mm").inc(4)
        registry.gauge("aa").set(0.25)
        registry.counter("nn").inc()
        series = registry.as_jsonable()
        assert [entry["name"] for entry in series] == ["aa", "mm", "nn", "zz"]
        assert [entry["kind"] for entry in series] == [
            "gauge", "counter", "counter", "histogram",
        ]
        assert series[0]["value"] == 0.25
        assert series[1]["value"] == 4
        assert series[3]["value"]["count"] == 1
        # Registration order never leaks into the emitted order.
        other = MetricsRegistry()
        other.counter("nn").inc()
        other.gauge("aa").set(0.25)
        other.counter("mm").inc(4)
        other.histogram("zz").observe(1.0)
        assert other.as_jsonable() == series


@given(st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    min_size=1, max_size=50,
))
@settings(max_examples=60, deadline=None)
def test_counter_snapshots_are_monotone(amounts):
    """Counter values never decrease across snapshots."""
    registry = MetricsRegistry()
    previous = 0.0
    for amount in amounts:
        registry.counter("events").inc(amount)
        value = registry.snapshot()["counters"]["events"]
        assert value >= previous
        previous = value


class TestZeroSimulatedOverhead:
    """Enabling observability never changes simulated results."""

    @pytest.mark.parametrize("name", ["tpch_q6", "kmeans"])
    def test_total_seconds_bit_identical(self, name):
        workload = get_workload(name, scale=_SCALE)
        plain = ActivePy().run(workload.program, workload.dataset)
        observed = ActivePy().run(
            workload.program, workload.dataset,
            options=RunOptions(obs=Observability.with_tracing()),
        )
        # Exactly equal, not approximately: no metric or span advances
        # the simulated clock.
        assert observed.total_seconds == plain.total_seconds
        assert observed.result.total_seconds == plain.result.total_seconds

    def test_disabled_machine_records_nothing(self):
        workload = get_workload("tpch_q6", scale=_SCALE)
        report = ActivePy().run(workload.program, workload.dataset)
        assert report.obs is None
