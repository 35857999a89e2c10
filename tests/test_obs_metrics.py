"""The metrics registry, and the zero-simulated-overhead contract."""

import math
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_TIME_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    Observability,
)
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload

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
