"""The flight recorder: series semantics, alerts, and the Observability wiring."""

import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.fleet import percentile
from repro.obs import (
    AlertRule,
    FlightRecorder,
    Observability,
    TimeSeries,
    evaluate_alerts,
    sparkline,
)


class TestTimeSeries:
    def test_points_keep_time_order(self):
        series = TimeSeries("s", "samples", capacity=8)
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        with pytest.raises(ObservabilityError):
            series.append(0.5, 3.0)

    def test_gauge_same_instant_overwrites(self):
        series = TimeSeries("s", "gauge", capacity=8)
        series.append(1.0, 10.0)
        series.append(1.0, 20.0)
        assert list(series) == [(1.0, 20.0)]

    def test_sample_same_instant_appends(self):
        series = TimeSeries("s", "samples", capacity=8)
        series.append(1.0, 10.0)
        series.append(1.0, 20.0)
        assert series.values() == [10.0, 20.0]

    def test_ring_drops_oldest(self):
        series = TimeSeries("s", "gauge", capacity=3)
        for t in range(5):
            series.append(float(t), float(t * 10))
        assert series.times() == [2.0, 3.0, 4.0]
        assert series.last() == (4.0, 40.0)

    @pytest.mark.parametrize("kind", ["gauge", "rate", "samples"])
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, kind, t):
        series = TimeSeries("s", kind, capacity=8)
        with pytest.raises(ObservabilityError, match="not a finite"):
            series.append(t, 1.0)
        assert len(series) == 0

    def test_nan_cannot_open_a_door_to_older_points(self):
        recorder = FlightRecorder()
        recorder.observe("lat", 5.0, 1.0)
        with pytest.raises(ObservabilityError):
            recorder.observe("lat", float("nan"), 2.0)
        with pytest.raises(ObservabilityError):
            recorder.observe("lat", 1.0, 3.0)
        assert list(recorder.series("lat")) == [(5.0, 1.0)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError):
            TimeSeries("s", "ewma", capacity=8)


class TestFlightRecorder:
    def test_kind_exclusivity(self):
        recorder = FlightRecorder()
        recorder.gauge("x", 0.0, 1.0)
        with pytest.raises(ObservabilityError):
            recorder.count("x", 1.0)
        with pytest.raises(ObservabilityError):
            recorder.observe("x", 1.0, 1.0)

    def test_unknown_series_is_loud(self):
        with pytest.raises(ObservabilityError):
            FlightRecorder().series("nope")

    def test_rate_windows_emit_events_per_second(self):
        recorder = FlightRecorder(window_s=0.5)
        recorder.count("r", 0.1)
        recorder.count("r", 0.2)
        recorder.count("r", 0.3, amount=2.0)
        # Nothing emitted until time leaves the window...
        assert len(recorder.series("r")) == 0
        recorder.count("r", 0.7)
        # ...then the closed window lands at its end timestamp, in /s.
        assert list(recorder.series("r")) == [(0.5, 8.0)]
        recorder.finalize(0.7)
        assert list(recorder.series("r")) == [(0.5, 8.0), (1.0, 2.0)]

    def test_rate_zero_fills_quiet_windows(self):
        recorder = FlightRecorder(window_s=1.0)
        recorder.count("r", 0.5)
        recorder.count("r", 3.5)
        assert list(recorder.series("r")) == [(1.0, 1.0), (2.0, 0.0), (3.0, 0.0)]

    def test_rate_zero_fill_is_capacity_bounded(self):
        recorder = FlightRecorder(window_s=1.0, capacity=4)
        recorder.count("r", 0.5)
        recorder.count("r", 1000.5)
        assert len(recorder.series("r")) == 4

    def test_rate_rejects_negative_and_backwards(self):
        recorder = FlightRecorder(window_s=1.0)
        with pytest.raises(ObservabilityError):
            recorder.count("r", 0.5, amount=-1.0)
        recorder.count("r", 5.0)
        with pytest.raises(ObservabilityError):
            recorder.count("r", 2.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_rate_rejects_non_finite_time(self, t):
        recorder = FlightRecorder(window_s=1.0)
        with pytest.raises(ObservabilityError, match="not a finite"):
            recorder.count("r", t)
        recorder.count("r", 0.5)
        with pytest.raises(ObservabilityError, match="not a finite"):
            recorder.count("r", t)
        recorder.finalize(0.5)
        assert list(recorder.series("r")) == [(1.0, 1.0)]

    def test_window_percentile_matches_slo_percentile(self):
        recorder = FlightRecorder(window_s=1.0, sample_horizon_s=4.0)
        samples = [(0.0, 9.0), (7.0, 1.0), (8.0, 2.0), (9.0, 3.0), (10.0, 4.0)]
        for t, value in samples:
            recorder.observe("lat", t, value)
        in_window = [1.0, 2.0, 3.0, 4.0]  # the t=0 sample fell out
        assert recorder.window_values("lat", 10.0) == in_window
        for q in (0.0, 50.0, 99.0, 100.0):
            assert recorder.window_percentile("lat", q, 10.0) == percentile(
                in_window, q
            )

    def test_window_percentile_empty_horizon_is_zero(self):
        recorder = FlightRecorder(window_s=1.0, sample_horizon_s=1.0)
        recorder.observe("lat", 0.0, 5.0)
        assert recorder.window_percentile("lat", 99.0, 100.0) == 0.0

    def test_to_jsonable_sorted_and_complete(self):
        recorder = FlightRecorder(window_s=0.5)
        recorder.gauge("z", 0.0, 1.0)
        recorder.observe("a", 0.0, 2.0)
        recorder.count("m", 0.0)
        payload = recorder.to_jsonable()
        assert list(payload["series"]) == ["a", "m", "z"]
        assert payload["window_s"] == 0.5
        assert payload["series"]["a"] == {"kind": "samples", "points": [[0.0, 2.0]]}

    def test_render_mentions_every_series(self):
        recorder = FlightRecorder()
        assert "no series" in recorder.render()
        recorder.gauge("depth", 0.0, 3.0)
        dashboard = recorder.render()
        assert "depth" in dashboard and "gauge" in dashboard

    def test_validation(self):
        with pytest.raises(ObservabilityError):
            FlightRecorder(window_s=0.0)
        with pytest.raises(ObservabilityError):
            FlightRecorder(capacity=0)
        with pytest.raises(ObservabilityError):
            FlightRecorder(sample_horizon_s=-1.0)


class _CountingDeque(deque):
    """A ring that counts every point its iterators hand out."""

    examined = 0

    def __iter__(self):
        for point in super().__iter__():
            self.examined += 1
            yield point

    def __reversed__(self):
        for point in super().__reversed__():
            self.examined += 1
            yield point


class TestWindowQueries:
    """Sliding-window queries against a brute-force filter of the ring."""

    # Times, horizons and ``now`` all sit on a 0.25 s grid, so they are
    # exact in binary and horizon edges land exactly on points.
    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(
        kind=st.sampled_from(["samples", "gauge"]),
        capacity=st.integers(1, 12),
        steps=st.lists(st.integers(0, 3), max_size=40),
        horizon_steps=st.integers(1, 16),
        now_steps=st.integers(-4, 130),
        q=st.sampled_from([0.0, 37.5, 50.0, 99.0, 100.0]),
    )
    def test_window_matches_brute_force(
        self, kind, capacity, steps, horizon_steps, now_steps, q
    ):
        recorder = FlightRecorder(
            capacity=capacity, sample_horizon_s=horizon_steps * 0.25
        )
        record = recorder.observe if kind == "samples" else recorder.gauge
        t = 0.0
        for value, step in enumerate(steps):
            t += step * 0.25  # a zero step is a tie
            record("s", t, float(value % 7))
        if "s" not in recorder:
            return
        now = now_steps * 0.25
        start = now - recorder.sample_horizon_s
        oracle = [v for t, v in list(recorder.series("s")) if start <= t <= now]
        assert recorder.window_values("s", now) == oracle
        expected = percentile(oracle, q) if oracle else 0.0
        assert recorder.window_percentile("s", q, now) == expected

    def test_query_examines_only_the_horizon(self):
        recorder = FlightRecorder(capacity=4096, sample_horizon_s=2.0)
        for i in range(4086):
            recorder.observe("lat", i * 10.0, 0.0)
        for j in range(10):
            newest = 4086 * 10.0 + j * 0.2
            recorder.observe("lat", newest, float(j))
        series = recorder.series("lat")
        assert len(series) == 4096
        series.points = _CountingDeque(series.points, maxlen=4096)
        assert recorder.window_values("lat", newest) == [float(j) for j in range(10)]
        # The ten points in the horizon plus the one older point that
        # ends the scan.
        assert series.points.examined <= 11


class TestSlidingWindows:
    """``FlightRecorder.sliding_windows`` against a replay of each sample.

    The oracle observes the samples one by one into a fresh recorder
    and, after each, reads the window at the sample's own time: its p50
    and p99 by :func:`repro.fleet.percentile` and its share of values
    above ``target`` over ``budget``.  Signed zeros and ties are in the
    mix, and each value is compared with its sign.
    """

    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(
        capacity=st.integers(1, 12),
        steps=st.lists(st.integers(0, 3), min_size=1, max_size=40),
        values=st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 1e300])
            | st.floats(-1e6, 1e6), min_size=40, max_size=40,
        ),
        horizon_steps=st.integers(1, 16),
        target=st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
        budget=st.sampled_from([1.0, 0.01, 0.3]),
    )
    def test_every_window_matches_the_replay(
        self, capacity, steps, values, horizon_steps, target, budget
    ):
        recorder = FlightRecorder(
            capacity=capacity, sample_horizon_s=horizon_steps * 0.25
        )
        samples, t = [], 0.0
        for step, value in zip(steps, values):
            t += step * 0.25  # a zero step is a tie
            samples.append((t, value))
        replay = FlightRecorder(
            capacity=capacity, sample_horizon_s=horizon_steps * 0.25
        )
        expected = ([], [], [])
        for t, value in samples:
            replay.observe("s", t, value)
            window = replay.window_values("s", t)
            over = sum(1 for v in window if v > target)
            expected[0].append((t, percentile(window, 50.0)))
            expected[1].append((t, percentile(window, 99.0)))
            expected[2].append((t, over / len(window) / budget))

        def signed(points):
            return [(t, v, math.copysign(1.0, v)) for t, v in points]

        got = recorder.sliding_windows(samples, target, budget)
        assert [signed(points) for points in got] == [
            signed(points) for points in expected
        ]
        assert "s" not in recorder  # nothing is recorded


class TestSparkline:
    def test_empty_and_constant(self):
        assert sparkline([]) == "(empty)"
        flat = sparkline([2.0, 2.0, 2.0])
        assert len(flat) == 3 and len(set(flat)) == 1

    def test_monotone_values_render_monotone_blocks(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert list(line) == sorted(line)
        assert line[0] != line[-1]

    def test_width_keeps_most_recent(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.floats(min_value=-1e6, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200,
    ))
    def test_output_is_always_blocks(self, values):
        line = sparkline(values)
        assert 0 < len(line) <= 60
        assert set(line) <= set("▁▂▃▄▅▆▇█")


class TestAlerts:
    def _recorder_with(self, points, name="p99"):
        recorder = FlightRecorder()
        for t, value in points:
            recorder.gauge(name, t, value)
        return recorder

    def test_fires_on_nth_consecutive_breach(self):
        rule = AlertRule(name="hot", series="p99", threshold=1.0, consecutive=3)
        recorder = self._recorder_with(
            [(0.0, 2.0), (1.0, 2.0), (2.0, 0.5), (3.0, 2.0), (4.0, 2.0),
             (5.0, 2.0), (6.0, 2.0)]
        )
        events = evaluate_alerts(recorder, [rule])
        # The first streak dies at two; the second fires once at t=5
        # and stays quiet at t=6 (no re-fire without recovery).
        assert [event.at_time for event in events] == [5.0]
        assert events[0].rule == "hot"
        assert events[0].value == 2.0

    def test_rearms_after_recovery(self):
        rule = AlertRule(name="hot", series="p99", threshold=1.0, consecutive=2)
        recorder = self._recorder_with(
            [(0.0, 2.0), (1.0, 2.0), (2.0, 0.5), (3.0, 2.0), (4.0, 2.0)]
        )
        events = evaluate_alerts(recorder, [rule])
        assert [event.at_time for event in events] == [1.0, 4.0]

    def test_missing_series_is_quiet(self):
        rule = AlertRule(name="hot", series="never-recorded", threshold=1.0)
        assert evaluate_alerts(FlightRecorder(), [rule]) == ()

    def test_comparison_ops(self):
        recorder = self._recorder_with([(0.0, 0.5)], name="low")
        rule = AlertRule(
            name="cold", series="low", threshold=1.0, op="<", consecutive=1
        )
        events = evaluate_alerts(recorder, [rule])
        assert len(events) == 1
        assert "ALERT cold" in events[0].render()
        assert events[0].to_jsonable()["threshold"] == 1.0

    def test_rule_validation(self):
        with pytest.raises(ObservabilityError):
            AlertRule(name="", series="s", threshold=1.0)
        with pytest.raises(ObservabilityError):
            AlertRule(name="r", series="s", threshold=1.0, op="!=")
        with pytest.raises(ObservabilityError):
            AlertRule(name="r", series="s", threshold=1.0, consecutive=0)

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=60,
        ),
        consecutive=st.integers(min_value=1, max_value=5),
    )
    def test_alert_count_matches_breach_episodes(self, values, consecutive):
        """One alert per episode of >= `consecutive` breaching points."""
        recorder = self._recorder_with(
            [(float(i), value) for i, value in enumerate(values)]
        )
        rule = AlertRule(name="r", series="p99", threshold=1.0,
                         consecutive=consecutive)
        events = evaluate_alerts(recorder, [rule])
        episodes = 0
        streak = 0
        for value in values:
            streak = streak + 1 if value > 1.0 else 0
            if streak == consecutive:
                episodes += 1
        assert len(events) == episodes


#: The point-by-point write of each series kind.
_POINT_WRITE = {"gauge": "gauge", "samples": "observe", "rate": "count"}


@st.composite
def _series_points(draw):
    """A kind and its ``(t, value)`` points at finite, non-decreasing ``t``.

    Steps of 0 repeat an instant (a gauge overwrites it); steps of 40 s
    leave 160 quiet 0.25 s rate windows, more than a small ring holds.
    """
    kind = draw(st.sampled_from(sorted(_POINT_WRITE)))
    values = (
        st.floats(0.0, 100.0) if kind == "rate" else st.floats(-1e3, 1e3)
    )
    t = draw(st.floats(0.0, 2.0))
    points = []
    for step in draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.05, 0.25, 0.7, 3.0, 40.0]),
        min_size=1, max_size=40,
    )):
        t += step
        points.append((t, draw(values)))
    return kind, points


class TestBatchMatchesPointWrites:
    """``FlightRecorder.record`` against one ``gauge``/``observe``/``count``
    call per point: same series, same errors, same state after an error."""

    @settings(max_examples=150, deadline=None, print_blob=True)
    @given(
        series=st.lists(_series_points(), min_size=1, max_size=3),
        capacity=st.sampled_from([1, 2, 3, 5, 8, 4096]),
        cuts=st.lists(st.integers(1, 40), max_size=4),
    )
    def test_any_batching_gives_the_same_recorder(self, series, capacity, cuts):
        pointwise = FlightRecorder(capacity=capacity)
        batched = FlightRecorder(capacity=capacity)
        for index, (kind, points) in enumerate(series):
            name = f"s{index}"
            write = getattr(pointwise, _POINT_WRITE[kind])
            for t, value in points:
                write(name, t, value)
            bounds = sorted({0, len(points), *(c for c in cuts if c < len(points))})
            for lo, hi in zip(bounds, bounds[1:]):
                batched.record(name, kind, points[lo:hi])
        end = max(t for _, points in series for t, _ in points)
        pointwise.finalize(end)
        batched.finalize(end)
        assert batched.to_jsonable() == pointwise.to_jsonable()

    @settings(max_examples=150, deadline=None, print_blob=True)
    @given(
        series=_series_points(),
        bad=st.sampled_from(["backwards", "nan", "inf", "-inf"]),
        where=st.integers(0, 40),
        capacity=st.sampled_from([1, 3, 4096]),
    )
    def test_a_bad_time_fails_alike(self, series, bad, where, capacity):
        kind, points = series
        where = min(where, len(points))
        if bad == "backwards":
            if where == 0:
                where = 1
            # A whole second back is an earlier 0.25 s rate window too.
            t = points[where - 1][0] - 1.0
        else:
            t = float(bad)
        points = [*points[:where], (t, 1.0), *points[where:]]
        pointwise = FlightRecorder(capacity=capacity)
        batched = FlightRecorder(capacity=capacity)
        write = getattr(pointwise, _POINT_WRITE[kind])
        with pytest.raises(ObservabilityError) as point_error:
            for point_t, value in points:
                write("s", point_t, value)
        with pytest.raises(ObservabilityError) as batch_error:
            batched.record("s", kind, points)
        assert str(batch_error.value) == str(point_error.value)
        assert batched.to_jsonable() == pointwise.to_jsonable()

    def test_empty_batch_records_nothing(self):
        recorder = FlightRecorder()
        for kind in _POINT_WRITE:
            recorder.record(kind, kind, [])
        assert recorder.names() == []


def _oracle_rate_windows(points, window_s, capacity):
    """Rate windows by integer index ``int(t // window_s)``: the closed
    windows' points, the last ``capacity`` of them, and the open
    window's ``(index, total)``."""
    closed, open_index, total = [], None, 0.0
    for t, amount in points:
        index = int(t // window_s)
        if open_index is not None and index != open_index:
            closed.append(((open_index + 1) * window_s, total / window_s))
            first = max(open_index + 1, index - capacity)
            closed.extend(((zero + 1) * window_s, 0.0) for zero in range(first, index))
            total = 0.0
        open_index = index
        total += amount
    return closed[-capacity:], (open_index, total)


@st.composite
def _rate_times(draw):
    """A window width and non-decreasing times at its edges: exact
    window boundaries and their float neighbours, ``-0.0``, and times
    whose window index is at or beyond 2**53."""
    window_s = draw(st.sampled_from([0.25, 0.1, 1.0, 3.0, 1e-3]))
    edge = st.one_of(
        st.integers(-2, 50).map(lambda n: n * window_s),
        st.integers(2 ** 52, 2 ** 62).map(lambda n: n * window_s),
        st.integers(0, 2 ** 62).map(float),
    )
    near_edge = st.tuples(edge, st.sampled_from([-1, 0, 0, 1])).map(
        lambda pair: math.nextafter(pair[0], math.copysign(math.inf, pair[1]))
        if pair[1] else pair[0]
    )
    times = draw(st.lists(
        st.one_of(near_edge, st.just(-0.0), st.just(0.0),
                  st.floats(0.0, 2.0 ** 80, allow_nan=False)),
        min_size=1, max_size=30,
    ))
    return window_s, sorted(times)


class TestRateWindowIndex:
    """The recorder's float window index against ``int(t // window_s)``."""

    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(
        case=_rate_times(),
        amounts=st.lists(st.sampled_from([0.0, 1.0, 0.5, 3.0]), min_size=30, max_size=30),
        capacity=st.sampled_from([1, 3, 4096]),
        cut=st.integers(0, 30),
    )
    def test_matches_integer_index(self, case, amounts, capacity, cut):
        window_s, times = case
        points = list(zip(times, amounts))
        recorder = FlightRecorder(window_s=window_s, capacity=capacity)
        recorder.record("r", "rate", points[:cut])
        recorder.record("r", "rate", points[cut:])
        closed, (open_index, total) = _oracle_rate_windows(points, window_s, capacity)
        stored = list(recorder.series("r")) if "r" in recorder else []
        assert stored == closed
        window = recorder._open_windows["r"]
        assert int(window.index) == open_index
        assert window.total == total
        # The partial window flushes at the index's end, exactly.
        recorder.finalize(times[-1])
        assert list(recorder.series("r"))[-1] == (
            (open_index + 1) * window_s, total / window_s,
        )


class TestObservabilityWiring:
    def test_with_timeseries_attaches_recorder(self):
        obs = Observability.with_timeseries(window_s=0.5)
        assert obs.recording
        assert obs.timeseries.window_s == 0.5
        assert not Observability().recording
        assert not Observability.disabled().recording

    def test_handle_recorder_takes_every_kind(self):
        obs = Observability.with_timeseries()
        obs.timeseries.gauge("g", 0.0, 1.0)
        obs.timeseries.count("c", 0.0)
        obs.timeseries.observe("o", 0.0, 2.0)
        assert obs.timeseries.names() == ["c", "g", "o"]

    def test_disabled_handle_with_recorder_stays_silent(self):
        # Call sites guard on ``recording``, which a disabled handle
        # never reports, recorder or not.
        obs = Observability(
            enabled=False, timeseries=FlightRecorder()
        )
        assert not obs.recording

    def test_adopt_redirects_recorder(self):
        mine = Observability.with_timeseries()
        machine_side = Observability()
        machine_side.adopt(mine)
        assert machine_side.recording
        machine_side.timeseries.gauge("g", 0.0, 1.0)
        assert mine.timeseries.names() == ["g"]

    def test_ensure_timeseries_is_idempotent(self):
        obs = Observability()
        recorder = obs.ensure_timeseries(window_s=0.125)
        assert obs.ensure_timeseries() is recorder
        assert recorder.window_s == 0.125
