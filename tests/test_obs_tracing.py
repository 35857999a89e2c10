"""The span tracer, the Chrome exporter, and the traced report's spans."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import (
    Observability,
    Span,
    Tracer,
    render_gantt,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload

_SCALE = 2 ** -7


class TestTracer:
    def test_record_and_read_back(self):
        tracer = Tracer()
        tracer.record("scan", "compute", "csd", 0.0, 1.5, {"chunk": 3})
        assert tracer.count == 1
        span = tracer.spans[0]
        assert span.name == "scan"
        assert span.duration == 1.5
        assert dict(span.args) == {"chunk": 3}

    def test_backwards_span_rejected(self):
        # Backwards or non-finite bounds: NaN compares False both ways,
        # so it needs its own check.
        tracer = Tracer()
        nan, inf = float("nan"), float("inf")
        for start, end in ((2.0, 1.0), (nan, 1.0), (0.0, nan), (0.0, inf),
                           (-inf, 0.0), (inf, inf)):
            with pytest.raises(ObservabilityError):
                tracer.record("x", "compute", "host", start, end)
        assert tracer.count == 0

    def test_spans_since_mark(self):
        tracer = Tracer()
        tracer.record("a", "compute", "host", 0.0, 1.0)
        mark = tracer.count
        tracer.record("b", "compute", "host", 1.0, 2.0)
        assert [s.name for s in tracer.spans_since(mark)] == ["b"]

    def test_trace_span_uses_bound_clock(self):
        from repro.sim.clock import SimClock

        clock = SimClock()
        obs = Observability.with_tracing()
        obs.bind_clock(clock)
        with obs.trace_span("phase", "compute", "host"):
            clock.advance(0.25)
        span = obs.tracer.spans[0]
        assert (span.start, span.end) == (0.0, 0.25)


class TestTimelineBackCompat:
    def test_traced_run_still_produces_timeline(self):
        workload = get_workload("tpch_q6", scale=_SCALE)
        report = ActivePy().run(
            workload.program, workload.dataset,
            options=RunOptions(trace=True),
        )
        assert report.spans is not None
        names = [span.name for span in report.spans]
        assert "sampling-phase" in names
        assert "codegen" in names
        # The report's spans are the obs tracer's, in recording order.
        assert report.obs is not None
        assert report.obs.tracer is not None
        assert list(report.spans) == report.obs.tracer.spans

    def test_untraced_run_has_no_timeline(self):
        workload = get_workload("tpch_q6", scale=_SCALE)
        report = ActivePy().run(workload.program, workload.dataset)
        assert report.spans is None


class TestChromeExport:
    def _traced_spans(self):
        workload = get_workload("tpch_q6", scale=_SCALE)
        obs = Observability.with_tracing()
        ActivePy().run(
            workload.program, workload.dataset, options=RunOptions(obs=obs),
        )
        return obs.tracer.spans

    def test_tpch_q6_trace_is_schema_valid(self):
        spans = self._traced_spans()
        assert spans
        trace = to_chrome_trace(spans)
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        # One metadata event per resource, one "X" event per span.
        assert sum(1 for e in events if e["ph"] == "X") == len(spans)
        for event in events:
            if event["ph"] != "X":
                continue
            assert event["ts"] >= 0 and event["dur"] >= 0
            # Microseconds: the first span starts at simulated t=0.
            assert event["pid"] == 1

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(self._traced_spans(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert validate_chrome_trace(loaded) == []

    def test_validator_flags_malformed_traces(self):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Q"}]}) != []
        missing_dur = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 1, "tid": 0, "ts": 0.0, "cat": "c"},
        ]}
        assert validate_chrome_trace(missing_dur) != []
        # Non-finite timestamps would be written as bare NaN/Infinity
        # tokens, which are not JSON.
        for ph, key in (("X", "ts"), ("X", "dur"), ("i", "ts")):
            event = {"ph": ph, "name": "a", "cat": "c", "pid": 1, "tid": 1,
                     "ts": 0.0, "dur": 0.0}
            assert validate_chrome_trace({"traceEvents": [event]}) == []
            for bad in (float("nan"), float("inf"), float("-inf")):
                broken = {"traceEvents": [{**event, key: bad}]}
                assert validate_chrome_trace(broken) != [], (ph, key, bad)


_RESOURCES = ("host", "csd0", "csd1", "d2h", "fleet")

_span_lists = st.lists(
    st.builds(
        lambda name, cat, resource, start, length, args: Span(
            name, cat, resource, start, start + length, args
        ),
        st.sampled_from(("scan", "job#1", "failover")),
        st.sampled_from(("compute", "transfer", "sampling", "job", "other")),
        st.sampled_from(_RESOURCES),
        st.floats(0.0, 1e3, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False),
        st.sampled_from(((), (("chunk", 3),), (("retry", 1), ("tenant", "a")))),
    ),
    max_size=12,
)


class TestOneTraceWriter:
    """Properties of the one trace-event builder behind every export."""

    @settings(max_examples=150, deadline=None)
    @given(spans=_span_lists, instants=_span_lists, data=st.data())
    def test_events_follow_the_track_order(self, spans, instants, data):
        from repro.obs.export import _chrome_trace

        used = {span.resource for span in spans + instants}
        tracks = data.draw(st.permutations(sorted(
            used | data.draw(st.sets(st.sampled_from(_RESOURCES)))
        )))
        trace = _chrome_trace(spans, instants, tracks)
        assert validate_chrome_trace(trace) == []
        json.dumps(trace, allow_nan=False)
        events = trace["traceEvents"]
        phases = [event["ph"] for event in events]
        assert phases.count("X") == len(spans)
        assert phases.count("i") == len(instants)
        assert phases.count("M") == len(tracks)
        # Metadata first, naming tids 1..n in track order ...
        metadata, timed = events[:len(tracks)], events[len(tracks):]
        assert [event["args"]["name"] for event in metadata] == list(tracks)
        assert [event["tid"] for event in metadata] == list(
            range(1, len(tracks) + 1)
        )
        # ... then every event in (ts, tid) order, on its resource's tid.
        keys = [(event["ts"], event["tid"]) for event in timed]
        assert keys == sorted(keys)
        tid_of = {track: tid for tid, track in enumerate(tracks, 1)}
        assert sorted((e["tid"], e["name"], e["ts"]) for e in timed) == sorted(
            (tid_of[s.resource], s.name, s.start * 1e6) for s in spans + instants
        )

    @settings(max_examples=100, deadline=None)
    @given(spans=_span_lists)
    def test_gantt_lanes_match_the_trace_threads(self, spans):
        threads = [
            event["args"]["name"]
            for event in to_chrome_trace(spans)["traceEvents"]
            if event["ph"] == "M"
        ]
        if not spans:
            assert threads == [] and render_gantt(spans) == "(empty timeline)"
            return
        lanes = render_gantt(spans, width=16).splitlines()[:-2]
        assert [lane.split(" |")[0].rstrip() for lane in lanes] == threads
