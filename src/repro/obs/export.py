"""Trace exporters: the one place spans become output.

Every layer records :class:`repro.obs.tracer.Span` records.  This module
turns them into:

* Chrome ``trace_event`` JSON (:func:`to_chrome_trace`, and
  :func:`to_fleet_chrome_trace` for a fleet report), the object format
  consumed by ``chrome://tracing`` and https://ui.perfetto.dev —
  complete "X" (duration) events with microsecond timestamps, "i"
  instant events, and one tracing *thread* per resource named by an
  "M" metadata event;
* a plain-text Gantt chart (:func:`render_gantt`), one lane per
  resource in the same order as the trace's threads.

:func:`validate_chrome_trace` checks an object against the subset of
the spec we emit, so tests can assert exported files actually load.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Sequence

from ..errors import FleetError
from ..units import format_seconds
from .tracer import Span

__all__ = [
    "render_gantt",
    "to_chrome_trace",
    "to_fleet_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_fleet_chrome_trace",
]

#: The simulated machine (or the whole fleet) is one tracing process;
#: resources are its threads.
_PID = 1

_US = 1e6  # trace_event timestamps are microseconds

#: Gantt mark per span category; anything else draws as ``#``.
_MARKS = {
    "sampling": "s",
    "compile": "c",
    "compute": "#",
    "storage": "=",
    "transfer": ">",
    "migration": "M",
}


def _first_appearance(spans: Iterable[Span]) -> List[str]:
    return list(dict.fromkeys(span.resource for span in spans))


def _chrome_trace(
    spans: Sequence[Span], instants: Sequence[Span], tracks: Sequence[str]
) -> Dict[str, object]:
    """The trace object: thread metadata first, then events by (ts, tid).

    The stable sort keeps the raw JSON chronological (readable as a
    log, stable to diff); viewers re-sort anyway.
    """
    tids = {track: tid for tid, track in enumerate(tracks, 1)}
    events = [{
        "name": span.name, "cat": span.cat, "ph": "X",
        "ts": span.start * _US, "dur": (span.end - span.start) * _US,
        "pid": _PID, "tid": tids[span.resource], "args": dict(span.args),
    } for span in spans]
    events += [{
        "name": span.name, "cat": span.cat, "ph": "i", "s": "t",
        "ts": span.start * _US,
        "pid": _PID, "tid": tids[span.resource], "args": dict(span.args),
    } for span in instants]
    events.sort(key=lambda event: (event["ts"], event["tid"]))
    metadata = [{
        "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
        "args": {"name": track},
    } for track, tid in tids.items()]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "time_unit_source": "seconds"},
    }


def _write(trace: Dict[str, object], path: str) -> Dict[str, object]:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(trace, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return trace


def to_chrome_trace(spans: Iterable[Span]) -> Dict[str, object]:
    """Render spans as a Chrome ``trace_event`` JSON object.

    Resources map to tracing threads in order of first appearance, so
    the Perfetto track order matches :func:`render_gantt`'s lanes.
    """
    spans = list(spans)
    return _chrome_trace(spans, (), _first_appearance(spans))


def write_chrome_trace(spans: Sequence[Span], path: str) -> Dict[str, object]:
    """Export spans to ``path`` as Chrome trace JSON; returns the object."""
    return _write(to_chrome_trace(spans), path)


def to_fleet_chrome_trace(report) -> Dict[str, object]:
    """Render a :class:`~repro.fleet.FleetReport`'s trace material.

    One track per CSD, sorted by name, then the synthetic ``fleet``
    track for fleet-scoped instants (sheds, retries).  Raises
    :class:`FleetError` when the report carries no trace material —
    the run had no tracer attached.
    """
    spans, instants = report.trace_spans, report.trace_instants
    if not spans and not instants:
        raise FleetError(
            "this fleet report carries no trace material; run the fleet "
            "with Observability.with_tracing() (or "
            "with_timeseries(tracing=True)) to collect spans"
        )
    devices = {span.resource for span in spans}
    devices.update(instant.resource for instant in instants)
    devices.discard("fleet")
    return _chrome_trace(spans, instants, sorted(devices) + ["fleet"])


def write_fleet_chrome_trace(report, path: str) -> Dict[str, object]:
    """Export a fleet report's trace to ``path``; returns the object."""
    return _write(to_fleet_chrome_trace(report), path)


def render_gantt(spans: Sequence[Span], width: int = 64) -> str:
    """Plain-text Gantt chart, one lane per resource.

    Lanes follow first appearance in ``spans`` (the Chrome trace's
    thread order); marks are drawn in time order, so a later span
    overdraws an earlier one in the same cell.
    """
    if not spans:
        return "(empty timeline)"
    t0 = min(span.start for span in spans)
    total = max(max(span.end for span in spans) - t0, 1e-12)
    lanes = {track: [" "] * width for track in _first_appearance(spans)}
    label_width = max(map(len, lanes))
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        lo = int((span.start - t0) / total * (width - 1))
        hi = max(lo + 1, int(round((span.end - t0) / total * (width - 1))) + 1)
        mark = _MARKS.get(span.cat, "#")
        lane = lanes[span.resource]
        for i in range(lo, min(hi, width)):
            lane[i] = mark
    lines = [
        f"{track.ljust(label_width)} |{''.join(lane)}|"
        for track, lane in lanes.items()
    ]
    axis = format_seconds(total)
    lines.append(f"{' ' * label_width}  0{' ' * (width - len(axis) - 1)}{axis}")
    legend = "  ".join(f"{mark}={cat}" for cat, mark in _MARKS.items())
    lines.append(f"{' ' * label_width}  {legend}")
    return "\n".join(lines)


def _bad_number(value: object) -> str:
    """Why ``value`` is not a usable timestamp, or "" when it is."""
    if not isinstance(value, (int, float)):
        return "must be a number"
    if not math.isfinite(value):
        return "must be finite"
    if value < 0:
        return "is negative"
    return ""


def validate_chrome_trace(obj: object) -> List[str]:
    """Check an object against the trace_event subset we emit.

    Accepts "X" (duration), "M" (metadata), and "i" (instant) phases.
    Returns a list of problems — empty means the trace is well-formed
    and will load in ``chrome://tracing``/Perfetto.
    """
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where} must be an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "M", "i"):
            problems.append(f"{where} has unsupported phase {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                problems.append(f"{where} is missing {key!r}")
        if ph == "M":
            continue
        timed = ("ts", "dur") if ph == "X" else ("ts",)
        if ph == "X" and "cat" not in event:
            problems.append(f"{where} is missing 'cat'")
        for key in timed:
            if key not in event:
                problems.append(f"{where} is missing {key!r}")
            elif (problem := _bad_number(event[key])):
                problems.append(f"{where} {key} {problem}")
        if ph == "i" and event.get("s", "t") not in ("g", "p", "t"):
            problems.append(
                f"{where} has invalid instant scope {event.get('s')!r}"
            )
    return problems
