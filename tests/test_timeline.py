"""The execution timeline: a traced run's spans as Gantt and utilization text."""

import hashlib

import pytest

from repro.analysis.utilization import utilization_report
from repro.config import SystemConfig
from repro.hw.topology import build_machine
from repro.obs import Span, render_gantt
from repro.runtime.activepy import ActivePy, RunOptions
from repro.workloads import get_workload, workload_names

from .conftest import make_toy_dataset, make_toy_program

#: sha256 over ``render_gantt(report.spans)`` and the
#: ``utilization_report(machine, total_seconds=..., spans=...)`` text of
#: every rotation workload at 2**-6 with a ``(0.5, 0.1)`` progress
#: trigger, each text followed by a NUL byte.  Computed before the Gantt
#: and the utilization report were drawn from ``Span`` records, so it
#: holds the bytes the text had then.
PINNED_TIMELINE_TEXT_DIGEST = (
    "2d6d7d36b06ec475297d9b2c72a21f6a3c72890a9ac1a09418edd602b86cc31d"
)


def _span(start, end, resource="host", cat="compute", name="x"):
    return Span(name, cat, resource, start, end)


class TestRecording:
    def test_busy_seconds_per_resource(self, machine):
        machine.host.execute(1e9)
        spans = [
            _span(0.0, 1.0, "phase"),
            _span(1.5, 2.0, "other"),
            _span(2.0, 2.5, "phase"),
        ]
        report = utilization_report(machine, total_seconds=4.0, spans=spans)
        assert report.usage_of("phase").busy_seconds == pytest.approx(1.5)
        assert report.usage_of("other").busy_seconds == pytest.approx(0.5)
        assert [row.name for row in report.rows][-2:] == ["phase", "other"]
        # A span resource the machine already reports gets no second row.
        spans.append(_span(0.0, 1.0, "host"))
        report = utilization_report(machine, total_seconds=4.0, spans=spans)
        assert [row.name for row in report.rows].count("host") == 1

    def test_makespan(self):
        # The Gantt's time axis ends at the makespan.
        text = render_gantt([_span(1.0, 2.0), _span(3.0, 5.0, "csd")])
        axis = text.splitlines()[-2]
        assert axis.endswith("4.00 s")


class TestRendering:
    def test_empty(self):
        assert render_gantt([]) == "(empty timeline)"

    def test_lanes_per_resource(self):
        spans = [_span(0.0, 1.0), _span(1.0, 2.0, "csd", "transfer")]
        lanes = render_gantt(spans, width=20).splitlines()[:2]
        assert lanes[0].startswith("host |") and "#" in lanes[0]
        assert lanes[1].startswith("csd  |") and ">" in lanes[1]
        assert all(len(lane) == len("host |") + 20 + 1 for lane in lanes)


class TestIntegrationWithRuntime:
    def test_traced_run_covers_every_line(self, config):
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(),
            options=RunOptions(trace=True),
        )
        assert report.spans is not None
        names = {span.name for span in report.spans}
        assert {"sampling-phase", "codegen", "scan", "crunch", "reduce"} <= names

    def test_trace_time_conservation(self, config):
        # Spans on the critical path must tile the run: sampling +
        # compile + per-line spans account for the whole duration.
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(),
            options=RunOptions(trace=True),
        )
        covered = sum(
            span.duration for span in report.spans
            if span.cat in ("sampling", "compile", "compute")
        )
        assert covered == pytest.approx(report.total_seconds, rel=0.02)

    def test_untraced_run_has_no_timeline(self, config):
        report = ActivePy(config).run(make_toy_program(), make_toy_dataset())
        assert report.spans is None

    def test_migration_span_recorded(self, config):
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(),
            options=RunOptions(trace=True, progress_triggers=((0.3, 0.05),)),
        )
        if report.result.migrated:
            assert "migration" in {span.cat for span in report.spans}


class TestPinnedText:
    def test_gantt_and_utilization_text_is_pinned(self):
        digest = hashlib.sha256()
        for name in workload_names():
            workload = get_workload(name, scale=2 ** -6)
            config = SystemConfig()
            machine = build_machine(config)
            report = ActivePy(config).run(
                workload.program, workload.dataset, machine=machine,
                options=RunOptions(trace=True, progress_triggers=((0.5, 0.1),)),
            )
            usage = utilization_report(
                machine, total_seconds=report.total_seconds, spans=report.spans,
            )
            for text in (render_gantt(report.spans), usage.render()):
                digest.update(text.encode())
                digest.update(b"\0")
        assert digest.hexdigest() == PINNED_TIMELINE_TEXT_DIGEST
