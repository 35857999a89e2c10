"""Utilization reporting."""

import pytest

from repro.analysis.utilization import utilization_report
from repro.errors import ReproError
from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy, RunOptions

from .conftest import make_toy_dataset, make_toy_program


class TestUtilizationReport:
    def test_covers_all_units_and_links(self, config, machine):
        machine.host.execute(8e9)
        report = utilization_report(machine)
        names = {row.name for row in report.rows}
        assert {"host", "csd", "host-storage", "d2h",
                "remote-access", "csd.internal"} <= names

    def test_busy_fractions_bounded(self, config):
        machine = build_machine(config)
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine
        )
        usage = utilization_report(machine, total_seconds=report.total_seconds)
        for row in usage.rows:
            assert 0.0 <= row.utilization <= 1.0

    def test_offloaded_run_shows_device_busy(self, config):
        machine = build_machine(config)
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine
        )
        usage = utilization_report(machine, total_seconds=report.total_seconds)
        assert usage.usage_of("csd").busy_seconds > 0
        assert usage.usage_of("csd.internal").busy_seconds > 0

    def test_render_mentions_every_resource(self, machine):
        machine.host.execute(1e9)
        text = utilization_report(machine, total_seconds=1.0).render()
        assert "host" in text and "d2h" in text and "%" in text

    def test_unknown_resource_rejected(self, machine):
        machine.host.execute(1e9)
        report = utilization_report(machine, total_seconds=1.0)
        with pytest.raises(ReproError):
            report.usage_of("gpu")

    def test_zero_window_rejected(self, machine):
        with pytest.raises(ReproError):
            utilization_report(machine, total_seconds=0.0)

    def test_timeline_spans_merged(self, config):
        machine = build_machine(config)
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine,
            options=RunOptions(trace=True),
        )
        usage = utilization_report(
            machine, total_seconds=report.total_seconds,
            spans=report.spans,
        )
        assert usage.total_seconds == report.total_seconds
