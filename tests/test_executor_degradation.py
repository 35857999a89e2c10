"""Gradual CSE degradation: the monitor's trend trigger end to end."""

import pytest

from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy
from repro.runtime.planner import CSD

from .conftest import make_toy_dataset, make_toy_program


class TestGradualDegradation:
    def test_slow_decline_above_threshold_does_not_thrash(self, config):
        # Availability drifts 1.0 -> 0.85 in small steps, always above
        # the 70% threshold; the trend detector fires re-estimations,
        # but the economics say stay — no migration thrash.
        machine = build_machine(config)
        for step, availability in enumerate((0.97, 0.93, 0.89, 0.85)):
            machine.csd.cse.schedule_availability(
                at_time=0.2 + 0.05 * step, fraction=availability
            )
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine
        )
        assert not report.result.migrated
        assert report.result.total_seconds > 0

    def test_decline_through_threshold_migrates_at_most_once(self, config):
        # A staircase decline fires the monitor repeatedly; whatever the
        # economics decide, the runtime must never thrash (migrate
        # twice) and must finish.  Whether it migrates depends on how
        # much work is left when the floor drops — both outcomes are
        # legitimate here.
        machine = build_machine(config)
        for step, availability in enumerate((0.9, 0.7, 0.45, 0.25, 0.1)):
            machine.csd.cse.schedule_availability(
                at_time=0.2 + 0.08 * step, fraction=availability
            )
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine
        )
        assert len(report.result.migrations) <= 1
        assert CSD in report.plan.assignments
        assert report.result.total_seconds > 0

    def test_early_deep_drop_migrates(self, config):
        # The floor falls to 5% right as the offloaded scan begins:
        # nearly all the work is still ahead, so migration must win.
        machine = build_machine(config)
        machine.csd.cse.schedule_availability(at_time=0.15, fraction=0.05)
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine
        )
        assert report.result.migrated

    def test_recovery_before_the_csd_line_means_no_migration(self, config):
        # A dip that ends before the offloaded work starts is invisible.
        machine = build_machine(config)
        machine.csd.cse.schedule_availability(at_time=0.01, fraction=0.1)
        machine.csd.cse.schedule_availability(at_time=0.05, fraction=1.0)
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine
        )
        # Sampling+compile run until ~0.12s, so the dip is over.
        assert not report.result.migrated

    def test_migration_cost_accounted_in_totals(self, config):
        machine = build_machine(config)
        machine.csd.cse.schedule_availability(at_time=0.2, fraction=0.05)
        report = ActivePy(config).run(
            make_toy_program(), make_toy_dataset(), machine=machine
        )
        if report.result.migrated:
            event = report.result.migrations[0]
            assert event.cost_seconds >= (
                config.compile_overhead_s + config.migration_state_cost_s
            )
            assert event.sim_time <= report.result.finished_at


class TestCsrSweep:
    def test_always_overestimates_across_matrices(self, csr_sweep):
        assert all(row.ratio > 1.0 for row in csr_sweep)

    def test_denser_population_widens_the_gap(self, csr_sweep):
        (sparse,) = [r for r in csr_sweep if (r.avg_degree, r.alpha) == (4.0, 1.5)]
        (dense,) = [r for r in csr_sweep if (r.avg_degree, r.alpha) == (16.0, 1.5)]
        # Sample prefixes always look like degree ~1; the denser the
        # true population, the larger the over-estimate.
        assert dense.ratio > sparse.ratio
