"""The ActivePy facade: the full pipeline on the toy program."""

import pytest

from repro.hw.topology import build_machine
from repro.runtime.activepy import ActivePy, RunOptions
from repro.runtime.planner import CSD
from repro.baselines import StaticIspBaseline, run_c_baseline

from .conftest import make_toy_dataset, make_toy_program


class TestEndToEnd:
    def test_report_exposes_every_stage(self, config, toy_program, toy_dataset):
        report = ActivePy(config).run(toy_program, toy_dataset)
        assert report.program_name == "toy"
        assert len(report.sampling.fits) == 3
        assert len(report.estimates) == 3
        assert len(report.plan.assignments) == 3
        assert report.result.total_seconds > 0
        assert report.total_seconds > report.result.total_seconds

    def test_overhead_is_sampling_plus_compile(self, config, toy_program, toy_dataset):
        report = ActivePy(config).run(toy_program, toy_dataset)
        expected = report.sampling.sampling_seconds + report.compiled.compile_seconds
        assert report.overhead_seconds == pytest.approx(expected, rel=1e-6)

    def test_finds_the_oracle_plan_on_clean_costs(self, config, toy_program, toy_dataset):
        # The toy program's cost laws are exact, so ActivePy must pick
        # exactly the programmer-directed regions (the paper's Fig. 4
        # "identified exactly the same set" claim).
        report = ActivePy(config).run(toy_program, toy_dataset)
        oracle = StaticIspBaseline(config).tune(toy_program, toy_dataset.n_records)
        assert report.plan.assignments == oracle.assignments

    def test_beats_c_baseline(self, config, toy_program, toy_dataset):
        report = ActivePy(config).run(toy_program, toy_dataset)
        baseline = run_c_baseline(toy_program, toy_dataset, config=config)
        assert report.total_seconds < baseline.total_seconds

    def test_dataset_registered_on_device(self, config, toy_program, toy_dataset):
        machine = build_machine(config)
        ActivePy(config).run(toy_program, toy_dataset, machine=machine)
        assert machine.csd.holds_dataset(toy_dataset.name)

    def test_binaries_distributed_through_bar(self, config, toy_program, toy_dataset):
        machine = build_machine(config)
        report = ActivePy(config).run(toy_program, toy_dataset, machine=machine)
        for index in report.plan.csd_lines:
            name = toy_program[index].name
            assert machine.csd.bar.binary_address(f"toy.{name}") is not None

    def test_migration_disabled_variant_runs(self, config, toy_program, toy_dataset):
        report = ActivePy(config, migration_enabled=False).run(
            toy_program, toy_dataset,
            options=RunOptions(progress_triggers=((0.5, 0.1),)),
        )
        assert not report.result.migrated

    def test_migration_enabled_reacts_to_stress(self, config, toy_program, toy_dataset):
        report = ActivePy(config, migration_enabled=True).run(
            toy_program, toy_dataset,
            options=RunOptions(progress_triggers=((0.5, 0.05),)),
        )
        if CSD in report.plan.assignments:
            assert report.result.migrated


class TestProjectionQuality:
    def test_projected_time_close_to_executed(self, config, toy_program, toy_dataset):
        # The plan's T_csd projection and the simulator's execution
        # must agree within the mode/latency slack — otherwise the
        # planner and executor model different machines.
        report = ActivePy(config).run(toy_program, toy_dataset)
        assert report.result.total_seconds == pytest.approx(
            report.plan.t_csd, rel=0.05
        )
