"""Baselines: the language ladder and the programmer-directed oracle."""

import pytest

from repro.errors import PlanningError
from repro.hw.topology import build_machine
from repro.runtime.codegen import ExecutionMode
from repro.runtime.planner import CSD, HOST
from repro.baselines import (
    StaticIspBaseline,
    ground_truth_estimates,
    run_c_baseline,
    run_host_only,
)

from .conftest import make_toy_dataset, make_toy_program


class TestLanguageLadder:
    def test_python_slower_than_cython_slower_than_c(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        c = run_c_baseline(program, dataset, config=config)
        cython = run_host_only(program, dataset, ExecutionMode.CYTHON, config)
        python = run_host_only(program, dataset, ExecutionMode.PYTHON, config)
        assert c.total_seconds < cython.total_seconds < python.total_seconds

    def test_python_overhead_near_41_percent(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        c = run_c_baseline(program, dataset, config=config)
        python = run_host_only(program, dataset, ExecutionMode.PYTHON, config)
        assert python.total_seconds / c.total_seconds == pytest.approx(1.41, rel=0.02)

    def test_baselines_never_touch_the_csd(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        machine = build_machine(config)
        run_c_baseline(program, dataset, config=config, machine=machine)
        assert machine.csd.cse.counters.retired_instructions == 0


class TestGroundTruthEstimates:
    def test_host_time_includes_storage_access(self, config):
        program = make_toy_program()
        estimates = ground_truth_estimates(program, 1_000_000, config)
        scan = estimates[0]
        assert scan.ct_host == pytest.approx(
            scan.compute_host + scan.d_storage / config.bw_host_storage
        )

    def test_availability_scales_device_time(self, config):
        program = make_toy_program()
        full = ground_truth_estimates(program, 1_000_000, config)
        half = ground_truth_estimates(
            program, 1_000_000, config, cse_availability=0.5
        )
        scan_full, scan_half = full[0], half[0]
        compute_full = scan_full.ct_device - scan_full.d_storage / config.bw_internal
        compute_half = scan_half.ct_device - scan_half.d_storage / config.bw_internal
        assert compute_half == pytest.approx(2 * compute_full)

    def test_validation(self, config):
        program = make_toy_program()
        with pytest.raises(PlanningError):
            ground_truth_estimates(program, 0, config)
        with pytest.raises(PlanningError):
            ground_truth_estimates(program, 100, config, cse_availability=0.0)


class TestStaticIspBaseline:
    def test_tunes_to_the_reducing_scan(self, config):
        program = make_toy_program()
        baseline = StaticIspBaseline(config)
        plan = baseline.tune(program, 2_000_000)
        assert plan.assignments[0] == CSD  # the scan always wins
        assert plan.t_csd < plan.t_host

    def test_run_executes_frozen_plan_under_degradation(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        baseline = StaticIspBaseline(config)
        plan = baseline.tune(program, dataset.n_records)

        healthy = baseline.run(program, dataset, plan=plan)
        degraded_machine = build_machine(config)
        degraded_machine.csd.cse.set_availability(0.1)
        degraded = baseline.run(
            program, dataset, machine=degraded_machine, plan=plan
        )
        # No migration, no re-planning: the frozen plan pays full price.
        assert degraded.total_seconds > healthy.total_seconds
        assert not degraded.migrated

    def test_plan_is_optimal_among_all_assignments(self, config):
        # Cross-check the exhaustive search against a brute-force
        # enumeration done independently here.
        import itertools

        from repro.runtime.planner import projected_time

        program = make_toy_program()
        estimates = ground_truth_estimates(program, 2_000_000, config)
        plan = StaticIspBaseline(config).tune(program, 2_000_000)
        best = min(
            projected_time(combo, estimates, config)
            for combo in itertools.product((HOST, CSD), repeat=len(estimates))
        )
        assert plan.t_csd == pytest.approx(best)
