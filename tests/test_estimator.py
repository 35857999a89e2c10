"""Equation 1 and per-line estimate construction."""

import pytest

from repro.config import SystemConfig
from repro.errors import PlanningError
from repro.runtime.estimator import (
    build_estimates,
    calibration_constant,
    net_profit,
)
from repro.runtime.sampling import SamplingPhase
from repro.baselines import ground_truth_estimates

from .conftest import make_toy_dataset, make_toy_program


class TestNetProfit:
    def test_positive_when_reduction_dominates(self):
        # 1 GB in, 1 MB out, device twice as slow on 0.1 s of compute:
        # saving ~0.33 s of transfer against 0.1 s of extra compute.
        s = net_profit(
            raw_bytes=1e9, processed_bytes=1e6,
            ct_host=0.1, ct_device=0.2, bw_d2h=3e9,
        )
        assert s > 0

    def test_negative_for_compute_bound_region(self):
        s = net_profit(
            raw_bytes=1e9, processed_bytes=1e6,
            ct_host=2.0, ct_device=4.0, bw_d2h=3e9,
        )
        assert s < 0

    def test_zero_reduction_zero_speed_gap(self):
        s = net_profit(1e9, 1e9, ct_host=1.0, ct_device=1.0, bw_d2h=3e9)
        assert s == pytest.approx(0.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(PlanningError):
            net_profit(1, 1, 1, 1, bw_d2h=0)


class TestCalibrationConstant:
    def test_from_counters(self, config, machine):
        counters = machine.csd.cse.read_performance_counters()
        c = calibration_constant(config, counters)
        assert c == pytest.approx(config.device_speed_ratio)

    def test_without_counters_falls_back_to_config(self, config):
        assert calibration_constant(config, None) == pytest.approx(2.0)

    def test_bad_counters(self, config):
        with pytest.raises(PlanningError):
            calibration_constant(config, {"ipc_nominal": 0, "clock_hz": 1e9})


class TestBuildEstimates:
    def test_matches_ground_truth_for_clean_laws(self, config):
        # The toy program's costs are exact power laws, so the fitted
        # extrapolation must agree with the analytic ground truth.
        program = make_toy_program()
        dataset = make_toy_dataset()
        report = SamplingPhase(config).run(program, dataset)
        estimates = build_estimates(report, dataset.n_records, config)
        truths = ground_truth_estimates(program, dataset.n_records, config)
        for estimate, truth in zip(estimates, truths):
            assert estimate.ct_host == pytest.approx(truth.ct_host, rel=1e-3)
            assert estimate.ct_device == pytest.approx(truth.ct_device, rel=1e-3)
            assert estimate.d_out == pytest.approx(truth.d_out, rel=1e-3)

    def test_device_access_uses_internal_bandwidth(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        report = SamplingPhase(config).run(program, dataset)
        estimates = build_estimates(report, dataset.n_records, config)
        scan = estimates[0]
        host_access = scan.d_storage / config.bw_host_storage
        device_access = scan.d_storage / config.bw_internal
        assert scan.ct_host - scan.compute_host == pytest.approx(host_access, rel=1e-6)
        expected_device = scan.compute_host * config.device_speed_ratio + device_access
        assert scan.ct_device == pytest.approx(expected_device, rel=1e-6)

    def test_d_in_chains(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        report = SamplingPhase(config).run(program, dataset)
        estimates = build_estimates(report, dataset.n_records, config)
        assert estimates[0].d_in == 0.0
        assert estimates[1].d_in == estimates[0].d_out

    def test_invalid_records(self, config):
        program = make_toy_program()
        dataset = make_toy_dataset()
        report = SamplingPhase(config).run(program, dataset)
        with pytest.raises(PlanningError):
            build_estimates(report, 0, config)
