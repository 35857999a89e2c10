"""Line profiler and sampling phase."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import SamplingError
from repro.lang.program import Program, Statement, constant, per_record
from repro.runtime.profiler import LineProfiler, payload_nbytes
from repro.runtime.sampling import SamplingPhase

from .conftest import make_toy_dataset, make_toy_program


class TestPayloadNbytes:
    def test_arrays(self):
        assert payload_nbytes({"x": np.zeros(10)}) == 80.0

    def test_scalars(self):
        assert payload_nbytes({"a": 1, "b": 2.0}) == 16.0

    def test_lists(self):
        assert payload_nbytes({"v": [1, 2, 3]}) == 24.0

    def test_nested_dicts(self):
        assert payload_nbytes({"inner": {"x": np.zeros(2)}}) == 16.0

    def test_mixed_dtypes(self):
        payload = {"f32": np.zeros(4, dtype=np.float32), "i8": np.zeros(4, dtype=np.int8)}
        assert payload_nbytes(payload) == 20.0


class TestLineProfiler:
    def test_records_every_line(self, config, toy_program, toy_dataset):
        sample = toy_dataset.sample(2**-10)
        records = LineProfiler(config).profile(toy_program, sample)
        assert [r.name for r in records] == ["scan", "crunch", "reduce"]
        assert all(r.n_records == sample.n_records for r in records)

    def test_separates_data_access_from_compute(self, config, toy_program, toy_dataset):
        # Paper III-A: "ActivePy will separate the data access time
        # from the code execution time".
        sample = toy_dataset.sample(2**-10)
        records = LineProfiler(config).profile(toy_program, sample)
        scan = records[0]
        n = sample.n_records
        assert scan.data_access_seconds == pytest.approx(
            64.0 * n / config.bw_host_storage
        )
        assert scan.compute_seconds == pytest.approx(40.0 * n / config.host_ips)
        assert records[1].data_access_seconds == 0.0

    def test_output_bytes_measured_from_real_kernels(self, config, toy_program, toy_dataset):
        sample = toy_dataset.sample(2**-10)
        records = LineProfiler(config).profile(toy_program, sample)
        # scan emits f32: 4 bytes per record, measured not assumed.
        assert records[0].output_bytes == pytest.approx(4.0 * sample.n_records)
        assert records[1].input_bytes == records[0].output_bytes

    def test_kernel_failure_raises_sampling_error(self, config, toy_dataset):
        def boom(p):
            raise ValueError("bad input")

        program = Program("bad", [
            Statement("boom", boom, per_record(1), constant(1)),
        ])
        with pytest.raises(SamplingError, match="boom"):
            LineProfiler(config).profile(program, toy_dataset.sample(2**-10))

    def test_run_seconds_sums_components(self, config, toy_program, toy_dataset):
        profiler = LineProfiler(config)
        records = profiler.profile(toy_program, toy_dataset.sample(2**-10))
        total = profiler.run_seconds(records)
        assert total == pytest.approx(sum(
            r.compute_seconds + r.data_access_seconds for r in records
        ))

    def test_noisy_timings_follow_the_seeded_draws(self, toy_program, toy_dataset):
        # One default_rng(profiler_noise_seed) stream per profiler: each
        # line draws its compute jitter, then its data-access jitter.
        sample = toy_dataset.sample(2**-10)
        quiet = LineProfiler(SystemConfig()).profile(toy_program, sample)
        profiler = LineProfiler(
            SystemConfig(profiler_noise=0.2, profiler_noise_seed=11)
        )
        draws = iter(np.random.default_rng(11).normal(0.0, 0.2, size=4 * len(quiet)))
        for _ in range(2):
            noisy = profiler.profile(toy_program, sample)
            for clean, jittered in zip(quiet, noisy):
                assert jittered.compute_seconds == (
                    clean.compute_seconds * max(0.1, 1.0 + next(draws))
                )
                assert jittered.data_access_seconds == (
                    clean.data_access_seconds * max(0.1, 1.0 + next(draws))
                )


class TestSamplingPhase:
    def test_runs_all_four_factors(self, config, toy_program, toy_dataset):
        report = SamplingPhase(config).run(toy_program, toy_dataset)
        assert report.factors == config.sampling_factors
        for series in report.series:
            assert len(series.n_values) == 4
            assert series.n_values == sorted(series.n_values)

    def test_fits_produced_per_line(self, config, toy_program, toy_dataset):
        report = SamplingPhase(config).run(toy_program, toy_dataset)
        assert [fit.name for fit in report.fits] == ["scan", "crunch", "reduce"]
        scan_fit = report.fit_for("scan")
        n = toy_dataset.n_records
        assert scan_fit.compute.predict(n) == pytest.approx(
            40.0 * n / config.host_ips, rel=1e-6
        )

    def test_sampling_cost_positive_and_small(self, config, toy_program, toy_dataset):
        report = SamplingPhase(config).run(toy_program, toy_dataset)
        assert report.sampling_seconds > 0
        # The four factors sum to ~1.5% of the input; sampling must
        # stay a small fraction of a full run.
        full_run_estimate = sum(
            fit.compute.predict(toy_dataset.n_records)
            + fit.data_access.predict(toy_dataset.n_records)
            for fit in report.fits
        )
        assert report.sampling_seconds < 0.05 * full_run_estimate

    def test_rejects_sample_dataset(self, config, toy_program, toy_dataset):
        with pytest.raises(SamplingError):
            SamplingPhase(config).run(toy_program, toy_dataset.sample(2**-7))

    def test_rejects_too_small_population(self, config, toy_program):
        tiny = make_toy_dataset(n_records=100)
        with pytest.raises(SamplingError, match="distinct sample sizes"):
            SamplingPhase(config).run(toy_program, tiny)

    def test_fit_for_unknown_line(self, config, toy_program, toy_dataset):
        report = SamplingPhase(config).run(toy_program, toy_dataset)
        with pytest.raises(SamplingError):
            report.fit_for("nope")
