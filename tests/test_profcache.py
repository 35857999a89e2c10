"""The profile/plan cache: keys, invalidation, bit-identical replay."""

import dataclasses
import json
import multiprocessing
from pathlib import Path

import pytest

from repro.config import DEFAULT_CONFIG
from repro.obs import Observability
from repro.runtime.activepy import ActivePy, RunOptions
from repro.runtime.fitting import ComplexityCurve, FittedCurve
from repro.runtime.profcache import ProfileCache, cached_sampling, default_cache
from repro.runtime.profiler import LineProfiler
from repro.runtime.sampling import (
    LineFits,
    SampleSeries,
    SamplingPhase,
    SamplingReport,
)
from repro.workloads import get_workload

from .conftest import make_toy_dataset, make_toy_program

#: The chaos-campaign rotation: diverse plan shapes, cheap at 2**-8.
ROTATION = ("tpch_q6", "kmeans", "blackscholes", "pagerank")
SCALE = 2 ** -8


@pytest.fixture
def cache(tmp_path) -> ProfileCache:
    return ProfileCache(tmp_path / "cache")


def _strip_profcache(snapshot):
    """Metric snapshot minus the cache's own counters.

    Cache hit/miss counts legitimately differ warm vs. cold; every
    other metric must not.
    """
    trimmed = dict(snapshot)
    trimmed["counters"] = {
        name: value
        for name, value in snapshot["counters"].items()
        if not name.startswith("profcache.")
    }
    return trimmed


class TestKeying:
    def test_same_run_same_key(self, cache):
        program, dataset = make_toy_program(), make_toy_dataset()
        key1 = cache.key_for(program, dataset, DEFAULT_CONFIG)
        key2 = cache.key_for(make_toy_program(), make_toy_dataset(),
                             DEFAULT_CONFIG)
        assert key1 is not None
        assert key1 == key2

    def test_program_edit_busts_key(self, cache):
        dataset = make_toy_dataset()
        base = cache.key_for(make_toy_program(), dataset, DEFAULT_CONFIG)
        # A changed cost annotation is a program edit: same structure,
        # different plan inputs.
        edited = cache.key_for(
            make_toy_program(scan_instr=41.0), dataset, DEFAULT_CONFIG
        )
        assert base != edited

    def test_kernel_source_edit_busts_key(self, cache):
        from repro.lang.program import Program, Statement, per_record

        def build(kernel):
            return Program("toy2", [Statement(
                "scan", kernel,
                instructions=per_record(10.0),
                output_bytes=per_record(4.0),
                storage_bytes=per_record(64.0),
            )])

        def k_v1(p):
            return {"y": p["x"] * 2.0}

        def k_v2(p):
            return {"y": p["x"] * 3.0}

        dataset = make_toy_dataset()
        assert (cache.key_for(build(k_v1), dataset, DEFAULT_CONFIG)
                != cache.key_for(build(k_v2), dataset, DEFAULT_CONFIG))

    def test_workload_config_busts_key(self, cache):
        program = make_toy_program()
        base = cache.key_for(program, make_toy_dataset(), DEFAULT_CONFIG)
        resized = cache.key_for(
            program, make_toy_dataset(n_records=10_000_001), DEFAULT_CONFIG
        )
        assert base != resized

    def test_machine_config_busts_key(self, cache):
        program, dataset = make_toy_program(), make_toy_dataset()
        base = cache.key_for(program, dataset, DEFAULT_CONFIG)
        slower = dataclasses.replace(
            DEFAULT_CONFIG, cse_ips=DEFAULT_CONFIG.cse_ips * 0.9
        )
        assert base != cache.key_for(program, dataset, slower)

    def test_unfingerprintable_program_is_uncacheable(self, cache):
        from repro.lang.program import Program, Statement, per_record

        class Opaque:
            """No stable content fingerprint on purpose."""

        def kernel(p, _opaque=Opaque()):
            return dict(p)

        program = Program("opaque", [Statement(
            "scan", kernel,
            instructions=per_record(1.0),
            output_bytes=per_record(4.0),
            storage_bytes=per_record(64.0),
        )])
        assert cache.key_for(program, make_toy_dataset(), DEFAULT_CONFIG) is None
        assert cache.stats()["uncacheable"] == 1


class TestRoundTrip:
    def test_warm_run_hits_and_matches(self, cache):
        program, dataset = make_toy_program(), make_toy_dataset()
        runtime = ActivePy(profile_cache=cache)
        cold = runtime.run(program, dataset)
        warm = runtime.run(program, dataset)
        assert not cold.sampling_cached and cold.sampling_cache_status == "miss"
        assert warm.sampling_cached and warm.sampling_cache_status == "hit"
        assert warm.total_seconds == cold.total_seconds
        assert warm.plan.assignments == cold.plan.assignments
        assert cache.stats()["hits"] == 1

    def test_cache_disabled_instance(self):
        program, dataset = make_toy_program(), make_toy_dataset()
        runtime = ActivePy(profile_cache=False)
        report = runtime.run(program, dataset)
        assert report.sampling_cache_status == "off"

    def test_noisy_profiler_bypasses_cache(self, cache):
        config = dataclasses.replace(DEFAULT_CONFIG, profiler_noise=0.05)
        runtime = ActivePy(config, profile_cache=cache)
        program, dataset = make_toy_program(), make_toy_dataset()
        report = runtime.run(program, dataset)
        assert report.sampling_cache_status == "off"
        assert cache.stats() == {
            "hits": 0, "misses": 0, "invalidations": 0, "uncacheable": 0,
            "plan_hits": 0, "plan_misses": 0,
        }

    def test_env_var_disables_default_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFCACHE", "0")
        assert default_cache() is None
        monkeypatch.setenv("REPRO_PROFCACHE", "1")
        assert default_cache() is not None


class TestCorruption:
    def _entry_path(self, cache, key):
        return cache.root / "profiles" / f"{key}.json"

    def _populate(self, cache):
        program, dataset = make_toy_program(), make_toy_dataset()
        ActivePy(profile_cache=cache).run(program, dataset)
        key = cache.key_for(program, dataset, DEFAULT_CONFIG)
        assert self._entry_path(cache, key).exists()
        return program, dataset, key

    def test_truncated_entry_warns_and_recomputes(self, cache):
        program, dataset, key = self._populate(cache)
        self._entry_path(cache, key).write_text("{ not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="profile cache"):
            report = ActivePy(profile_cache=cache).run(program, dataset)
        assert report.sampling_cache_status == "miss"
        assert cache.stats()["invalidations"] == 1
        # The bad entry was dropped and rewritten: next run hits again.
        warm = ActivePy(profile_cache=cache).run(program, dataset)
        assert warm.sampling_cache_status == "hit"

    def test_checksum_mismatch_never_served(self, cache):
        program, dataset, key = self._populate(cache)
        path = self._entry_path(cache, key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        # A stale entry in disguise: valid JSON, doctored payload.
        envelope["payload"]["sampling_seconds"] = 123.0
        path.write_text(json.dumps(envelope), encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            report = ActivePy(profile_cache=cache).run(program, dataset)
        assert report.sampling_cache_status == "miss"

    def test_schema_bump_invalidates(self, cache):
        program, dataset, key = self._populate(cache)
        path = self._entry_path(cache, key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["schema_version"] = 999
        path.write_text(json.dumps(envelope), encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            report = ActivePy(profile_cache=cache).run(program, dataset)
        assert report.sampling_cache_status == "miss"


def _variant_report(variant: int) -> SamplingReport:
    """A small valid report whose contents identify the writer."""
    marker = float(variant)
    curve = FittedCurve(
        curve=ComplexityCurve.N, coefficient=marker, intercept=0.0,
        relative_residual=0.01,
    )
    return SamplingReport(
        series=[SampleSeries(
            index=0, name="scan",
            n_values=[10, 20, 40, 80],
            compute_seconds=[marker, marker * 2, marker * 4, marker * 8],
            data_access_seconds=[0.1, 0.2, 0.4, 0.8],
            input_bytes=[640.0, 1280.0, 2560.0, 5120.0],
            output_bytes=[40.0, 80.0, 160.0, 320.0],
            storage_bytes=[640.0, 1280.0, 2560.0, 5120.0],
        )],
        fits=[LineFits(index=0, name="scan", compute=curve,
                       data_access=curve, output_bytes=curve,
                       storage_bytes=curve)],
        sampling_seconds=marker,
        factors=(2 ** -10, 2 ** -9, 2 ** -8, 2 ** -7),
    )


def _race_writer(root: str, key: str, variant: int, iterations: int) -> None:
    cache = ProfileCache(Path(root))
    report = _variant_report(variant)
    for _ in range(iterations):
        assert cache.put(key, report)


class TestConcurrentWriters:
    def test_racing_writers_never_produce_a_torn_entry(self, tmp_path):
        """Two processes hammering one key: readers see whole entries only.

        ``put`` goes through tempfile + ``os.replace``, so an entry on
        disk is always some writer's complete bytes — a reader must
        never see a blend of the two variants or a checksum rejection.
        """
        root = tmp_path / "cache"
        key = "f" * 64
        iterations = 200
        workers = [
            multiprocessing.Process(
                target=_race_writer, args=(str(root), key, variant, iterations)
            )
            for variant in (1, 2)
        ]
        for worker in workers:
            worker.start()
        reader = ProfileCache(root)
        observed = set()
        try:
            while any(worker.is_alive() for worker in workers):
                report = reader.get(key)
                if report is not None:
                    assert report.sampling_seconds in (1.0, 2.0)
                    # A torn/blended entry would decouple the marker
                    # fields that are written consistently together.
                    assert (report.fits[0].compute.coefficient
                            == report.sampling_seconds)
                    assert (report.series[0].compute_seconds[0]
                            == report.sampling_seconds)
                    observed.add(report.sampling_seconds)
        finally:
            for worker in workers:
                worker.join()
        for worker in workers:
            assert worker.exitcode == 0
        # Atomic replace means no read ever hit the invalidation path.
        assert reader.stats()["invalidations"] == 0
        final = reader.get(key)
        assert final is not None and final.sampling_seconds in (1.0, 2.0)
        assert observed, "reader never saw a committed entry mid-race"


class TestBitIdenticalRotation:
    @pytest.mark.parametrize("name", ROTATION)
    def test_warm_vs_cold_identical(self, name, cache):
        workload = get_workload(name, scale=SCALE)

        def observed_run():
            obs = Observability()
            report = ActivePy(profile_cache=cache).run(
                workload.program, workload.dataset,
                options=RunOptions(obs=obs),
            )
            return report, obs.snapshot()

        cold, cold_metrics = observed_run()
        warm, warm_metrics = observed_run()
        assert cold.sampling_cache_status == "miss"
        assert warm.sampling_cache_status == "hit"
        assert warm.total_seconds == cold.total_seconds
        assert warm.result.total_seconds == cold.result.total_seconds
        assert warm.plan.assignments == cold.plan.assignments
        assert warm.summary() == cold.summary()
        assert _strip_profcache(warm_metrics) == _strip_profcache(cold_metrics)

    def test_invalidation_counted_once(self, cache):
        program, dataset = make_toy_program(), make_toy_dataset()
        _, key, _ = cached_sampling(SamplingPhase(DEFAULT_CONFIG), program,
                                    dataset, cache)
        (cache.root / "profiles" / f"{key}.json").write_text("{", encoding="utf-8")
        obs = Observability()
        with pytest.warns(RuntimeWarning, match="profile cache"):
            _, _, status = cached_sampling(SamplingPhase(DEFAULT_CONFIG), program,
                                           dataset, cache, obs=obs)
        assert status == "miss"
        counters = obs.snapshot()["counters"]
        assert counters.get("profcache.miss") == 1.0
        assert counters.get("profcache.invalidation") == 1.0

    def test_obs_counts_cache_traffic(self, cache):
        workload = get_workload("tpch_q6", scale=SCALE)
        obs = Observability()
        runtime = ActivePy(profile_cache=cache)
        runtime.run(workload.program, workload.dataset,
                    options=RunOptions(obs=obs))
        runtime.run(workload.program, workload.dataset,
                    options=RunOptions(obs=obs))
        counters = obs.snapshot()["counters"]
        assert counters.get("profcache.miss") == 1.0
        assert counters.get("profcache.hit") == 1.0


@pytest.fixture
def profile_calls(monkeypatch):
    """Counts every real profile of a program on sample inputs."""
    calls = []
    profile = LineProfiler.profile

    def counting(self, program, dataset):
        calls.append(program.name)
        return profile(self, program, dataset)

    monkeypatch.setattr(LineProfiler, "profile", counting)
    return calls


class TestSharedSamplingEntryPoint:
    """Every sampling caller goes through one cached entry point."""

    def test_prediction_reuses_activepy_sampling(self, tmp_path, monkeypatch,
                                                 profile_calls):
        from repro.analysis.experiments import run_prediction_accuracy

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        workload = get_workload("tpch_q6")
        ActivePy().run(workload.program, workload.dataset)
        cache = default_cache()
        hits_before = cache.hits
        del profile_calls[:]
        warm = run_prediction_accuracy(workloads=("tpch_q6",))
        assert profile_calls == []
        assert cache.hits - hits_before == 1

        monkeypatch.setenv("REPRO_PROFCACHE", "0")
        cold = run_prediction_accuracy(workloads=("tpch_q6",))
        assert profile_calls
        assert warm == cold

    def test_noisy_config_bypasses_cache(self, cache, profile_calls):
        noisy = dataclasses.replace(DEFAULT_CONFIG, profiler_noise=0.05)
        program, dataset = make_toy_program(), make_toy_dataset()
        for _ in range(2):
            _, key, status = cached_sampling(SamplingPhase(noisy), program,
                                             dataset, cache)
            assert (key, status) == (None, "off")
        assert len(profile_calls) == 2 * len(noisy.sampling_factors)
        assert cache.stats()["misses"] == cache.stats()["hits"] == 0
        assert not (cache.root / "profiles").exists()

    def test_plan_search_cli_samples_once(self, tmp_path, monkeypatch, capsys,
                                          profile_calls):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["plan", "search", "tpch_q6", "--scale", str(SCALE)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert profile_calls
        del profile_calls[:]
        assert main(argv) == 0
        assert profile_calls == []
        assert capsys.readouterr().out.splitlines()[:3] == first.splitlines()[:3]
