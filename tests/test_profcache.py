"""The profile/plan cache: keys, invalidation, bit-identical replay."""

import dataclasses
import hashlib
import importlib.util
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG
from repro.obs import Observability
from repro.lang.program import Program, Statement, per_record
from repro.runtime import profcache
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


#: sha256 over the profile-cache keys of the 10 rotation workloads at
#: scale 1/4, under ``DEFAULT_CONFIG`` then ``_PIN_CONFIG``, with the
#: engine and module digests stubbed to constants.  Re-pinned when six
#: unread ``SystemConfig`` fields were deleted (the three NAND program,
#: erase and block-size fields and the three re-admission fields): the
#: keys computed before that deletion, with those six config entries
#: dropped from the token tree, hash to this value.
_PINNED_KEYS_DIGEST = (
    "101a6a37cb04112bdfe18780fdeaa9f19c5d97a2405c9566a1d2b5bcc7c72a42"
)

_PIN_CONFIG = dataclasses.replace(
    DEFAULT_CONFIG, cse_cores=4, sampling_factors=(2 ** -9, 2 ** -8)
)


class TestKeyRecipe:
    def test_rotation_keys_are_pinned(self, monkeypatch):
        """The key recipe is frozen: existing cache entries keep hitting.

        The pinned digest was computed before the per-process source
        memo and the ``fields``-based config token were introduced, so
        it shows both left every key byte-identical.  The engine and
        module digests hash file contents and are stubbed out.
        """
        from repro.workloads import workload_names

        monkeypatch.setattr(profcache, "_engine_digest", lambda: "engine")
        monkeypatch.setattr(profcache, "_module_digest", lambda name: "module")
        names = workload_names()
        assert len(names) == 10
        keys = []
        for config in (DEFAULT_CONFIG, _PIN_CONFIG):
            for name in names:
                workload = get_workload(name, scale=0.25)
                key = profcache.fingerprint_run(
                    workload.program, workload.dataset, config
                )
                assert key is not None, name
                keys.append(key)
        digest = hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()
        assert digest == _PINNED_KEYS_DIGEST


_KERNEL_SOURCE = '''
def kernel(p):
    return {{"y": p["x"] * 2.0}}  # {comment}
'''


def _import_kernel(path: Path, comment: str):
    path.write_text(_KERNEL_SOURCE.format(comment=comment), encoding="utf-8")
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.kernel


def _k_double(p):
    return {"y": p["x"] * 2.0}


class TestSourceMemo:
    """A callable's source is read once per code object, never shared."""

    def test_equal_code_objects_keep_their_own_source(self, tmp_path):
        first = _import_kernel(tmp_path / "kernel_a.py", "double it")
        second = _import_kernel(tmp_path / "kernel_b.py", "times two")
        # Equal by value, yet their source differs: a memo keyed by
        # code equality would hand the second the first's source.
        assert first.__code__ == second.__code__
        first_source = profcache._callable_token(first)["source"]
        second_source = profcache._callable_token(second)["source"]
        assert "double it" in first_source and "times two" in second_source
        assert profcache._callable_token(first)["source"] == first_source

    def test_source_read_once_per_code_object(self, cache, monkeypatch):
        import inspect

        read = []
        getsource = inspect.getsource

        def counting(fn):
            read.append(fn.__code__)
            return getsource(fn)

        monkeypatch.setattr(profcache, "_SOURCES", {})
        monkeypatch.setattr(inspect, "getsource", counting)
        program, dataset = make_toy_program(), make_toy_dataset()
        keys = {cache.key_for(program, dataset, DEFAULT_CONFIG)
                for _ in range(3)}
        assert len(keys) == 1
        callables = [dataset.builder]
        for statement in program:
            callables += [statement.kernel, statement.instructions,
                          statement.output_bytes, statement.storage_bytes]
        # By identity: distinct code objects may compare equal.
        codes = {id(fn.__code__) for fn in callables}
        assert sorted(id(code) for code in read) == sorted(codes)

    def test_closures_from_one_factory_still_differ(self, cache):
        from repro.lang.program import Program, Statement, per_record

        def build(amount):
            return Program("toy3", [Statement(
                "scan", _k_double,
                instructions=per_record(amount),
                output_bytes=per_record(4.0),
                storage_bytes=per_record(64.0),
            )])

        dataset = make_toy_dataset()
        keys = [cache.key_for(build(amount), dataset, DEFAULT_CONFIG)
                for amount in (8.0, 16.0, 8.0)]
        assert keys[0] != keys[1]
        assert keys[0] == keys[2]


#: A module global a cost callable reads; the key follows it through
#: the cost probes.
_RATE = [1.0]


def _rate_cost(n):
    return _RATE[0] * n


def _closing_kernel(history, table, weights):
    def kernel(p):
        history.append(len(table))
        return {"y": p["x"] * float(weights[0])}

    return kernel


def _independent_key(program, dataset, config) -> str:
    """The key recipe with the key memo bypassed."""
    tree = profcache._fingerprint_tree(program, dataset, config)
    canonical = json.dumps(tree, sort_keys=True, allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_STEPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.sampled_from([0.0, 1.0])),
    st.tuples(st.just("pop"), st.none()),
    st.tuples(st.just("table"), st.sampled_from([("a", 0.0), ("a", 1.0), ("b", 1.0)])),
    st.tuples(st.just("weights"), st.sampled_from([0.0, 1.0])),
    st.tuples(st.just("rate"), st.sampled_from([1.0, 2.0])),
    st.tuples(st.just("amount"), st.sampled_from([0.5, 1.0, 2.0])),
    # ``==`` equates 1, 1.0 and True; the key must not.
    st.tuples(st.just("chunks"), st.sampled_from([1, 2, True, 2.0])),
), min_size=1, max_size=12)


class TestKeyMemo:
    """A memoized key is served only for a tree equal to its own."""

    @settings(max_examples=60, deadline=None, print_blob=True)
    @given(steps=_STEPS)
    def test_every_key_matches_the_recipe(self, steps):
        history, table, weights = [], {}, np.zeros(3)
        kernel = _closing_kernel(history, table, weights)
        amount, chunks = 1.0, 1
        dataset = make_toy_dataset()
        _RATE[0] = 1.0
        # The first key is the starting state's, so the memo always
        # holds a tree the steps then differ from.
        for op, value in [(None, None)] + steps:
            if op == "append":
                history.append(value)
            elif op == "pop" and history:
                history.pop()
            elif op == "table":
                table[value[0]] = value[1]
            elif op == "weights":
                weights[1] = value
            elif op == "rate":
                _RATE[0] = value
            elif op == "amount":
                amount = value
            elif op == "chunks":
                chunks = value
            program = Program("memo", [Statement(
                "scan", kernel,
                instructions=per_record(amount),
                output_bytes=_rate_cost,
                storage_bytes=per_record(64.0),
                chunks=chunks,
            )])
            key = profcache.fingerprint_run(program, dataset, DEFAULT_CONFIG)
            assert key == _independent_key(program, dataset, DEFAULT_CONFIG)

    def test_memo_is_bounded(self):
        dataset = make_toy_dataset()
        for amount in range(2 * profcache._MEMO_LIMIT):
            program = Program(f"bound{amount}", [Statement(
                "scan", _k_double,
                instructions=per_record(float(amount)),
                output_bytes=per_record(4.0),
            )])
            assert profcache.fingerprint_run(program, dataset, DEFAULT_CONFIG)
        assert len(profcache._KEYS) <= profcache._MEMO_LIMIT


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


def _plan_path(cache, key):
    return cache.root / "plans" / f"{key}.json"


def _profile_path(cache, key):
    return cache.root / "profiles" / f"{key}.json"


class TestPlanEntries:
    def test_undecodable_plan_is_a_miss_and_an_invalidation(self, cache):
        workload = get_workload("tpch_q6", scale=SCALE)
        runtime = ActivePy(plan_mode="search", profile_cache=cache)
        runtime.run(workload.program, workload.dataset)
        key = cache.key_for(workload.program, workload.dataset, DEFAULT_CONFIG)
        path = _plan_path(cache, key)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        # A whole envelope with a valid checksum around a payload that
        # is not a search report.
        del envelope["payload"]["plan"]
        envelope["checksum"] = profcache._checksum(envelope["payload"])
        path.write_text(json.dumps(envelope), encoding="utf-8")
        before = cache.stats()
        with pytest.warns(RuntimeWarning, match="profile cache"):
            report = runtime.run(workload.program, workload.dataset)
        after = cache.stats()
        assert after["plan_hits"] == before["plan_hits"]
        assert after["plan_misses"] == before["plan_misses"] + 1
        assert after["invalidations"] == before["invalidations"] + 1
        assert not report.search.cache_hit
        # The search re-ran and rewrote the entry: the next run hits.
        assert runtime.run(workload.program, workload.dataset).search.cache_hit


class TestEnvelopeBytes:
    """Entries serialise their payload once; the file is byte for byte
    ``json.dumps`` of the whole envelope with sorted keys, estimates
    built by ``dataclasses.asdict``."""

    @staticmethod
    def _envelope(key, payload):
        from repro import __version__

        canonical = json.dumps(payload, sort_keys=True, allow_nan=False)
        return json.dumps({
            "schema_version": profcache._SCHEMA_VERSION,
            "repro_version": __version__,
            "key": key,
            "checksum": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "payload": payload,
        }, sort_keys=True, allow_nan=False).encode("utf-8")

    @pytest.mark.parametrize("name", ["tpch_q6", "pagerank", "mixedgemm"])
    def test_plan_and_profile_files(self, cache, name):
        workload = get_workload(name, scale=SCALE)
        report = ActivePy(plan_mode="search", profile_cache=cache).run(
            workload.program, workload.dataset
        )
        key = cache.key_for(workload.program, workload.dataset, DEFAULT_CONFIG)
        search = report.search
        payload = search.to_jsonable()
        for field in ("plan", "greedy_plan"):
            plan = getattr(search, field)
            assert plan.estimates
            payload[field]["estimates"] = [dataclasses.asdict(e) for e in plan.estimates]
        assert _plan_path(cache, key).read_bytes() == self._envelope(key, payload)
        profile = _profile_path(cache, key).read_bytes()
        stored = json.loads(profile)["payload"]
        assert profile == self._envelope(key, stored)


def _damage_in_place(path: Path, marker: bytes, alphabet: str) -> None:
    """Change the byte after ``marker``, keeping the size and mtime."""
    stat = path.stat()
    data = bytearray(path.read_bytes())
    at = data.index(marker) + len(marker)
    old = chr(data[at])
    data[at] = ord(alphabet[(alphabet.index(old) + 1) % len(alphabet)])
    path.write_bytes(bytes(data))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert path.stat().st_mtime_ns == stat.st_mtime_ns


class TestMemoizedHit:
    """A warm hit skips the parse and the checksum; damage is still caught."""

    def _warm(self, cache):
        program, dataset = make_toy_program(), make_toy_dataset()
        runtime = ActivePy(profile_cache=cache)
        runtime.run(program, dataset)
        first_hit = runtime.run(program, dataset)
        assert first_hit.sampling_cache_status == "hit"
        key = cache.key_for(program, dataset, DEFAULT_CONFIG)
        return runtime, program, dataset, key

    def test_memoized_hit_skips_the_checksum(self, cache, monkeypatch):
        runtime, program, dataset, _ = self._warm(cache)
        calls = []
        checksum = profcache._checksum

        def counting(payload):
            calls.append(payload)
            return checksum(payload)

        monkeypatch.setattr(profcache, "_checksum", counting)
        assert runtime.run(program, dataset).sampling_cache_status == "hit"
        assert calls == []

    @pytest.mark.parametrize("marker, alphabet", [
        (b'"sampling_seconds": ', "0123456789"),
        (b'"checksum": "', "0123456789abcdef"),
        (b'"schema_version": ', "0123456789"),
    ], ids=["payload-byte", "checksum", "schema"])
    def test_damage_after_a_memoized_hit_is_caught(self, cache, marker, alphabet):
        runtime, program, dataset, key = self._warm(cache)
        assert runtime.run(program, dataset).sampling_cache_status == "hit"
        _damage_in_place(cache.root / "profiles" / f"{key}.json", marker, alphabet)
        before = cache.invalidations
        with pytest.warns(RuntimeWarning, match="profile cache"):
            report = runtime.run(program, dataset)
        assert report.sampling_cache_status == "miss"
        assert cache.invalidations == before + 1
        assert runtime.run(program, dataset).sampling_cache_status == "hit"

    def test_consecutive_hits_share_no_mutable_state(self, cache):
        runtime, program, dataset, key = self._warm(cache)
        first = runtime.run(program, dataset)
        first.sampling.series[0].n_values[0] = -1
        second = runtime.run(program, dataset)
        assert second.sampling == ProfileCache(cache.root).get(key)

    def test_consecutive_plan_hits_share_no_mutable_state(self, cache):
        workload = get_workload("tpch_q6", scale=SCALE)
        runtime = ActivePy(plan_mode="search", profile_cache=cache)
        for _ in range(2):
            runtime.run(workload.program, workload.dataset)
        key = cache.key_for(workload.program, workload.dataset, DEFAULT_CONFIG)
        first = cache.get_plan(key)
        first.plan.assignments[0] = "nowhere"
        assert cache.get_plan(key) == ProfileCache(cache.root).get_plan(key)

    def test_memo_is_bounded_and_cleared(self, cache):
        report = _variant_report(1)
        for index in range(profcache._MEMO_LIMIT + 8):
            key = f"{index:064x}"
            assert cache.put(key, report)
            assert cache.get(key) == report
        assert len(cache._verified) <= profcache._MEMO_LIMIT
        cache.clear()
        assert cache._verified == {}
        assert cache.get(key) is None


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
        argv = ["run", "tpch_q6", "--scale", str(SCALE), "--plan-mode", "search"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert profile_calls
        del profile_calls[:]
        assert main(argv) == 0
        assert profile_calls == []
        assert capsys.readouterr().out.splitlines()[:3] == first.splitlines()[:3]


_PIPELINE_SOURCE = '''
import numpy as np


def pipeline(prices, volumes):
    notional = (prices * volumes).astype(np.float32)
    active = notional[volumes > {threshold}]
    return float(np.sum(active))
'''


def _lower(path: Path, threshold: float):
    from repro.frontend import program_from_function

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_PIPELINE_SOURCE.format(threshold=threshold), encoding="utf-8")
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return program_from_function(module.pipeline, record_bytes=16.0)


def _ticks(n: int, full: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(47)
    return {
        "prices": rng.uniform(5.0, 500.0, size=n),
        "volumes": rng.uniform(0.0, 400.0, size=n),
    }


def _tick_dataset():
    from repro.lang.dataset import Dataset

    return Dataset("ticks", n_records=40_000_000, record_bytes=16.0, builder=_ticks)


class TestFrontendPrograms:
    """A program lowered from a plain function is cacheable like any
    hand-written one: its kernels declare the line they run."""

    def test_second_run_of_a_lowered_program_hits(self, cache, tmp_path):
        program = _lower(tmp_path / "pipe.py", 150.0)
        runtime = ActivePy(profile_cache=cache)
        cold = runtime.run(program, _tick_dataset())
        warm = runtime.run(program, _tick_dataset())
        assert (cold.sampling_cache_status, warm.sampling_cache_status) == (
            "miss", "hit"
        )
        assert warm.total_seconds == cold.total_seconds

    def test_lowering_twice_gives_the_same_key(self, cache, tmp_path):
        path = tmp_path / "pipe.py"
        first = cache.key_for(_lower(path, 150.0), _tick_dataset(), DEFAULT_CONFIG)
        second = cache.key_for(_lower(path, 150.0), _tick_dataset(), DEFAULT_CONFIG)
        assert first is not None
        assert first == second

    def test_a_changed_line_changes_the_key(self, cache, tmp_path, monkeypatch):
        # Same module name and qualname; only one line's text differs,
        # and the module-file digest is held fixed.
        monkeypatch.setattr(profcache, "_module_digest", lambda name: "module")
        keys = {
            cache.key_for(
                _lower(tmp_path / side / "pipe.py", threshold),
                _tick_dataset(), DEFAULT_CONFIG,
            )
            for side, threshold in (("a", 150.0), ("b", 151.0))
        }
        assert len(keys) == 2 and None not in keys
