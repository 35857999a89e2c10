"""Exact plan search: a two-state dynamic program over measured steps."""

import dataclasses
import itertools
import json
import re
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.errors import PlanningError
from repro.hw.topology import build_machine
from repro.lang.program import Program, Statement, linear
from repro.obs import Observability
from repro.runtime import plansearch
from repro.runtime.activepy import ActivePy, RunOptions
from repro.runtime.codegen import CodeGenerator, ExecutionMode
from repro.runtime.estimator import build_estimates
from repro.runtime.executor import PlanExecutor
from repro.runtime.planner import CSD, HOST, Plan, assign_csd_code
from repro.runtime.plansearch import (
    _FINAL,
    SearchReport,
    _step_seconds,
    search_plan,
)
from repro.runtime.profcache import ProfileCache
from repro.runtime.sampling import SamplingPhase
from repro.workloads import get_workload, workload_names

from .oracles import step_seconds_on_fresh_machine

#: Small enough for fast tests; the §V CSR effect is scale-invariant
#: (sample prefixes stay "sample-shaped" at any population size), so
#: pagerank/sparsemv keep their strict wins here too.
SCALE = 0.02


def _estimates_for(name, scale=SCALE, config=DEFAULT_CONFIG):
    workload = get_workload(name, scale=scale)
    sampling = SamplingPhase(config).run(workload.program, workload.dataset)
    return workload, build_estimates(sampling, workload.n_records, config)


@pytest.fixture(scope="module")
def pagerank():
    return _estimates_for("pagerank")


@pytest.fixture(scope="module")
def tpch_q6():
    return _estimates_for("tpch_q6")


def _search(workload, estimates, config=DEFAULT_CONFIG, **kwargs):
    return search_plan(
        workload.program, workload.dataset, estimates, config, **kwargs
    )


def _locations(config):
    return (HOST, CSD) if config.csd_enabled else (HOST,)


def _step_table(workload, config=DEFAULT_CONFIG):
    """Every (line, location, value-location) step, priced eagerly."""
    program, n = workload.program, workload.dataset.n_records
    locations = _locations(config)
    keys = [
        (index, location, value_location)
        for index in range(len(workload.program))
        for location in locations
        for value_location in locations
    ]
    if config.csd_enabled:
        keys.append((_FINAL, HOST, CSD))
    return {key: _step_seconds(program, n, config, key) for key in keys}


def _walk(steps, assignments):
    """The oracle makespan: a left fold of steps in line order."""
    elapsed, value_location = 0.0, HOST
    for index, location in enumerate(assignments):
        elapsed += steps[(index, location, value_location)]
        value_location = location
    if value_location == CSD:
        elapsed += steps[(_FINAL, HOST, CSD)]
    return elapsed


def _brute_force(steps, k, locations):
    return min(
        _walk(steps, a) for a in itertools.product(locations, repeat=k)
    )


def _unbounded_dp(steps, k, locations):
    """The Viterbi pass measuring every step: ``(makespan, assignments)``,
    ties broken by the assignment tuple at every state."""
    best = {HOST: (0.0, ())}
    for index in range(k):
        best = {
            location: min(
                (elapsed + steps[(index, location, prev)], prefix + (location,))
                for prev, (elapsed, prefix) in best.items()
            )
            for location in locations
        }
    return min(
        (_walk(steps, prefix), prefix) for elapsed, prefix in best.values()
    )


#: Configs whose charging paths differ: overlapped chunks, the
#: integrity layer's verify charge, no line-boundary checkpoints.
FIDELITY_CONFIGS = {
    "default": DEFAULT_CONFIG,
    "overlap": dataclasses.replace(DEFAULT_CONFIG, overlap_io_compute=True),
    "integrity": dataclasses.replace(DEFAULT_CONFIG, integrity_enabled=True),
    "no-checkpoints": dataclasses.replace(DEFAULT_CONFIG, checkpoint_enabled=False),
}


class TestFidelity:
    """The step table reproduces the executor's fault-free run of every
    plan, summed in line order."""

    @pytest.mark.parametrize("config_name", list(FIDELITY_CONFIGS))
    @pytest.mark.parametrize("workload_name", ["tpch_q6", "pagerank"])
    def test_leaf_scores_match_real_execution(
        self, request, workload_name, config_name
    ):
        workload, estimates = request.getfixturevalue(workload_name)
        config = FIDELITY_CONFIGS[config_name]
        k = len(workload.program)
        steps = _step_table(workload, config)
        for assignments in itertools.product((HOST, CSD), repeat=k):
            elapsed = _walk(steps, assignments)

            machine = build_machine(config, obs=Observability.disabled())
            machine.csd.store_dataset(
                workload.dataset.name, workload.dataset.raw_bytes
            )
            plan = Plan(
                assignments=list(assignments), t_host=0.0, t_csd=0.0,
                estimates=tuple(estimates), origin="external",
            )
            compiled = CodeGenerator(config).generate(
                machine, workload.program, plan, mode=ExecutionMode.ACTIVEPY
            )
            started = machine.now
            PlanExecutor(machine, migration_enabled=False).execute(
                compiled, workload.n_records
            )
            real = machine.now - started
            assert elapsed == pytest.approx(real, rel=1e-12, abs=1e-12), (
                assignments
            )


class TestSearchVsGreedy:
    def test_strictly_beats_greedy_on_csr_workloads(self):
        # The §V case study: the sampled volume curve over-predicts the
        # CSR conversion's output, greedy keeps it on the host, and the
        # speculative search (which measures, not extrapolates) offloads
        # it for a strictly better makespan.
        for name in ("pagerank", "sparsemv"):
            workload, estimates = _estimates_for(name)
            report = _search(workload, estimates)
            assert report.beat_greedy, name
            assert report.makespan_s < report.greedy_makespan_s, name
            assert report.plan.assignments[1] == CSD
            assert report.greedy_plan.assignments[1] == HOST
            assert report.changed_lines() == [
                (1, estimates[1].name, HOST, CSD)
            ]

    @pytest.mark.parametrize("name", ["tpch_q6", "mixedgemm", "kmeans"])
    def test_ties_return_greedy_plan_exactly(self, name):
        # Where greedy is optimal the search returns greedy's
        # assignment bit for bit.
        workload, estimates = _estimates_for(name)
        report = _search(workload, estimates)
        assert report.plan.assignments == report.greedy_plan.assignments
        assert report.makespan_s == report.greedy_makespan_s
        assert not report.beat_greedy

    def test_plan_origin_and_measured_projections(self, pagerank):
        workload, estimates = pagerank
        report = _search(workload, estimates)
        plan = report.plan
        assert plan.origin == "search"
        assert plan.t_csd == report.makespan_s
        # t_host is the *measured* all-host speculative makespan.
        assert plan.t_host > plan.t_csd
        assert report.improvement_fraction > 0.0

    def test_matches_exhaustive_oracle(self, pagerank):
        # The DP is exact: same optimum as brute force over all 2^k
        # leaves, with no epsilon.
        workload, estimates = pagerank
        k = len(workload.program)
        steps = _step_table(workload)
        report = _search(workload, estimates)
        assert report.makespan_s == _brute_force(steps, k, (HOST, CSD))
        assert _walk(steps, report.plan.assignments) == report.makespan_s

    def test_metrics_populated(self, pagerank):
        # Steps are measured lazily: line 0 is only ever fed from the
        # host, so at most 2 + 4(k-1) line steps plus the final
        # readback.  The bound skips 4 of those 15 on pagerank.
        workload, estimates = pagerank
        report = _search(workload, estimates)
        assert report.steps_simulated == 11
        assert report.steps_simulated < 4 * len(workload.program) - 1
        assert report.wall_seconds > 0.0


class TestDeterminism:
    def test_repeated_searches_identical(self, tpch_q6):
        workload, estimates = tpch_q6
        first = _search(workload, estimates)
        second = _search(workload, estimates)
        assert first.plan.assignments == second.plan.assignments
        assert first.makespan_s == second.makespan_s


class TestValidation:
    def test_rejects_estimate_mismatch(self, tpch_q6):
        workload, estimates = tpch_q6
        with pytest.raises(PlanningError):
            _search(workload, estimates[:-1])

    def test_rejects_greedy_of_wrong_length(self, tpch_q6):
        # Walked as-is, a 1-entry greedy plan for a 2-line program would
        # yield a 1-line "plan" below the true optimum.
        workload, estimates = tpch_q6
        short = Plan(assignments=[CSD], t_host=0.0, t_csd=0.0)
        with pytest.raises(PlanningError, match="2-line plan"):
            _search(workload, estimates, greedy=short)

    def test_rejects_offloading_greedy_with_csd_disabled(self, tpch_q6):
        # A typed error, not a raw KeyError on the missing CSD step.
        workload, estimates = tpch_q6
        config = dataclasses.replace(DEFAULT_CONFIG, csd_enabled=False)
        greedy = Plan(
            assignments=[CSD] * len(workload.program), t_host=0.0, t_csd=0.0,
        )
        with pytest.raises(PlanningError, match="csd"):
            _search(workload, estimates, config=config, greedy=greedy)

    def test_csd_disabled_returns_all_host(self, tpch_q6):
        workload, estimates = tpch_q6
        k = len(workload.program)
        config = dataclasses.replace(DEFAULT_CONFIG, csd_enabled=False)
        report = _search(workload, estimates, config=config)
        assert report.plan.assignments == [HOST] * k
        assert report.greedy_plan.assignments == [HOST] * k
        assert report.makespan_s == report.greedy_makespan_s
        # One host step per line, no readback.
        assert report.steps_simulated == k

    def test_report_round_trips_through_json(self, pagerank):
        workload, estimates = pagerank
        report = _search(workload, estimates)
        payload = json.loads(json.dumps(report.to_jsonable()))
        rebuilt = SearchReport.from_jsonable(payload)
        assert rebuilt.plan.assignments == report.plan.assignments
        assert rebuilt.plan.t_csd == report.plan.t_csd
        assert rebuilt.makespan_s == report.makespan_s
        assert rebuilt.greedy_makespan_s == report.greedy_makespan_s
        assert rebuilt.steps_simulated == report.steps_simulated
        assert rebuilt.wall_seconds == report.wall_seconds
        with pytest.raises(PlanningError):
            SearchReport.from_jsonable({"plan": {}})


def _table_search(table, k, config, greedy):
    """``search_plan`` over a step table; returns the report and the
    keys it priced, in order."""
    measured = []

    def step_seconds(program, n, config, key):
        measured.append(key)
        return table[key]

    # search_plan only takes len() of the program and estimates, and
    # the dataset's record count, once the step pricing is replaced.
    dataset = SimpleNamespace(n_records=1)
    with mock.patch.object(plansearch, "_step_seconds", step_seconds):
        report = search_plan([None] * k, dataset, [None] * k, config, greedy=greedy)
    return report, measured


def _outcome(report):
    """Everything a search report says, its host wall time aside."""
    return (
        report.plan.assignments, report.plan.t_host, report.plan.t_csd,
        report.plan.origin, report.greedy_plan.assignments,
        report.makespan_s, report.greedy_makespan_s, report.steps_simulated,
    )


#: Few distinct values, so ties are common, and non-dyadic ones, so the
#: float sums round.
_STEP_VALUES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0])


class TestOracleProperties:
    """The DP against independent brute-force oracles."""

    @given(data=st.data(), k=st.integers(1, 7), csd_enabled=st.booleans())
    @settings(max_examples=300, deadline=None, print_blob=True)
    def test_dp_equals_brute_force_on_random_step_tables(
        self, data, k, csd_enabled
    ):
        config = dataclasses.replace(DEFAULT_CONFIG, csd_enabled=csd_enabled)
        locations = _locations(config)
        table = {
            (index, location, value_location): data.draw(_STEP_VALUES)
            for index in range(k)
            for location in (HOST, CSD)
            for value_location in (HOST, CSD)
        }
        table[(_FINAL, HOST, CSD)] = data.draw(_STEP_VALUES)
        greedy_assignments = data.draw(
            st.lists(st.sampled_from(locations), min_size=k, max_size=k)
        )
        greedy = Plan(assignments=greedy_assignments, t_host=0.0, t_csd=0.0)
        report, measured = _table_search(table, k, config, greedy)

        brute = _brute_force(table, k, locations)
        assert report.makespan_s == brute
        assert _walk(table, report.plan.assignments) == brute
        assert report.greedy_makespan_s == _walk(table, greedy_assignments)
        assert report.plan.t_host == _walk(table, [HOST] * k)
        if report.greedy_makespan_s == brute:
            assert report.plan.assignments == greedy_assignments
        else:
            assert report.makespan_s < report.greedy_makespan_s
            # The bound skips no candidate that could tie: the plan is
            # the one a pass measuring every step picks.
            assert (brute, tuple(report.plan.assignments)) == _unbounded_dp(
                table, k, locations
            )
        # Each step is measured at most once, only where the DP reaches
        # and the bound does not cut it off.
        assert len(measured) == len(set(measured))
        assert report.steps_simulated == len(measured)
        if csd_enabled:
            assert report.steps_simulated <= 4 * k - 1
        else:
            assert report.steps_simulated == k
        # A step the search skipped cannot matter: zeroing every one of
        # them (the cheapest a step can be) changes nothing it reports.
        zeroed = {
            key: seconds if key in measured else 0.0
            for key, seconds in table.items()
        }
        again, measured_again = _table_search(zeroed, k, config, greedy)
        assert measured_again == measured
        assert _outcome(again) == _outcome(report)

    @given(
        # Within SystemConfig's own limits: the CSE is no faster than
        # the host, and the NAND array sustains bw_internal.
        bw_host_storage=st.floats(0.2e9, 8e9),
        bw_internal=st.floats(1e9, 10e9),
        cse_ips=st.floats(0.5e9, DEFAULT_CONFIG.host_ips),
        cse_cores=st.integers(1, 8),
        csd_enabled=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_search_exact_and_never_worse_over_random_configs(
        self, bw_host_storage, bw_internal, cse_ips, cse_cores, csd_enabled
    ):
        # SystemConfig carries no CSE availability (that is machine
        # state); the share of the CSE a program gets is varied through
        # its speed and core count instead.
        config = dataclasses.replace(
            DEFAULT_CONFIG, bw_host_storage=bw_host_storage,
            bw_internal=bw_internal, cse_ips=cse_ips, cse_cores=cse_cores,
            csd_enabled=csd_enabled,
        )
        workload, estimates = _estimates_for("pagerank", config=config)
        greedy = assign_csd_code(estimates, config)
        report = _search(workload, estimates, config=config, greedy=greedy)
        steps = _step_table(workload, config)
        k = len(workload.program)
        assert report.makespan_s <= report.greedy_makespan_s
        assert report.greedy_makespan_s == _walk(steps, greedy.assignments)
        assert report.makespan_s == _brute_force(steps, k, _locations(config))


def _reachable_keys(k, config):
    """The 4k-1 steps a search may measure (k with the CSD off): line 0
    is only fed from the host, and the readback follows a CSD line."""
    if not config.csd_enabled:
        return [(index, HOST, HOST) for index in range(k)]
    keys = [(0, HOST, HOST), (0, CSD, HOST)]
    keys += [
        (index, location, value_location)
        for index in range(1, k)
        for location in (HOST, CSD)
        for value_location in (HOST, CSD)
    ]
    return keys + [(_FINAL, HOST, CSD)]


def _assert_steps_ignore_history(workload, config):
    """Each step run alone on a fresh machine equals, bit for bit, the
    closed form of the same step inside a full sweep, priced forwards
    and backwards."""
    program, n = workload.program, workload.dataset.n_records
    keys = _reachable_keys(len(program), config)
    forwards = {key: _step_seconds(program, n, config, key) for key in keys}
    backwards = {
        key: _step_seconds(program, n, config, key) for key in reversed(keys)
    }
    for key in keys:
        alone = step_seconds_on_fresh_machine(program, n, config, key)
        assert alone == forwards[key] == backwards[key], (workload.name, key)


class TestStepsIgnoreHistory:
    """The bound skips steps, so no step's price may depend on which
    steps were priced before it, and each must be what the executor
    measures for it on a fresh machine."""

    @pytest.mark.parametrize("csd_enabled", [True, False])
    @pytest.mark.parametrize("name", workload_names())
    def test_rotation_at_quarter_scale(self, name, csd_enabled):
        config = dataclasses.replace(DEFAULT_CONFIG, csd_enabled=csd_enabled)
        _assert_steps_ignore_history(get_workload(name, scale=0.25), config)

    @given(
        bw_host_storage=st.floats(0.2e9, 8e9),
        bw_internal=st.floats(1e9, 10e9),
        cse_ips=st.floats(0.5e9, DEFAULT_CONFIG.host_ips),
        cse_cores=st.integers(1, 8),
        overlap_io_compute=st.booleans(),
        integrity_enabled=st.booleans(),
        checkpoint_enabled=st.booleans(),
        name=st.sampled_from(["pagerank", "tpch_q6", "mixedgemm"]),
    )
    @settings(max_examples=12, deadline=None, print_blob=True)
    def test_random_configs(self, name, **overrides):
        config = dataclasses.replace(DEFAULT_CONFIG, **overrides)
        _assert_steps_ignore_history(get_workload(name, scale=SCALE), config)


#: A per-record cost that is often exactly zero: no storage stream, no
#: input or output bytes.
_PER_RECORD = st.just(0.0) | st.floats(0.0, 1e3)


@st.composite
def _programs(draw):
    """Small random programs: zero and non-zero storage, input and
    output bytes, and chunk counts from 1 up."""
    statements = [
        Statement(
            f"line{index}", kernel=lambda payload: payload,
            instructions=linear(draw(st.floats(0.0, 5e3)), draw(st.floats(0.0, 1e6))),
            output_bytes=linear(draw(_PER_RECORD), draw(st.just(0.0) | st.floats(0.0, 64.0))),
            storage_bytes=linear(draw(_PER_RECORD)),
            chunks=draw(st.integers(1, 64)),
        )
        for index in range(draw(st.integers(1, 4)))
    ]
    return Program("random", statements)


def _seconds(limit):
    """Often exactly zero, otherwise in [0, limit]."""
    return st.just(0.0) | st.floats(0.0, limit)


@st.composite
def _configs(draw):
    """Random platforms that reach every charging path of a step, within
    SystemConfig's limits (the CSE no faster than the host, the NAND
    array sustaining bw_internal)."""
    host_ips = draw(st.floats(1e9, 16e9))
    return SystemConfig(
        attachment=draw(st.sampled_from(["pcie", "nvmeof"])),
        nvmeof_extra_latency_s=draw(_seconds(1e-4)),
        overlap_io_compute=draw(st.booleans()),
        integrity_enabled=draw(st.booleans()),
        integrity_verify_bandwidth=draw(st.floats(1e9, 100e9)),
        checkpoint_enabled=draw(st.booleans()),
        checkpoint_write_cost_s=draw(_seconds(1e-3)),
        compile_overhead_s=draw(st.just(0.1) | _seconds(1.0)),
        codegen_residual_overhead=draw(st.just(0.005) | _seconds(0.5)),
        csd_enabled=draw(st.booleans()),
        bw_host_storage=draw(st.floats(0.2e9, 8e9)),
        bw_internal=draw(st.floats(1e9, 10e9)),
        bw_d2h=draw(st.floats(0.5e9, 8e9)),
        host_ips=host_ips,
        cse_ips=draw(st.floats(0.3e9, host_ips)),
        link_latency_s=draw(st.just(5e-6) | _seconds(1e-4)),
    )


class TestClosedFormStep:
    """``_step_seconds`` equals, bit for bit, the step the executor runs
    on a fresh machine, for every key of random programs on random
    platforms."""

    @given(program=_programs(), n_records=st.integers(1, 10**6), config=_configs())
    @settings(max_examples=200, deadline=None, print_blob=True)
    def test_equals_a_fresh_machine_run(self, program, n_records, config):
        locations = _locations(config)
        keys = [
            (index, location, value_location)
            for index in range(len(program))
            for location in locations
            for value_location in locations
        ]
        if config.csd_enabled:
            keys.append((_FINAL, HOST, CSD))
        for key in keys:
            closed = _step_seconds(program, n_records, config, key)
            oracle = step_seconds_on_fresh_machine(program, n_records, config, key)
            assert closed == oracle, key


class TestActivePyIntegration:
    def test_search_mode_end_to_end(self):
        workload = get_workload("pagerank", scale=SCALE)
        obs = Observability()
        runtime = ActivePy(plan_mode="search", profile_cache=False)
        search_report = runtime.run(
            workload.program, workload.dataset, options=RunOptions(obs=obs)
        )
        greedy_report = ActivePy(profile_cache=False).run(
            workload.program, workload.dataset
        )
        assert search_report.plan.origin == "search"
        assert greedy_report.plan.origin == "greedy"
        assert greedy_report.search is None
        assert search_report.search is not None
        assert search_report.search.beat_greedy
        # The win survives real execution, not just speculation.
        assert (
            search_report.result.total_seconds
            < greedy_report.result.total_seconds
        )
        # Provenance reaches the explanation and the metrics registry.
        explanation = search_report.explanation
        assert explanation.plan_origin == "search"
        assert explanation.search_diff is not None
        assert explanation.search_diff["changed_lines"]
        assert "search beat greedy" in explanation.render()
        counters = obs.snapshot()["counters"]
        assert counters["plansearch.steps_simulated"] == 11
        assert "plansearch.cache_hit" not in counters

    def test_invalid_plan_mode_rejected(self):
        with pytest.raises(PlanningError):
            ActivePy(plan_mode="oracle")

    def test_warm_cache_skips_search(self, tmp_path):
        cache = ProfileCache(tmp_path)
        workload = get_workload("pagerank", scale=SCALE)
        runtime = ActivePy(plan_mode="search", profile_cache=cache)
        cold = runtime.run(workload.program, workload.dataset)
        assert not cold.search.cache_hit
        assert cache.plan_misses == 1 and cache.plan_hits == 0

        obs = Observability()
        warm = runtime.run(
            workload.program, workload.dataset, options=RunOptions(obs=obs)
        )
        assert warm.search.cache_hit
        assert cache.plan_hits == 1
        counters = obs.snapshot()["counters"]
        assert counters["plansearch.cache_hit"] == 1
        # Identical plan and simulated outcome, warm or cold.
        assert warm.plan.assignments == cold.plan.assignments
        assert warm.plan.t_csd == cold.plan.t_csd
        assert warm.result.total_seconds == cold.result.total_seconds

    def test_plan_cache_keyed_by_sampling_fingerprint(self, tmp_path):
        cache = ProfileCache(tmp_path)
        workload = get_workload("tpch_q6", scale=SCALE)
        ActivePy(plan_mode="search", profile_cache=cache).run(
            workload.program, workload.dataset
        )
        key = cache.key_for(workload.program, workload.dataset, DEFAULT_CONFIG)
        assert (tmp_path / "plans" / f"{key}.json").is_file()
        assert (tmp_path / "profiles" / f"{key}.json").is_file()


class TestCli:
    @pytest.fixture(autouse=True)
    def _private_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @pytest.mark.parametrize("name", ["pagerank", "sparsemv"])
    def test_plan_search_beats_greedy(self, name, capsys):
        from repro.cli import main

        argv = ["run", name, "--scale", str(SCALE), "--plan-mode", "search",
                "--explain", "--metrics"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "search beat greedy" in out
        assert re.search(r"^plansearch\.steps_simulated\s+11$", out, re.MULTILINE)

    def test_run_plan_mode_search(self, capsys):
        from repro.cli import main

        argv = ["run", "sparsemv", "--scale", str(SCALE), "--plan-mode", "search"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "origin: search" in out
        assert "search     : beat greedy" in out
