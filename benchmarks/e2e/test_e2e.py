"""Self-test of the end-to-end benchmark at reduced sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict

import pytest

from repro.obs import validate_chrome_trace

from .compare import verdict
from .layers import Layer, SpanRecorder, install
from .runner import run_workload
from .tally import REFERENCE_S, Tally
from .workloads import (
    PAPER_CLAIMS,
    ROOT,
    WORKLOADS,
    ChaosSdc,
    FleetServe,
    PaperSuite,
    WarmRotation,
)

SMALL_DRIVERS = (
    ("run_table1", {}),
    ("run_fig2", {"workloads": ("tpch_q6",), "availabilities": (1.0, 0.5)}),
    ("run_fig4", {"workloads": ("tpch_q6",)}),
    ("run_fig5", {"workloads": ("tpch_q6",), "availabilities": (0.1,)}),
    ("run_overhead_ladder", {"workloads": ("tpch_q6",)}),
    ("run_prediction_accuracy", {"workloads": ("tpch_q6",)}),
    ("run_csr_matrix_sweep", {"degrees": (4.0,), "alphas": (1.5,), "n_edges": 10 ** 6}),
)

#: Each workload at a size that runs in a second or two.  Only Table I
#: runs at paper scale, so only its claim is checked.
SMALL = {
    "paper_suite": lambda: PaperSuite(0, drivers=SMALL_DRIVERS, claims=PAPER_CLAIMS[:1]),
    "warm_rotation": lambda: WarmRotation(0, names=("tpch_q6", "kmeans"), scale=2 ** -6),
    "fleet_serve": lambda: FleetServe(0, job_count=300),
    "chaos_sdc": lambda: ChaosSdc(0, block_runs=40),
}

#: The layers each workload exists to exercise (README.md, "Layers").
EXERCISED = {
    "paper_suite": ("lang.dataset", "runtime.profiler", "runtime.fitting",
                    "runtime.sampling", "baselines", "analysis.experiments",
                    "runtime.migration"),
    "warm_rotation": ("runtime.activepy", "runtime.profcache", "hw.topology",
                      "runtime.estimator", "runtime.planner", "runtime.codegen",
                      "runtime.executor", "runtime.explain", "runtime.plansearch"),
    "fleet_serve": ("fleet", "fleet.admission", "fleet.traffic", "fleet.profiles",
                    "obs.timeseries"),
    "chaos_sdc": ("workloads", "faults", "runtime.checkpoint", "integrity", "chaos",
                  "runtime.executor"),
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs():
    results = {}

    def get(name: str, trace: bool):
        if (name, trace) not in results:
            results[name, trace] = run_workload(
                name, seed=0, seconds=0.2, trace=trace, workload=SMALL[name]()
            )
        return results[name, trace]

    return get


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_run_passes_checks_and_emits_declared_metrics(runs, name, trace):
    result = runs(name, trace)
    assert result.correct, result.tally.problems
    assert result.tally.attempted >= 1 and result.tally.failed == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result.metrics) == [m["name"] for m in declared]
    assert [unit for _, unit in result.metrics.values()] == [m["unit"] for m in declared]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_each_exercised_layer_is_called(runs, name):
    metrics = runs(name, True).metrics
    idle = [layer for layer in EXERCISED[name] if metrics[f"{layer}.calls"][0] == 0]
    assert not idle


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_partition_each_op(runs, name):
    recorder = runs(name, True).recorder
    walls = recorder.op_walls()
    per_op = recorder.self_by_op()
    assert walls and len(walls) == len(per_op)
    wall_by_kind, other_by_kind = defaultdict(float), defaultdict(float)
    for kind, wall, selves in zip(recorder.op_kinds, walls, per_op):
        assert sum(selves.values()) == pytest.approx(wall, rel=1e-6)
        wall_by_kind[kind] += wall
        other_by_kind[kind] += selves.get("other", 0.0)
    # Named layers account for at least 95% of every kind of op.  A kind
    # under 10 ms in all (a memoised driver at reduced size) is skipped:
    # the wrappers' own microseconds are most of it.
    for kind, wall in wall_by_kind.items():
        if wall >= 0.01:
            assert other_by_kind[kind] <= 0.05 * wall, kind
    assert runs(name, True).metrics["other.self_frac"][0] <= 0.05


def test_chrome_trace_is_valid_with_op_ids_and_parents(runs):
    trace = runs("warm_rotation", True).recorder.chrome_trace()
    assert validate_chrome_trace(trace) == []
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["span_id"]: e for e in spans}
    for event in spans:
        parent = event["args"]["parent_id"]
        if parent is None:
            assert event["cat"] == "op"
        else:
            assert by_id[parent]["args"]["trace_id"] == event["args"]["trace_id"]


def test_missing_target_is_reported_not_fatal():
    recorder = SpanRecorder()
    layers = (Layer("gone", ("repro.hw.topology:no_such_function",)),
              Layer("hw.topology", ("repro.hw.topology:build_machine",)))
    with pytest.warns(RuntimeWarning, match="gone is unwrapped"):
        restore, unwrapped = install(recorder, layers)
    try:
        from repro.hw import topology

        recorder.open_op("probe")
        topology.build_machine()
        recorder.close_op()
    finally:
        restore()
    assert unwrapped == ["gone"]
    assert recorder.calls["hw.topology"] == 1
    assert not hasattr(topology.build_machine, "__wrapped__")


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "warm_rotation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


@pytest.mark.parametrize("a, b, better, expected", [
    ([10, 10.1, 9.9, 10, 10.05], [10.02, 9.95, 10.1, 10, 9.98], "lower", "same"),
    ([10, 10.1, 9.9, 10, 10.05], [11.5, 11.6, 11.4, 11.5, 11.55], "lower", "worse"),
    ([10, 10.1, 9.9, 10, 10.05], [8.0, 8.1, 7.9, 8.0, 8.05], "lower", "better"),
    ([10, 10.1, 9.9, 10, 10.05], [8.0, 8.1, 7.9, 8.0, 8.05], "higher", "worse"),
    ([10, 14, 6, 12, 8], [10, 13, 7, 11, 9], "lower", "unresolved"),
])
def test_compare_verdicts(a, b, better, expected):
    assert verdict(a, b, better, bound=0.1) == expected


def test_normalisation_drops_probe_time_and_rescales():
    tally = Tally()
    # The host runs at half the reference speed; one probe sits inside
    # the op and one outside it.
    tally.probes = [(0.2, 0.25, 2 * REFERENCE_S), (1.2, 1.25, 2 * REFERENCE_S)]
    tally.record("op", 0.0, 1.0)
    assert tally.seconds(normalised=False)["op"] == [pytest.approx(0.95)]
    assert tally.seconds(normalised=True)["op"] == [pytest.approx(0.475)]


def test_probing_samples_the_host_on_a_timer():
    tally = Tally()
    with tally.probing():
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
    assert len(tally.probes) >= 3
    assert all(start < stop and kernel > 0 for start, stop, kernel in tally.probes)
