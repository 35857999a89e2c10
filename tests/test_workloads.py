"""Workload definitions: registry, sizes, kernels, cost-model honesty."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.runtime.profiler import payload_nbytes
from repro.units import GB
from repro.workloads import all_workloads, get_workload, workload_names
from repro.workloads.base import scaled_records

#: Small scales that keep functional runs fast; matrixmul and mixedgemm
#: have few, fat records so they scale less aggressively.
TEST_SCALES = {
    "blackscholes": 2**-12,
    "kmeans": 2**-11,
    "lightgbm": 2**-12,
    "matrixmul": 2**-7,
    "mixedgemm": 2**-9,
    "pagerank": 2**-12,
    "sparsemv": 2**-12,
    "tpch_q1": 2**-12,
    "tpch_q6": 2**-12,
    "tpch_q14": 2**-12,
}

#: The paper's Table I sizes in GB (sparsemv is not listed there).
TABLE1_GB = {
    "blackscholes": 9.1, "kmeans": 5.3, "lightgbm": 7.1, "matrixmul": 6.0,
    "mixedgemm": 9.4, "pagerank": 7.7, "tpch_q1": 6.9, "tpch_q6": 6.9,
    "tpch_q14": 7.1,
}


class TestRegistry:
    def test_all_ten_workloads_registered(self):
        names = workload_names()
        assert set(TEST_SCALES) == set(names)

    def test_order_does_not_depend_on_import_order(self):
        # The pinned run digests iterate this list, so a process that
        # imports one workload module before anything else must still
        # list the names in module order.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        script = (
            "import json, repro.workloads.lightgbm\n"
            "from repro.workloads import workload_names\n"
            "print(json.dumps(workload_names()))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert json.loads(out) == workload_names()
        assert workload_names()[:3] == ["blackscholes", "kmeans", "lightgbm"]

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("nope")

    def test_invalid_scale_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("tpch_q6", scale=0.0)
        with pytest.raises(WorkloadError):
            get_workload("tpch_q6", scale=2.0)

    def test_all_workloads_builds_everything(self):
        suite = all_workloads(scale=2**-7)
        assert len(suite) == 10


class TestTable1Sizes:
    @pytest.mark.parametrize("name,expected_gb", sorted(TABLE1_GB.items()))
    def test_full_scale_matches_paper(self, name, expected_gb):
        workload = get_workload(name)
        assert workload.raw_bytes == pytest.approx(expected_gb * GB, rel=0.01)
        assert workload.table1_bytes == pytest.approx(expected_gb * GB)

    def test_sparsemv_not_in_table1(self):
        assert get_workload("sparsemv").table1_bytes == 0.0

    def test_scaled_records_floor(self):
        with pytest.raises(WorkloadError):
            scaled_records(100, 0.01)


@pytest.mark.parametrize("name", sorted(TEST_SCALES))
class TestFunctionalKernels:
    def test_program_runs_end_to_end(self, name):
        workload = get_workload(name, scale=TEST_SCALES[name])
        result = workload.program.run_kernels(workload.dataset.payload)
        assert isinstance(result, dict) and result

    def test_final_output_is_small(self, name):
        # Every program ends in a reduction: the value returned to the
        # caller is orders of magnitude below the input.
        workload = get_workload(name, scale=TEST_SCALES[name])
        result = workload.program.run_kernels(workload.dataset.payload)
        assert payload_nbytes(result) < 0.01 * workload.raw_bytes


class TestCostModelHonesty:
    """Measured kernel outputs must track the declared cost laws."""

    @pytest.mark.parametrize("name", [
        "blackscholes", "lightgbm", "tpch_q6", "tpch_q1", "tpch_q14",
        "kmeans", "matrixmul", "mixedgemm",
    ])
    def test_measured_output_matches_declared_law(self, name):
        workload = get_workload(name, scale=TEST_SCALES[name])
        payload = workload.dataset.payload
        n = workload.n_records
        for index, statement in enumerate(workload.program):
            payload = statement.kernel(payload)
            declared = statement.output_bytes(n)
            measured = payload_nbytes(payload)
            assert measured == pytest.approx(declared, rel=0.25, abs=1024), (
                f"{name}.{statement.name}: declared {declared}, measured {measured}"
            )

    def test_sparse_sample_diverges_from_population_law(self):
        # The intended exception: PageRank's CSR line measures *bigger*
        # on a prefix sample than its population law (paper §V).
        workload = get_workload("pagerank")  # full population
        sample = workload.dataset.sample(2**-10)
        payload = sample.payload
        program = workload.program
        payload = program[0].kernel(payload)
        payload = program[1].kernel(payload)
        measured = payload_nbytes(payload)
        declared = program[1].output_bytes(sample.n_records)
        assert measured > 1.8 * declared


class TestWorkloadResults:
    def test_blackscholes_prices_positive(self):
        workload = get_workload("blackscholes", scale=TEST_SCALES["blackscholes"])
        result = workload.program.run_kernels(workload.dataset.payload)
        assert result["mean_price"] > 0
        assert result["max_price"] >= result["mean_price"]

    def test_kmeans_clusters_all_points(self):
        workload = get_workload("kmeans", scale=TEST_SCALES["kmeans"])
        result = workload.program.run_kernels(workload.dataset.payload)
        assert int(np.sum(result["cluster_sizes"])) == workload.n_records
        assert result["inertia"] > 0

    def test_pagerank_ranks_normalised(self):
        workload = get_workload("pagerank", scale=TEST_SCALES["pagerank"])
        result = workload.program.run_kernels(workload.dataset.payload)
        assert result["rank_sum"] == pytest.approx(1.0)

    def test_tpch_q6_matches_reference(self):
        from repro.workloads.tpch.queries import q6_reference

        workload = get_workload("tpch_q6", scale=TEST_SCALES["tpch_q6"])
        result = workload.program.run_kernels(workload.dataset.payload)
        expected = q6_reference(workload.dataset.payload)
        assert result["revenue"] == pytest.approx(expected)

    def test_tpch_q1_matches_reference(self):
        from repro.workloads.tpch.queries import q1_reference

        workload = get_workload("tpch_q1", scale=TEST_SCALES["tpch_q1"])
        result = workload.program.run_kernels(workload.dataset.payload)
        expected = q1_reference(workload.dataset.payload)
        assert np.allclose(result["sum_disc_price"], expected["sum_disc_price"])

    def test_tpch_q14_in_promo_band(self):
        workload = get_workload("tpch_q14", scale=TEST_SCALES["tpch_q14"])
        result = workload.program.run_kernels(workload.dataset.payload)
        assert 5.0 < result["promo_revenue_pct"] < 40.0

    def test_lightgbm_model_learns_signal(self):
        from repro.workloads.lightgbm import _target_fn, trained_model

        model = trained_model()
        rng = np.random.default_rng(99)
        fresh = rng.normal(size=(2000, 28)).astype(np.float64)
        predictions = model.predict(fresh)
        targets = _target_fn(fresh)
        residual = float(np.mean((targets - predictions) ** 2))
        baseline = float(np.var(targets))
        assert residual < 0.5 * baseline
