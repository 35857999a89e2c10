"""Pinned output values of the sampling kernels.

The line profiler keeps only each line's output byte count, so the run
digests in ``test_sim_equivalence.py`` and the paper claims cannot see
a kernel rewrite that changes values but not shapes.  This module
hashes the values themselves: every array's dtype, shape and bytes and
every scalar's ``repr``, line by line, for the four workloads whose
kernels dominate the sampling phase, at the smallest sampling factor.
It also covers one CSR-sweep dataset, a tolerance-stopped PageRank and
the served GBDT model's predictions on edge cases of its bins.  Fitted
curves are left out: a least-squares fit goes through LAPACK, whose
last bits depend on which BLAS kernel the CPU selects; every value
hashed here is the same under each OpenBLAS core type.
"""

import hashlib

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.graph.csr import csr_from_edges
from repro.graph.generators import power_law_prefix
from repro.graph.pagerank_core import pagerank
from repro.lang.dataset import Dataset
from repro.workloads import get_workload
from repro.workloads import pagerank as pagerank_workload
from repro.workloads.lightgbm import _feature_matrix, trained_model

#: The smallest sampling factor the profiler runs (2**-10).
SAMPLE_FACTOR = SystemConfig().sampling_factors[0]

#: sha256 over every value ``_fold`` sees in ``kernel_values``.
PINNED_KERNEL_DIGEST = (
    "4fb1dc3fe547af1bfcf3540018eb3fbe058d35423c571fec407310af6fdba3e0"
)


def _fold(hasher, value):
    """Feed one output value to ``hasher``: arrays by bytes, the rest by repr."""
    if isinstance(value, dict):
        for key in sorted(value):
            hasher.update(repr(key).encode())
            _fold(hasher, value[key])
    elif isinstance(value, np.ndarray):
        hasher.update(repr((value.dtype.str, value.shape)).encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    else:
        hasher.update(repr(value).encode())


def _run_lines(hasher, program, payload):
    for statement in program:
        payload = statement.kernel(payload)
        hasher.update(statement.name.encode())
        _fold(hasher, payload)


@pytest.fixture(scope="module")
def kernel_values():
    """sha256 of every pinned kernel output, computed once."""
    hasher = hashlib.sha256()
    for name in ("pagerank", "sparsemv", "kmeans", "lightgbm"):
        workload = get_workload(name)
        _run_lines(hasher, workload.program, workload.dataset.sample(SAMPLE_FACTOR).payload)

    # The degree-4, alpha-1.5 dataset of run_csr_matrix_sweep, through the
    # whole PageRank program rather than only its CSR line.
    def builder(n, full):
        src, dst, _ = power_law_prefix(
            prefix_edges=n, full_edges=full, avg_degree=4.0, alpha=1.5, seed=701,
        )
        return {"src": src, "dst": dst}

    sweep = Dataset(name="csr-sweep", n_records=50_000_000, record_bytes=24.0,
                    builder=builder)
    _run_lines(hasher, pagerank_workload.build_program(),
               sweep.sample(SAMPLE_FACTOR).payload)

    # A 3-cycle plus a dangling vertex, stopped by the tolerance.
    graph = csr_from_edges(np.array([0, 1, 2]), np.array([1, 2, 0]), n_rows=4)
    _fold(hasher, pagerank(graph, iterations=200, tol=1e-12))

    # Random rows plus NaN, +-inf, -0.0 and exact bin edges.
    model = trained_model()
    features = _feature_matrix(512, seed=7).astype(np.float64)
    features[0], features[1], features[2], features[3] = np.nan, np.inf, -np.inf, -0.0
    features[4:8] = model.bin_edges[[0, 10, 31, -1]]
    features[8] = np.nextafter(model.bin_edges[20], np.inf)
    features[9] = np.nextafter(model.bin_edges[20], -np.inf)
    _fold(hasher, model.quantise(features))
    _fold(hasher, model.predict(features))
    return hasher.hexdigest()


def test_kernel_values_are_pinned(kernel_values):
    assert kernel_values == PINNED_KERNEL_DIGEST
