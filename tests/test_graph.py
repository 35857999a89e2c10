"""Graph substrate: CSR, generators with sampling skew, PageRank."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.graph.csr import CSRMatrix, csr_from_edges, csr_nbytes
from repro.graph.generators import (
    distinct_sources,
    power_law_edges,
    power_law_prefix,
    power_law_true_csr_bytes,
    vertices_for_edges,
)
from repro.graph.pagerank_core import pagerank, spmv


class TestCsrFromEdges:
    def test_round_trips_a_dense_matrix(self):
        dense = np.array([
            [0.0, 1.0, 0.0],
            [2.0, 0.0, 3.0],
            [0.0, 0.0, 0.0],
        ])
        rows, cols = np.nonzero(dense)
        matrix = csr_from_edges(rows, cols, n_rows=3, values=dense[rows, cols])
        rebuilt = np.zeros_like(dense)
        for i in range(matrix.n_rows):
            indices, values = matrix.row(i)
            rebuilt[i, indices] = values
        assert np.array_equal(rebuilt, dense)

    def test_unsorted_edges_accepted(self):
        src = np.array([2, 0, 1, 0])
        dst = np.array([0, 1, 2, 2])
        matrix = csr_from_edges(src, dst, n_rows=3)
        assert matrix.nnz == 4
        assert matrix.out_degree().tolist() == [2, 1, 1]

    def test_default_values_are_ones(self):
        matrix = csr_from_edges(np.array([0]), np.array([1]), n_rows=2)
        assert matrix.values.tolist() == [1.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(WorkloadError):
            csr_from_edges(np.array([5]), np.array([0]), n_rows=3)
        with pytest.raises(WorkloadError):
            csr_from_edges(np.array([0]), np.array([5]), n_rows=3)

    def test_nbytes_formula(self):
        assert csr_nbytes(10, 100) == 8 * 11 + 12 * 100

    def test_row_bounds(self):
        matrix = csr_from_edges(np.array([0]), np.array([1]), n_rows=2)
        with pytest.raises(WorkloadError):
            matrix.row(5)


class TestGenerators:
    def test_prefix_has_requested_edges(self):
        src, dst, n_vertices = power_law_prefix(10_000, 1_000_000)
        assert src.size == dst.size == 10_000
        assert n_vertices == vertices_for_edges(1_000_000)

    def test_fringe_first_prefix_is_sparse(self):
        # The core of the CSR-misprediction mechanism: a prefix sample
        # covers roughly one distinct source per edge, while the full
        # population averages `avg_degree` edges per vertex.
        src, _, _ = power_law_prefix(10_000, 10_000_000, avg_degree=8.0)
        assert distinct_sources(src) > 0.3 * src.size

    def test_full_population_is_dense(self):
        src, _, n_vertices = power_law_edges(80_000, avg_degree=8.0)
        assert distinct_sources(src) <= n_vertices
        assert src.size / distinct_sources(src) > 4.0  # near avg_degree

    def test_destinations_prefer_hubs(self):
        _, dst, n_vertices = power_law_prefix(50_000, 1_000_000)
        # Hubs live at the top of the id range; the median destination
        # must sit far above the middle.
        assert np.median(dst) > 0.8 * n_vertices

    def test_true_csr_bytes_unweighted_smaller(self):
        weighted = power_law_true_csr_bytes(1_000_000, weighted=True)
        unweighted = power_law_true_csr_bytes(1_000_000, weighted=False)
        assert unweighted == pytest.approx(weighted - 8.0 * 1_000_000)

    def test_deterministic(self):
        a = power_law_prefix(1000, 100_000, seed=3)
        b = power_law_prefix(1000, 100_000, seed=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_validation(self):
        with pytest.raises(WorkloadError):
            power_law_prefix(0, 100)
        with pytest.raises(WorkloadError):
            power_law_prefix(200, 100)
        with pytest.raises(WorkloadError):
            vertices_for_edges(100, avg_degree=0)


class TestSpmv:
    def test_matches_dense_multiply(self):
        rng = np.random.default_rng(8)
        dense = rng.random((20, 20)) * (rng.random((20, 20)) < 0.3)
        rows, cols = np.nonzero(dense)
        matrix = csr_from_edges(rows, cols, n_rows=20, values=dense[rows, cols])
        x = rng.random(20)
        assert spmv(matrix, x) == pytest.approx(dense @ x)

    def test_empty_rows_stay_zero(self):
        matrix = csr_from_edges(np.array([0, 2]), np.array([1, 1]), n_rows=4)
        y = spmv(matrix, np.ones(4))
        assert y.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_trailing_empty_rows(self):
        # Regression: reduceat start == nnz used to raise.
        matrix = csr_from_edges(np.array([0]), np.array([0]), n_rows=5)
        assert spmv(matrix, np.ones(5)).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_short_vector_rejected(self):
        matrix = csr_from_edges(np.array([0]), np.array([3]), n_rows=4)
        with pytest.raises(WorkloadError):
            spmv(matrix, np.ones(2))

    def test_negative_column_rejected(self):
        matrix = CSRMatrix(
            indptr=np.array([0, 1]),
            indices=np.array([-1], dtype=np.int32),
            values=np.ones(1),
        )
        with pytest.raises(WorkloadError, match="negative column"):
            spmv(matrix, np.ones(1))


class TestPageRank:
    def make_graph(self):
        # 0 -> 1 -> 2 -> 0 plus a dangling node 3.
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 0])
        return csr_from_edges(src, dst, n_rows=4)

    def test_ranks_sum_to_one(self):
        ranks = pagerank(self.make_graph(), iterations=30)
        assert ranks.sum() == pytest.approx(1.0)
        assert np.all(ranks > 0)

    def test_cycle_nodes_symmetric(self):
        ranks = pagerank(self.make_graph(), iterations=60)
        assert ranks[0] == pytest.approx(ranks[1], rel=1e-3)
        assert ranks[1] == pytest.approx(ranks[2], rel=1e-3)

    def test_hub_outranks_fringe(self):
        # Everyone points at node 0.
        src = np.array([1, 2, 3, 0])
        dst = np.array([0, 0, 0, 1])
        matrix = csr_from_edges(src, dst, n_rows=4)
        ranks = pagerank(matrix, iterations=40)
        assert ranks[0] == ranks.max()

    def test_tolerance_stops_early(self):
        ranks_tol = pagerank(self.make_graph(), iterations=500, tol=1e-12)
        ranks_full = pagerank(self.make_graph(), iterations=500)
        assert ranks_tol == pytest.approx(ranks_full, rel=1e-6)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            pagerank(self.make_graph(), damping=1.5)
        with pytest.raises(WorkloadError):
            pagerank(self.make_graph(), iterations=0)

    def test_empty_graph_rejected(self):
        empty = CSRMatrix(
            indptr=np.zeros(1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int32),
            values=np.zeros(0),
        )
        with pytest.raises(WorkloadError, match="at least one vertex"):
            pagerank(empty)

    def test_out_of_range_column_rejected(self):
        matrix = CSRMatrix(
            indptr=np.array([0, 1, 1]),
            indices=np.array([2], dtype=np.int32),
            values=np.ones(1),
        )
        with pytest.raises(WorkloadError, match="out of range"):
            pagerank(matrix)
