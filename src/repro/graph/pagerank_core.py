"""PageRank and sparse matrix-vector primitives over CSR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from .csr import CSRMatrix


@dataclass(frozen=True)
class _Coo:
    """A CSR matrix expanded once into validated COO form.

    Weighted bincount is a scatter-add per stored element: immune to
    the empty-row pitfalls of segment reductions (np.add.reduceat
    mis-handles rows whose start index equals the array length or the
    next row's start), accumulates per bin in element order like
    np.add.at (bit-identical), and runs as a single C loop.  Repeated
    products reuse the expanded rows and the intp columns instead of
    rebuilding them per call.
    """

    rows: np.ndarray  # intp row of every stored element
    cols: np.ndarray  # intp column of every stored element
    values: np.ndarray
    n_rows: int
    #: Shortest vector the columns can index (largest column + 1).
    n_cols: int

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A x."""
        if x.shape[0] < self.n_cols:
            raise WorkloadError(
                f"vector of length {x.shape[0]} too short for matrix columns"
            )
        products = self.values * x.take(self.cols)
        # bincount returns ints, not floats, when there are no elements.
        return np.bincount(
            self.rows, weights=products, minlength=self.n_rows
        ).astype(np.float64, copy=False)


def _coo(matrix: CSRMatrix) -> _Coo:
    """Validate the column indices and expand the row of every element."""
    if matrix.nnz and matrix.indices.min() < 0:
        raise WorkloadError("negative column index in CSR matrix")
    rows = np.repeat(np.arange(matrix.n_rows, dtype=np.intp), np.diff(matrix.indptr))
    return _Coo(
        rows=rows,
        cols=matrix.indices.astype(np.intp),
        values=matrix.values,
        n_rows=matrix.n_rows,
        n_cols=int(matrix.indices.max(initial=-1)) + 1,
    )


def spmv(matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """y = A x for a CSR matrix (vectorised, no scipy dependency)."""
    return _coo(matrix).matvec(x)


def pagerank(
    matrix: CSRMatrix,
    damping: float = 0.85,
    iterations: int = 20,
    tol: float = 0.0,
) -> np.ndarray:
    """Power iteration over the column-stochastic transition matrix.

    ``matrix`` holds out-edges row-wise; ranks are normalised each
    sweep so dangling mass is redistributed uniformly and the result
    sums to one.  With ``tol`` nonzero, iteration stops once the L1
    change of a sweep falls below it.
    """
    if not 0 < damping < 1:
        raise WorkloadError(f"damping must lie in (0, 1), got {damping}")
    if iterations < 1:
        raise WorkloadError(f"iterations must be >= 1, got {iterations}")
    n = matrix.n_rows
    if n == 0:
        raise WorkloadError("pagerank needs at least one vertex")
    coo = _coo(matrix)
    if coo.n_cols > n:
        raise WorkloadError(f"column {coo.n_cols - 1} out of range for {n} vertices")
    out_degree = matrix.out_degree().astype(np.float64)
    safe_degree = np.maximum(out_degree, 1.0)
    dangling = np.flatnonzero(out_degree == 0)
    teleport = (1.0 - damping) / n
    ranks = np.full(n, 1.0 / n)
    contrib = np.empty(n)
    for _ in range(iterations):
        np.divide(ranks, safe_degree, out=contrib)
        # Push each vertex's share along its out-edges: y[d] += c[s]
        # (as floats even when there are no edges, as in matvec).
        new_ranks = np.bincount(
            coo.cols, weights=contrib.take(coo.rows), minlength=n
        ).astype(np.float64, copy=False)
        # damping * y + teleport: IEEE + and * commute, so updating in
        # place gives the bits of teleport + damping * y.
        new_ranks *= damping
        new_ranks += teleport
        # Redistribute dangling-node mass uniformly.
        new_ranks += damping * ranks.take(dangling).sum() / n
        converged = bool(tol) and float(np.abs(new_ranks - ranks).sum()) < tol
        ranks = new_ranks
        if converged:
            break
    return ranks / ranks.sum()
