"""Lloyd's algorithm primitives for the KMeans workload.

Split into the two steps the workload's program lines map to:
assignment (each point to its nearest centroid — the data-heavy,
offloadable scan) and update (recompute centroids from the labels —
cheap, host-side).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError


@dataclass
class KMeansState:
    """Centroids plus convergence bookkeeping."""

    centroids: np.ndarray  # (k, d)
    iteration: int = 0
    shift: float = np.inf

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def init_centroids(points: np.ndarray, k: int, seed: int = 7) -> np.ndarray:
    """Pick k distinct points as initial centroids (deterministic)."""
    if points.ndim != 2:
        raise WorkloadError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if k <= 0 or k > n:
        raise WorkloadError(f"need 0 < k <= {n}, got k={k}")
    rng = np.random.default_rng(seed)
    indices = rng.choice(n, size=k, replace=False)
    return points[indices].copy()


def init_centroids_pp(points: np.ndarray, k: int, seed: int = 7) -> np.ndarray:
    """k-means++ seeding: spread initial centroids D^2-proportionally.

    Converges in fewer Lloyd iterations on clustered data than uniform
    seeding, at the cost of k extra distance passes.
    """
    if points.ndim != 2:
        raise WorkloadError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if k <= 0 or k > n:
        raise WorkloadError(f"need 0 < k <= {n}, got k={k}")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    closest = np.full(n, np.inf)
    for i in range(1, k):
        deltas = points - centroids[i - 1]
        closest = np.minimum(closest, np.einsum("nd,nd->n", deltas, deltas))
        total = closest.sum()
        if total <= 0:
            # All points coincide with chosen centroids; fall back to
            # uniform picks for the remainder.
            centroids[i:] = points[rng.choice(n, size=k - i, replace=False)]
            break
        centroids[i] = points[rng.choice(n, p=closest / total)]
    return centroids


def kmeans_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Label each point with its nearest centroid (squared Euclidean)."""
    if points.shape[1] != centroids.shape[1]:
        raise WorkloadError(
            f"dimension mismatch: points d={points.shape[1]}, "
            f"centroids d={centroids.shape[1]}"
        )
    # ||p - c||^2 = ||p||^2 - 2 p.c + ||c||^2; the ||p||^2 term is
    # constant per point and does not affect the argmin.  Formed in the
    # matmul output: IEEE + commutes and -2x is exactly -(2x), so the
    # bits equal ||c||^2 - 2 p.c without two fresh (n, k) temporaries.
    scores = points @ centroids.T
    scores *= -2.0
    scores += np.einsum("kd,kd->k", centroids, centroids)
    return np.argmin(scores, axis=1)


def kmeans_update(
    points: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute centroids; returns (centroids, cluster sizes).

    Empty clusters keep a zero centroid and report size 0 — the caller
    decides whether to reseed.
    """
    if points.ndim != 2:
        raise WorkloadError(f"points must be 2-D, got shape {points.shape}")
    n, d = points.shape
    if labels.shape != (n,):
        raise WorkloadError(f"{labels.shape} labels for {n} points")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise WorkloadError(f"labels must lie in [0, {k})")
    if points.dtype == np.float64:
        # One weighted bincount over (cluster, dimension) bins.  Each
        # bin adds its rows in row order — the same addition sequence
        # as an unbuffered scatter-add, so the sums are bit-identical
        # to np.add.at, in one C loop over all n * d values.
        bins = labels[:, None] * d + np.arange(d)
        sums = np.bincount(
            bins.ravel(), weights=points.ravel(), minlength=k * d
        ).reshape(k, d)
    else:
        # bincount always accumulates in float64; preserve the exact
        # same-dtype accumulation for non-f64 inputs.
        sums = np.zeros((k, d), dtype=points.dtype)
        np.add.at(sums, labels, points)
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    centroids = np.divide(
        sums,
        np.maximum(counts, 1)[:, None],
        dtype=np.float64,
    )
    return centroids, counts


def kmeans_fit(
    points: np.ndarray,
    k: int,
    iterations: int = 10,
    seed: int = 7,
) -> KMeansState:
    """Full Lloyd loop, for functional tests and examples."""
    if iterations < 1:
        raise WorkloadError(f"iterations must be >= 1, got {iterations}")
    centroids = init_centroids(points, k, seed=seed)
    state = KMeansState(centroids=centroids)
    for _ in range(iterations):
        labels = kmeans_assign(points, state.centroids)
        new_centroids, counts = kmeans_update(points, labels, k)
        # Keep old centroids for clusters that emptied out.
        empty = counts == 0
        new_centroids[empty] = state.centroids[empty]
        state.shift = float(np.linalg.norm(new_centroids - state.centroids))
        state.centroids = new_centroids
        state.iteration += 1
        if state.shift < 1e-9:
            break
    return state


def inertia(points: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances to assigned centroids (quality metric)."""
    labels = kmeans_assign(points, centroids)
    deltas = points - centroids[labels]
    return float(np.einsum("nd,nd->", deltas, deltas))
