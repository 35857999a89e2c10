"""Synthetic graph generation with a skew-aware storage order.

The population is *defined* by a closed-form degree sequence: vertex
``i`` (of ``n_vertices``, ascending by degree) has

    deg(i) = max(1, round(avg_degree * (n/(n-i))^alpha / norm))

With the default ``alpha = 1.5`` the vast majority of vertices sit at
the floor (degree 1) while a short head of hubs carries most edges —
the familiar power-law shape.  The stored edge list is **fringe
first**: a crawler draining its frontier emits the degree-1 leaves long
before it finishes the hubs, so the file begins with them.
Destinations are drawn preferentially (hubs attract most in-edges).

Consequence: a prefix sample of the stored records covers roughly one
*distinct* source vertex per edge, while the full population has
``avg_degree`` edges per vertex.  A sampling-based predictor therefore
measures a much larger per-edge CSR footprint than the population's —
reproducing, from real data, the paper's observation that ActivePy
"always over-estimates the data volume after generating CSR" (§V).

The full population (hundreds of millions of edges) is never
materialised; :func:`power_law_prefix` computes exactly the records a
prefix sample contains, and :func:`power_law_true_csr_bytes` gives the
population-scale ground truth analytically.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import WorkloadError
from .csr import csr_nbytes

#: Default skew exponents: out-degrees and preferential destinations.
DEFAULT_ALPHA = 1.5
DEFAULT_DST_S = 1.8


@lru_cache(maxsize=None)  # every sample of a dataset asks for the same one
def _degree_normaliser(n_vertices: int, alpha: float) -> float:
    """Mean of (n/(n-i))^alpha over i, via the rank form r^-alpha."""
    ranks = np.arange(1, n_vertices + 1, dtype=np.float64)
    return float(np.mean(ranks**-alpha))


def _degrees_ascending(
    start: int, count: int, n_vertices: int, avg_degree: float,
    alpha: float, norm: float,
) -> np.ndarray:
    """Degrees of vertices [start, start+count), ascending order."""
    i = np.arange(start, start + count, dtype=np.float64)
    ranks = n_vertices - i  # vertex 0 has the worst (largest) rank
    raw = avg_degree * ranks**-alpha / norm
    return np.maximum(1, np.round(raw)).astype(np.int64)


def _preferential_destinations(
    count: int, n_vertices: int, s: float, rng: np.random.Generator
) -> np.ndarray:
    """Destinations drawn Zipf-like toward the hubs (high vertex ids)."""
    u = rng.random(count)
    ranks = np.floor(u ** (-1.0 / (s - 1.0))).astype(np.int64)
    ranks = np.clip(ranks, 1, n_vertices)
    return n_vertices - ranks  # rank 1 = the biggest hub = last id


def vertices_for_edges(n_edges: int, avg_degree: float = 8.0) -> int:
    """Population vertex count implied by an edge count."""
    if n_edges <= 0:
        raise WorkloadError(f"n_edges must be positive, got {n_edges}")
    if avg_degree <= 0:
        raise WorkloadError(f"avg_degree must be positive, got {avg_degree}")
    return max(2, int(round(n_edges / avg_degree)))


def power_law_prefix(
    prefix_edges: int,
    full_edges: int,
    avg_degree: float = 8.0,
    alpha: float = DEFAULT_ALPHA,
    dst_s: float = DEFAULT_DST_S,
    seed: int = 11,
) -> tuple:
    """First ``prefix_edges`` stored records of the full population.

    Returns ``(src, dst, n_vertices_full)``.  Only the fringe vertices
    the prefix covers are enumerated, so cost is O(prefix), never
    O(population).
    """
    if prefix_edges <= 0:
        raise WorkloadError(f"prefix_edges must be positive, got {prefix_edges}")
    if prefix_edges > full_edges:
        raise WorkloadError(
            f"prefix of {prefix_edges} edges exceeds population of {full_edges}"
        )
    n_vertices = vertices_for_edges(full_edges, avg_degree)
    norm = _degree_normaliser(min(n_vertices, 1_000_000), alpha)

    chunks = []
    covered = 0
    start = 0
    block = max(1024, prefix_edges // 4)
    while covered < prefix_edges and start < n_vertices:
        count = min(block, n_vertices - start)
        degrees = _degrees_ascending(start, count, n_vertices, avg_degree, alpha, norm)
        chunks.append(np.repeat(np.arange(start, start + count, dtype=np.int64), degrees))
        covered += int(degrees.sum())
        start += count
    src = np.concatenate(chunks)[:prefix_edges]
    if src.size < prefix_edges:
        # The entire fringe plus head did not reach the request (only
        # possible for near-population prefixes); pad with hub edges.
        pad = np.full(prefix_edges - src.size, n_vertices - 1, dtype=np.int64)
        src = np.concatenate([src, pad])
    rng = np.random.default_rng(seed)
    dst = _preferential_destinations(prefix_edges, n_vertices, dst_s, rng)
    return src, dst, n_vertices


def power_law_true_csr_bytes(
    n_edges: int,
    avg_degree: float = 8.0,
    weighted: bool = False,
) -> float:
    """Population-scale CSR footprint (analytic ground truth).

    Unweighted drops the values array: int64 indptr + int32 indices.
    """
    n_vertices = vertices_for_edges(n_edges, avg_degree)
    full = csr_nbytes(n_vertices, n_edges)
    if weighted:
        return full
    return full - 8.0 * n_edges  # no values array

