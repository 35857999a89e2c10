"""The sampling kernels against independent scatter-add oracles, bit for bit.

Each oracle states what its kernel computes in the plainest NumPy:
``np.add.at`` scatters in element order, per-column
``np.searchsorted``.  The kernels must equal them in every bit
(compared with ``tobytes()``, so signed zeros count), on inputs chosen
to hit the edge cases: empty rows, dangling vertices, empty clusters,
non-C-contiguous points, duplicate bin edges and keys at, just beside,
or beyond the edges.  A shrunk failure prints a ``print_blob`` replay.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.graph.csr import csr_from_edges
from repro.graph.pagerank_core import pagerank, spmv
from repro.ml.gbdt import GBDTModel, TreeNode
from repro.ml.kmeans_core import kmeans_update

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- CSR: SpMV and PageRank -------------------------------------------------------

@st.composite
def csr_matrices(draw):
    """A square CSR matrix; some rows (out-degree 0) are left empty."""
    n = draw(st.integers(1, 12))
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    m = draw(st.integers(0, 40))
    src = np.array(draw(st.lists(st.sampled_from(sources), min_size=m, max_size=m)),
                   dtype=np.int64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                   dtype=np.int64)
    values = draw(arrays(np.float64, m, elements=FINITE))
    return csr_from_edges(src, dst, n_rows=n, values=values)


def coo_rows(matrix):
    return np.repeat(np.arange(matrix.n_rows), np.diff(matrix.indptr))


def spmv_oracle(matrix, x):
    y = np.zeros(matrix.n_rows)
    np.add.at(y, coo_rows(matrix), matrix.values * x[matrix.indices])
    return y


def pagerank_oracle(matrix, damping, iterations, tol):
    n = matrix.n_rows
    out_degree = np.diff(matrix.indptr).astype(np.float64)
    ranks = np.full(n, 1.0 / n)
    for _ in range(iterations):
        contrib = ranks / np.maximum(out_degree, 1.0)
        incoming = np.zeros(n)
        np.add.at(incoming, matrix.indices, contrib[coo_rows(matrix)])
        new_ranks = (1.0 - damping) / n + damping * incoming
        new_ranks += damping * ranks[out_degree == 0].sum() / n
        delta = np.abs(new_ranks - ranks).sum()
        ranks = new_ranks
        if tol and delta < tol:
            break
    return ranks / ranks.sum()


@settings(max_examples=100, deadline=None, print_blob=True)
@given(matrix=csr_matrices(), data=st.data())
def test_spmv_equals_scatter_add(matrix, data):
    x = data.draw(arrays(np.float64, matrix.n_rows, elements=FINITE))
    assert same_bits(spmv(matrix, x), spmv_oracle(matrix, x))


@settings(max_examples=100, deadline=None, print_blob=True)
@given(
    matrix=csr_matrices(),
    damping=st.sampled_from([0.5, 0.85, 0.99]),
    iterations=st.integers(1, 40),
    tol=st.sampled_from([0.0, 1e-12, 1e-3]),
)
def test_pagerank_equals_scatter_add(matrix, damping, iterations, tol):
    assert same_bits(
        pagerank(matrix, damping=damping, iterations=iterations, tol=tol),
        pagerank_oracle(matrix, damping, iterations, tol),
    )


# --- KMeans update ----------------------------------------------------------------

@settings(max_examples=100, deadline=None, print_blob=True)
@given(
    n=st.integers(0, 30),
    d=st.integers(1, 5),
    k=st.integers(1, 8),
    layout=st.sampled_from(["C", "F", "transposed", "strided"]),
    data=st.data(),
)
def test_kmeans_update_equals_scatter_add(n, d, k, layout, data):
    values = data.draw(arrays(np.float64, (n, d), elements=FINITE))
    if layout == "F":
        points = np.asfortranarray(values)
    elif layout == "transposed":
        points = np.ascontiguousarray(values.T).T
    elif layout == "strided":
        points = np.repeat(values, 2, axis=0)[::2]
    else:
        points = values
    # Labels from a subset of clusters, so some clusters stay empty.
    used = data.draw(st.integers(1, k))
    labels = np.array(data.draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n)),
                      dtype=np.intp)

    sums = np.zeros((k, d))
    np.add.at(sums, labels, values)
    counts = np.zeros(k, dtype=np.int64)
    np.add.at(counts, labels, 1)
    expected = sums / np.maximum(counts, 1)[:, None]

    centroids, sizes = kmeans_update(points, labels, k)
    assert same_bits(centroids, expected)
    assert same_bits(sizes, counts)


# --- GBDT binning -----------------------------------------------------------------

@st.composite
def binning_cases(draw):
    """Sorted edges with duplicates, and keys at and beside every edge."""
    n_edges = draw(st.integers(1, 80))
    d = draw(st.integers(1, 3))
    pool = draw(st.lists(FINITE, min_size=1, max_size=8))
    columns = [
        np.sort(np.array(draw(st.lists(st.sampled_from(pool + [-np.inf, np.inf]),
                                       min_size=n_edges, max_size=n_edges))))
        for _ in range(d)
    ]
    edges = np.stack(columns, axis=1)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    for value in np.unique(edges):
        specials += [value, np.nextafter(value, -np.inf), np.nextafter(value, np.inf)]
    rows = draw(st.integers(1, 40))
    keys = st.one_of(st.sampled_from(specials), FINITE)
    features = np.array(draw(st.lists(keys, min_size=rows * d, max_size=rows * d)))
    return edges, features.reshape(rows, d)


@settings(max_examples=100, deadline=None, print_blob=True)
@given(case=binning_cases())
def test_quantise_equals_searchsorted(case):
    edges, features = case
    model = GBDTModel(trees=[TreeNode()], bin_edges=edges, base_score=0.0,
                      n_bins=edges.shape[0] + 1)
    expected = np.stack(
        [np.searchsorted(edges[:, j], features[:, j]) for j in range(edges.shape[1])],
        axis=1,
    ).astype(np.uint8)
    assert same_bits(model.quantise(features), expected)
