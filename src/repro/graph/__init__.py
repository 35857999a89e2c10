"""Graph substrate: edge lists, CSR conversion, PageRank, SpMV.

These back the PageRank, SparseMV and MixedGEMM workloads.  The edge
generator deliberately stores low-degree vertices first — sampling a
prefix of the stored edge list therefore sees a *sparser* slice than
the population, which is the real-data mechanism behind the paper's
CSR volume over-estimation (§V).
"""

from .csr import CSRMatrix, csr_from_edges, csr_nbytes
from .generators import power_law_true_csr_bytes
from .pagerank_core import pagerank, spmv

__all__ = [
    "CSRMatrix",
    "csr_from_edges",
    "csr_nbytes",
    "power_law_true_csr_bytes",
    "pagerank",
    "spmv",
]
