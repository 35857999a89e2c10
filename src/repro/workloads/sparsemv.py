"""SparseMV: repeated sparse matrix-vector products.

Discussed in the paper's §V and Figure 5 (it shares PageRank's CSR
story) though absent from Table I; we size it at 6.5 GB.  The stored
records are weighted coordinate triples; the program parses them,
builds a *weighted* CSR matrix, runs 50 y = Ax sweeps, and collects
the result norm.  The weighted values array dilutes the per-edge
footprint skew, so the CSR over-estimate here (~1.5x) is milder than
PageRank's (~2.4x) — giving the error distribution its "up to" shape.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..graph.csr import CSRMatrix
from ..graph.generators import power_law_prefix, power_law_true_csr_bytes
from ..graph.pagerank_core import _coo
from ..lang.dataset import Dataset
from ..lang.program import Program, Statement, constant, per_record
from ..units import GB
from .base import Workload, register, scaled_records

#: Stored bytes per coordinate record (row, col, value + framing).
RECORD_BYTES = 40.0
TABLE1_BYTES = 6.5 * GB
FULL_RECORDS = int(TABLE1_BYTES / RECORD_BYTES)

AVG_DEGREE = 8.0
SWEEPS = 50

# Ground-truth per-record instruction counts.
_INSTR_PARSE = 30.0
_INSTR_CSR = 12.0
_INSTR_SPMV_PER_SWEEP = 4.0
_INSTR_COLLECT = 0.2


def _build_payload(n: int, full: int) -> Dict[str, Any]:
    src, dst, _ = power_law_prefix(
        prefix_edges=n, full_edges=full, avg_degree=AVG_DEGREE, seed=521
    )
    rng = np.random.default_rng(523)
    return {"row": src, "col": dst, "val": rng.normal(0.0, 1.0, size=n)}


def _k_parse(p: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "row": np.asarray(p["row"], dtype=np.int64),
        "col": np.asarray(p["col"], dtype=np.int64),
        "val": np.asarray(p["val"], dtype=np.float64),
    }


def _k_build_csr(p: Dict[str, Any]) -> Dict[str, Any]:
    """Dense relabel + weighted CSR over the observed vertex universe."""
    vertices, flat = np.unique(
        np.concatenate([p["row"], p["col"]]), return_inverse=True
    )
    n_rows = vertices.size
    row = flat[: p["row"].size].astype(np.int64)
    col = flat[p["row"].size:].astype(np.int32)
    order = np.argsort(row, kind="stable")
    counts = np.bincount(row, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return {
        "indptr": indptr,
        "indices": col[order],
        "values": p["val"][order],
    }


def _k_sweeps(p: Dict[str, Any]) -> Dict[str, Any]:
    matrix = _coo(CSRMatrix(
        indptr=p["indptr"], indices=p["indices"], values=p["values"]
    ))
    x = np.ones(matrix.n_rows)
    for _ in range(SWEEPS):
        y = matrix.matvec(x)
        norm = float(np.linalg.norm(y))
        x = y / norm if norm > 0 else np.ones(matrix.n_rows)
    return {"x": x}


def _k_collect(p: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "norm": float(np.linalg.norm(p["x"])),
        "dim": float(p["x"].size),
    }


def _true_csr_bytes(n: float) -> float:
    return power_law_true_csr_bytes(int(n), avg_degree=AVG_DEGREE, weighted=True)


def build_program() -> Program:
    return Program(
        "sparsemv",
        [
            Statement(
                "parse_triples", _k_parse,
                instructions=per_record(_INSTR_PARSE),
                output_bytes=per_record(24.0),
                storage_bytes=per_record(RECORD_BYTES),
                chunks=64,
            ),
            Statement(
                "build_csr", _k_build_csr,
                instructions=per_record(_INSTR_CSR),
                output_bytes=_true_csr_bytes,
            ),
            Statement(
                "spmv_sweeps", _k_sweeps,
                instructions=per_record(_INSTR_SPMV_PER_SWEEP * SWEEPS),
                output_bytes=lambda n: 8.0 * max(1.0, n / AVG_DEGREE),
                chunks=SWEEPS,
            ),
            Statement(
                "collect_norm", _k_collect,
                instructions=per_record(_INSTR_COLLECT),
                output_bytes=constant(16.0),
            ),
        ],
    )


@register("sparsemv")
def build(scale: float = 1.0) -> Workload:
    n = scaled_records(FULL_RECORDS, scale)
    dataset = Dataset(
        name="sparsemv.triples",
        n_records=n,
        record_bytes=RECORD_BYTES,
        builder=_build_payload,
    )
    return Workload(
        name="sparsemv",
        description="Repeated weighted SpMV over a stored sparse matrix",
        table1_bytes=0.0,  # not in Table I; §V and Fig. 5 only
        dataset=dataset,
        program=build_program(),
    )
