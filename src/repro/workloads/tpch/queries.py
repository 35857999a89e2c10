"""Reference implementations of the paper's TPC-H queries.

These compute the query answers directly (no program model, no
simulator) and serve two purposes: the workloads' kernels are checked
against them, and the examples print their results.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .engine import Table, filter_rows, group_aggregate
from .schema import date_index


def q1_reference(lineitem: Table) -> Table:
    """Q1: pricing summary report.

    Filter ``shipdate <= 1998-12-01 - 90 days`` (~98% selectivity),
    group by (returnflag, linestatus), compute the six aggregates.
    """
    cutoff = date_index(1998, 12, 1) - 90
    kept = filter_rows(lineitem, lineitem["shipdate"] <= cutoff)
    disc_price = kept["extendedprice"] * (1.0 - kept["discount"])
    charge = disc_price * (1.0 + kept["tax"])
    table = dict(kept)
    table["disc_price"] = disc_price
    table["charge"] = charge
    return group_aggregate(
        table,
        keys=("returnflag", "linestatus"),
        aggregates={
            "sum_qty": ("quantity", np.sum),
            "sum_base_price": ("extendedprice", np.sum),
            "sum_disc_price": ("disc_price", np.sum),
            "sum_charge": ("charge", np.sum),
            "avg_qty": ("quantity", np.mean),
            "avg_price": ("extendedprice", np.mean),
            "avg_disc": ("discount", np.mean),
            "count_order": ("quantity", lambda v: np.int64(v.size)),
        },
    )


def q6_reference(lineitem: Table) -> float:
    """Q6: forecasting revenue change.

    Filter one ship year, discount in [0.05, 0.07], quantity < 24;
    return ``sum(extendedprice * discount)``.
    """
    start = date_index(1994, 1, 1)
    end = date_index(1995, 1, 1)
    mask = (
        (lineitem["shipdate"] >= start)
        & (lineitem["shipdate"] < end)
        & (lineitem["discount"] >= 0.05 - 1e-9)
        & (lineitem["discount"] <= 0.07 + 1e-9)
        & (lineitem["quantity"] < 24)
    )
    kept = filter_rows(lineitem, mask)
    return float(np.sum(kept["extendedprice"] * kept["discount"]))


def summarize(table: Dict[str, np.ndarray]) -> str:
    """Small pretty-printer for grouped results (examples use it)."""
    names = list(table)
    rows = len(next(iter(table.values())))
    lines = ["  ".join(f"{name:>14}" for name in names)]
    for i in range(rows):
        cells = []
        for name in names:
            value = table[name][i]
            if isinstance(value, (np.floating, float)):
                cells.append(f"{float(value):>14.2f}")
            else:
                cells.append(f"{value!s:>14}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
