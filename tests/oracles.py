"""Independent oracles that only the tests use.

Each one computes an answer straight from the data, without the program
model or the simulator, so a test can hold the live kernels to it.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.tpch.engine import Table, filter_rows, hash_join
from repro.workloads.tpch.schema import date_index


def q14_reference(lineitem: Table, part: Table) -> float:
    """TPC-H Q14, promotion effect.

    Filter one ship month, join ``part``, and return
    ``100 * promo revenue / total revenue`` (promo = p_type PROMO%).
    """
    start = date_index(1995, 9, 1)
    end = date_index(1995, 10, 1)
    month = filter_rows(
        lineitem,
        (lineitem["shipdate"] >= start) & (lineitem["shipdate"] < end),
    )
    joined = hash_join(
        month, part,
        left_key="partkey", right_key="p_partkey",
        right_columns=("p_is_promo",),
    )
    revenue = joined["extendedprice"] * (1.0 - joined["discount"])
    total = float(np.sum(revenue))
    if total == 0.0:
        return 0.0
    promo = float(np.sum(revenue[joined["p_is_promo"]]))
    return 100.0 * promo / total
