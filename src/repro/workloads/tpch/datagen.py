"""Synthetic TPC-H table generation.

Value distributions follow the TPC-H specification closely enough that
the paper's three queries see their spec selectivities:

* ``l_shipdate`` uniform over the seven-year order window, so Q6's
  one-year filter keeps ~15% before the discount/quantity cuts and
  Q14's one-month filter keeps ~1.2%;
* ``l_discount`` uniform over {0.00 … 0.10}, so Q6's
  ``between 0.05 and 0.07`` keeps ~27%;
* ``l_quantity`` uniform over 1..50, so Q6's ``< 24`` keeps ~46%;
* ``p_type`` begins with ``PROMO`` for ~20% of parts (5 type families).

Generation is deterministic per (n_rows, seed).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ...errors import WorkloadError
from .schema import MAX_DATE_INDEX

#: Fraction of parts whose type starts with PROMO (1 of 5 families).
PROMO_FRACTION = 0.2
#: lineitem rows per part row (SF-independent TPC-H ratio is ~30:1
#: including order fan-out; we keep the part table proportionally small).
LINEITEM_PER_PART = 30


def generate_lineitem(n_rows: int, seed: int = 23) -> Dict[str, np.ndarray]:
    """Generate ``n_rows`` of the lineitem columns our queries touch."""
    if n_rows <= 0:
        raise WorkloadError(f"n_rows must be positive, got {n_rows}")
    rng = np.random.default_rng(seed)
    n_parts = max(1, n_rows // LINEITEM_PER_PART)
    return {
        "partkey": rng.integers(0, n_parts, size=n_rows, dtype=np.int64),
        "quantity": rng.integers(1, 51, size=n_rows).astype(np.float64),
        "extendedprice": np.round(rng.uniform(900.0, 105000.0, size=n_rows), 2),
        "discount": rng.integers(0, 11, size=n_rows).astype(np.float64) / 100.0,
        "tax": rng.integers(0, 9, size=n_rows).astype(np.float64) / 100.0,
        "returnflag": rng.integers(0, 3, size=n_rows, dtype=np.int8),
        "linestatus": rng.integers(0, 2, size=n_rows, dtype=np.int8),
        "shipdate": rng.integers(0, MAX_DATE_INDEX + 1, size=n_rows, dtype=np.int32),
    }


def generate_part(n_rows: int, seed: int = 29) -> Dict[str, np.ndarray]:
    """Generate ``n_rows`` of the part columns Q14 touches."""
    if n_rows <= 0:
        raise WorkloadError(f"n_rows must be positive, got {n_rows}")
    rng = np.random.default_rng(seed)
    return {
        "p_partkey": np.arange(n_rows, dtype=np.int64),
        "p_is_promo": (rng.random(n_rows) < PROMO_FRACTION),
    }
