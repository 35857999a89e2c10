"""Mini TPC-H substrate: schema, data generation, relational engine.

The paper's TPC-H workloads (Q1, Q6, Q14) run over a synthetic
``lineitem`` (and, for Q14, ``part``) population generated to the TPC-H
specification's value distributions, so every predicate's selectivity —
and therefore every query's data-reduction ratio, the quantity that
drives ISP profit — matches the real benchmark.
"""

from .datagen import generate_lineitem, generate_part
from .engine import filter_rows, group_aggregate, hash_join
from .queries import q1_reference, q6_reference
from .schema import LINEITEM_ROW_BYTES, PART_ROW_BYTES, date_index

__all__ = [
    "generate_lineitem",
    "generate_part",
    "filter_rows",
    "group_aggregate",
    "hash_join",
    "q1_reference",
    "q6_reference",
    "LINEITEM_ROW_BYTES",
    "PART_ROW_BYTES",
    "date_index",
]
