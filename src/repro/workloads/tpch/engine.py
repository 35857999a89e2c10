"""Mini relational operators over column dictionaries.

A table is a dict of equal-length NumPy columns.  These operators are
the substrate under the TPC-H workload kernels and the reference query
implementations: vectorised selection, sort-based group aggregation,
and a build/probe hash join.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from ...errors import WorkloadError

Table = Dict[str, np.ndarray]


def _check_table(table: Table) -> int:
    if not table:
        raise WorkloadError("table has no columns")
    lengths = {len(column) for column in table.values()}
    if len(lengths) != 1:
        raise WorkloadError(f"ragged table: column lengths {sorted(lengths)}")
    return lengths.pop()


def filter_rows(table: Table, mask: np.ndarray) -> Table:
    """Select the rows where ``mask`` is true, across all columns."""
    n = _check_table(table)
    if mask.shape != (n,):
        raise WorkloadError(f"mask shape {mask.shape} does not match {n} rows")
    return {name: column[mask] for name, column in table.items()}


def group_aggregate(
    table: Table,
    keys: Iterable[str],
    aggregates: Dict[str, Tuple[str, Callable[[np.ndarray], np.ndarray]]],
) -> Table:
    """Group by ``keys`` and reduce columns per group.

    ``aggregates`` maps output column name to (input column, reducer),
    where the reducer consumes one group's values at a time.  Groups
    come out sorted by key, so results are deterministic.
    """
    n = _check_table(table)
    key_names = list(keys)
    if not key_names:
        raise WorkloadError("group_aggregate needs at least one key")
    key_columns = [table[name] for name in key_names]
    order = np.lexsort(key_columns[::-1])
    sorted_keys = [column[order] for column in key_columns]
    if n == 0:
        out: Table = {name: column[:0] for name, column in zip(key_names, key_columns)}
        for out_name, (in_name, _) in aggregates.items():
            out[out_name] = table[in_name][:0]
        return out
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for column in sorted_keys:
        boundary[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(boundary)
    out = {
        name: column[starts] for name, column in zip(key_names, sorted_keys)
    }
    ends = np.append(starts[1:], n)
    # Q1-style aggregate lists reduce the same input column several
    # times (sum + mean); gather each distinct column once.
    gathered: Dict[str, np.ndarray] = {}
    for out_name, (in_name, reducer) in aggregates.items():
        values = gathered.get(in_name)
        if values is None:
            values = table[in_name][order]
            gathered[in_name] = values
        out[out_name] = np.array(
            [reducer(values[s:e]) for s, e in zip(starts, ends)]
        )
    return out


def hash_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    right_columns: Iterable[str],
) -> Table:
    """Inner-join ``left`` to unique-keyed ``right``; append columns.

    The right side must have unique keys (a dimension table, e.g.
    ``part``); unmatched left rows are dropped.
    """
    _check_table(left)
    _check_table(right)
    right_keys = right[right_key]
    if np.unique(right_keys).size != right_keys.size:
        raise WorkloadError(f"right key {right_key!r} is not unique")
    order = np.argsort(right_keys)
    sorted_keys = right_keys[order]
    positions = np.searchsorted(sorted_keys, left[left_key])
    positions = np.clip(positions, 0, sorted_keys.size - 1)
    matched = sorted_keys[positions] == left[left_key]
    result = {name: column[matched] for name, column in left.items()}
    source_rows = order[positions[matched]]
    for name in right_columns:
        result[name] = right[name][source_rows]
    return result
