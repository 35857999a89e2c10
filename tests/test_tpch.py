"""TPC-H substrate: datagen selectivities, engine operators, queries."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.tpch.datagen import (
    LINEITEM_PER_PART,
    generate_lineitem,
    generate_part,
)
from repro.workloads.tpch.engine import filter_rows, group_aggregate, hash_join
from repro.workloads.tpch.queries import q1_reference, q6_reference
from repro.workloads.tpch.schema import EPOCH, MAX_DATE_INDEX, date_index

from .oracles import q14_reference


class TestSchema:
    def test_epoch_is_day_zero(self):
        assert date_index(1992, 1, 1) == 0

    def test_range_end(self):
        assert date_index(1998, 12, 1) == MAX_DATE_INDEX

    def test_pre_epoch_rejected(self):
        with pytest.raises(WorkloadError):
            date_index(1991, 12, 31)


class TestDatagen:
    def test_deterministic(self):
        a = generate_lineitem(1000)
        b = generate_lineitem(1000)
        assert np.array_equal(a["shipdate"], b["shipdate"])

    def test_columns_aligned(self):
        table = generate_lineitem(500)
        assert all(column.shape == (500,) for column in table.values())

    def test_value_domains(self):
        table = generate_lineitem(5000)
        assert table["quantity"].min() >= 1 and table["quantity"].max() <= 50
        assert table["discount"].min() >= 0.0 and table["discount"].max() <= 0.10
        assert table["shipdate"].min() >= 0
        assert table["shipdate"].max() <= MAX_DATE_INDEX

    def test_q6_selectivity_matches_spec(self):
        # year x discount band x quantity cut ~ 1.8%.
        table = generate_lineitem(300_000)
        start, end = date_index(1994, 1, 1), date_index(1995, 1, 1)
        mask = (
            (table["shipdate"] >= start) & (table["shipdate"] < end)
            & (table["discount"] >= 0.05 - 1e-9)
            & (table["discount"] <= 0.07 + 1e-9)
            & (table["quantity"] < 24)
        )
        assert float(np.mean(mask)) == pytest.approx(0.0181, rel=0.15)

    def test_part_keys_unique(self):
        part = generate_part(1000)
        assert np.unique(part["p_partkey"]).size == 1000

    def test_promo_fraction(self):
        part = generate_part(50_000)
        assert np.mean(part["p_is_promo"]) == pytest.approx(0.2, abs=0.02)

    def test_partkeys_join_cleanly(self):
        lineitem = generate_lineitem(3000)
        n_parts = 3000 // LINEITEM_PER_PART
        assert lineitem["partkey"].max() < n_parts

    def test_validation(self):
        with pytest.raises(WorkloadError):
            generate_lineitem(0)
        with pytest.raises(WorkloadError):
            generate_part(0)


class TestEngine:
    def test_filter_rows(self):
        table = {"a": np.arange(5), "b": np.arange(5) * 10}
        kept = filter_rows(table, table["a"] % 2 == 0)
        assert kept["a"].tolist() == [0, 2, 4]
        assert kept["b"].tolist() == [0, 20, 40]

    def test_filter_checks_mask_shape(self):
        with pytest.raises(WorkloadError):
            filter_rows({"a": np.arange(5)}, np.ones(3, dtype=bool))

    def test_ragged_table_rejected(self):
        with pytest.raises(WorkloadError):
            filter_rows({"a": np.arange(5), "b": np.arange(3)}, np.ones(5, bool))

    def test_group_aggregate_matches_manual(self):
        table = {
            "key": np.array([1, 0, 1, 0, 1]),
            "val": np.array([10.0, 1.0, 20.0, 2.0, 30.0]),
        }
        grouped = group_aggregate(
            table, keys=("key",),
            aggregates={"total": ("val", np.sum), "mean": ("val", np.mean)},
        )
        assert grouped["key"].tolist() == [0, 1]
        assert grouped["total"].tolist() == [3.0, 60.0]
        assert grouped["mean"].tolist() == [1.5, 20.0]

    def test_group_aggregate_two_keys(self):
        table = {
            "k1": np.array([0, 0, 1, 1]),
            "k2": np.array([0, 1, 0, 1]),
            "val": np.ones(4),
        }
        grouped = group_aggregate(
            table, keys=("k1", "k2"),
            aggregates={"count": ("val", lambda v: np.float64(v.size))},
        )
        assert len(grouped["k1"]) == 4  # all four combinations present

    def test_group_aggregate_empty_table(self):
        table = {"key": np.array([], dtype=np.int64), "val": np.array([])}
        grouped = group_aggregate(
            table, keys=("key",), aggregates={"total": ("val", np.sum)},
        )
        assert grouped["key"].size == 0

    def test_group_requires_keys(self):
        with pytest.raises(WorkloadError):
            group_aggregate({"a": np.arange(3)}, keys=(), aggregates={})

    def test_hash_join_matches_manual(self):
        left = {"fk": np.array([2, 0, 9, 1])}
        right = {"pk": np.array([0, 1, 2]), "flag": np.array([True, False, True])}
        joined = hash_join(left, right, "fk", "pk", right_columns=("flag",))
        # fk 9 has no match and is dropped.
        assert joined["fk"].tolist() == [2, 0, 1]
        assert joined["flag"].tolist() == [True, True, False]

    def test_hash_join_requires_unique_right_keys(self):
        left = {"fk": np.array([0])}
        right = {"pk": np.array([0, 0]), "x": np.array([1, 2])}
        with pytest.raises(WorkloadError):
            hash_join(left, right, "fk", "pk", right_columns=("x",))


class TestQueries:
    def test_q1_group_structure(self):
        lineitem = generate_lineitem(60_000)
        result = q1_reference(lineitem)
        # 3 return flags x 2 statuses = 6 groups.
        assert len(result["returnflag"]) == 6
        total_rows = int(np.sum(result["count_order"]))
        cutoff = date_index(1998, 12, 1) - 90
        assert total_rows == int(np.sum(lineitem["shipdate"] <= cutoff))

    def test_q1_aggregates_consistent(self):
        lineitem = generate_lineitem(30_000)
        result = q1_reference(lineitem)
        for i in range(len(result["returnflag"])):
            assert result["sum_disc_price"][i] <= result["sum_base_price"][i]
            assert result["sum_charge"][i] >= result["sum_disc_price"][i]

    def test_q6_matches_brute_force(self):
        lineitem = generate_lineitem(50_000)
        start, end = date_index(1994, 1, 1), date_index(1995, 1, 1)
        mask = (
            (lineitem["shipdate"] >= start) & (lineitem["shipdate"] < end)
            & (lineitem["discount"] >= 0.05 - 1e-9)
            & (lineitem["discount"] <= 0.07 + 1e-9)
            & (lineitem["quantity"] < 24)
        )
        expected = float(np.sum(
            lineitem["extendedprice"][mask] * lineitem["discount"][mask]
        ))
        assert q6_reference(lineitem) == pytest.approx(expected)

    def test_q14_ratio_in_sensible_band(self):
        lineitem = generate_lineitem(200_000)
        part = generate_part(200_000 // LINEITEM_PER_PART)
        ratio = q14_reference(lineitem, part)
        # ~20% of parts are PROMO, revenue roughly proportional.
        assert 10.0 < ratio < 30.0

    def test_q14_zero_revenue_guarded(self):
        lineitem = generate_lineitem(10)
        # Push every shipdate outside the query month.
        lineitem["shipdate"][:] = 0
        part = generate_part(1)
        assert q14_reference(lineitem, part) == 0.0
