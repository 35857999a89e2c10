"""Substrate enrichments: sort/top-n operators, feature importance."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.ml.gbdt import GBDTRegressor
from repro.workloads.tpch.engine import order_by, top_n


class TestOrderBy:
    def make_table(self):
        return {
            "k": np.array([3, 1, 2, 1]),
            "v": np.array([30.0, 10.0, 20.0, 11.0]),
        }

    def test_ascending(self):
        ordered = order_by(self.make_table(), keys=("k",))
        assert ordered["k"].tolist() == [1, 1, 2, 3]

    def test_stable_within_equal_keys(self):
        ordered = order_by(self.make_table(), keys=("k",))
        assert ordered["v"].tolist()[:2] == [10.0, 11.0]

    def test_descending(self):
        ordered = order_by(self.make_table(), keys=("k",), descending=True)
        assert ordered["k"].tolist() == [3, 2, 1, 1]

    def test_two_keys(self):
        table = {
            "a": np.array([1, 1, 0]),
            "b": np.array([2, 1, 9]),
        }
        ordered = order_by(table, keys=("a", "b"))
        assert ordered["b"].tolist() == [9, 1, 2]

    def test_needs_keys(self):
        with pytest.raises(WorkloadError):
            order_by(self.make_table(), keys=())


class TestTopN:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(5)
        table = {"x": rng.random(1000), "tag": np.arange(1000)}
        top = top_n(table, by="x", n=10)
        full = np.sort(table["x"])[::-1][:10]
        assert np.allclose(top["x"], full)

    def test_ascending_variant(self):
        table = {"x": np.array([5.0, 1.0, 3.0])}
        assert top_n(table, by="x", n=2, descending=False)["x"].tolist() == [1.0, 3.0]

    def test_n_larger_than_table(self):
        table = {"x": np.array([2.0, 1.0])}
        assert top_n(table, by="x", n=10)["x"].tolist() == [2.0, 1.0]

    def test_invalid_n(self):
        with pytest.raises(WorkloadError):
            top_n({"x": np.ones(3)}, by="x", n=0)


class TestFeatureImportance:
    def test_informative_features_dominate(self):
        rng = np.random.default_rng(9)
        features = rng.normal(size=(3000, 6))
        targets = 5.0 * features[:, 0] + 2.0 * features[:, 3]
        model = GBDTRegressor(n_trees=20, max_depth=3).fit(features, targets)
        importance = model.feature_importance()
        assert importance.sum() == pytest.approx(1.0)
        assert importance[0] > 0.3
        assert importance[0] + importance[3] > 0.8

    def test_stump_free_model_zero_importance(self):
        rng = np.random.default_rng(10)
        features = rng.normal(size=(100, 3))
        targets = np.zeros(100)  # nothing to learn -> leaves only
        model = GBDTRegressor(n_trees=3, max_depth=2).fit(features, targets)
        assert model.feature_importance().sum() in (0.0, pytest.approx(1.0))
