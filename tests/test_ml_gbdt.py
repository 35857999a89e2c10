"""From-scratch GBDT: quantisation, training, inference."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import WorkloadError
from repro.ml.gbdt import (
    DecisionTable,
    GBDTModel,
    GBDTRegressor,
    TreeNode,
    quantise_features,
)


def make_data(n=2000, seed=9):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 6))
    targets = (
        3.0 * features[:, 0]
        + 2.0 * (features[:, 1] > 0)
        - features[:, 2] ** 2 / 4
    )
    return features, targets


class TestQuantisation:
    def test_codes_within_bins(self):
        features, _ = make_data()
        codes, edges = quantise_features(features, n_bins=32)
        assert codes.dtype == np.uint8
        assert codes.max() < 32
        assert edges.shape == (31, features.shape[1])

    def test_skewed_features_spread_over_bins(self):
        rng = np.random.default_rng(4)
        skewed = np.exp(rng.normal(size=(4000, 1)))
        codes, _ = quantise_features(skewed, n_bins=64)
        assert len(np.unique(codes)) > 48  # quantile edges, not linear

    def test_validation(self):
        with pytest.raises(WorkloadError):
            quantise_features(np.zeros(10), n_bins=8)
        with pytest.raises(WorkloadError):
            quantise_features(np.zeros((10, 2)), n_bins=1)


class TestTraining:
    def test_fit_reduces_error_over_base_score(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=30, max_depth=4).fit(features, targets)
        predictions = model.predict(features)
        base_mse = float(np.mean((targets - targets.mean()) ** 2))
        model_mse = float(np.mean((targets - predictions) ** 2))
        assert model_mse < 0.3 * base_mse

    def test_more_trees_fit_better(self):
        features, targets = make_data()
        small = GBDTRegressor(n_trees=3).fit(features, targets)
        large = GBDTRegressor(n_trees=30).fit(features, targets)
        small_mse = float(np.mean((targets - small.predict(features)) ** 2))
        large_mse = float(np.mean((targets - large.predict(features)) ** 2))
        assert large_mse < small_mse

    def test_depth_limit_respected(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=5, max_depth=3).fit(features, targets)
        assert all(tree.depth() <= 3 for tree in model.trees)

    def test_deterministic(self):
        features, targets = make_data()
        a = GBDTRegressor(n_trees=5).fit(features, targets)
        b = GBDTRegressor(n_trees=5).fit(features, targets)
        assert np.array_equal(a.predict(features), b.predict(features))

    def test_validation(self):
        features, targets = make_data(n=100)
        with pytest.raises(WorkloadError):
            GBDTRegressor(n_trees=0)
        with pytest.raises(WorkloadError):
            GBDTRegressor(max_depth=0)
        with pytest.raises(WorkloadError):
            GBDTRegressor(learning_rate=0.0)
        with pytest.raises(WorkloadError):
            GBDTRegressor().fit(features, targets[:50])


class TestInference:
    def test_predict_equals_quantise_then_predict_codes(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=10).fit(features, targets)
        codes = model.quantise(features)
        assert np.array_equal(model.predict(features), model.predict_codes(codes))

    def test_generalises_to_fresh_rows(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=30, max_depth=4).fit(features, targets)
        fresh_features, fresh_targets = make_data(seed=77)
        predictions = model.predict(fresh_features)
        base_mse = float(np.mean((fresh_targets - targets.mean()) ** 2))
        model_mse = float(np.mean((fresh_targets - predictions) ** 2))
        assert model_mse < 0.5 * base_mse

    def test_tree_accounting(self):
        features, targets = make_data()
        model = GBDTRegressor(n_trees=7).fit(features, targets)
        assert model.n_trees == 7
        assert all(tree.node_count() >= 1 for tree in model.trees)

    def test_served_model_predictions_pinned(self):
        # Training feeds every tree's predictions back as residuals, so
        # this digest pins both the fit-time and the serving-time walk.
        from repro.workloads.lightgbm import _feature_matrix, trained_model

        model = trained_model()
        codes = model.quantise(_feature_matrix(4096, seed=7).astype(np.float64))
        digest = hashlib.sha256(model.predict_codes(codes).tobytes()).hexdigest()
        assert digest == (
            "76c1ec9b1ad81d8fa7b27b39bb88375c7caa50f5e56f5dbc93507cf1d4a075a7"
        )


N_FEATURES = 5


@st.composite
def random_trees(draw, depth_left):
    """A tree of height <= ``depth_left`` whose leaves may come early."""
    if depth_left == 0 or draw(st.integers(0, 3)) == 0:
        return TreeNode(value=draw(st.floats(-1e6, 1e6)))
    return TreeNode(
        feature=draw(st.integers(0, N_FEATURES - 1)),
        threshold_bin=draw(st.one_of(st.sampled_from([0, 255]),
                                     st.integers(0, 255))),
        left=draw(random_trees(depth_left - 1)),
        right=draw(random_trees(depth_left - 1)),
    )


def walk_row(node, row):
    """Reference: follow one row from the root to its leaf."""
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold_bin else node.right
    return node.value


class TestDecisionTables:
    @settings(max_examples=150, deadline=None)
    @given(
        trees=st.integers(0, 6).flatmap(
            lambda depth: st.lists(random_trees(depth), min_size=1, max_size=4)
        ),
        codes=st.integers(0, 40).flatmap(
            lambda n: arrays(np.uint8, (n, N_FEATURES))
        ),
        base_score=st.floats(-10.0, 10.0),
    )
    def test_matches_per_row_walk(self, trees, codes, base_score):
        model = GBDTModel(trees=trees, bin_edges=np.zeros((1, N_FEATURES)),
                          base_score=base_score, n_bins=256)
        expected = np.empty(codes.shape[0])
        for i, row in enumerate(codes):
            total = base_score
            for tree in trees:
                total += walk_row(tree, row)
            expected[i] = total
        assert model.predict_codes(codes).tobytes() == expected.tobytes()

    def test_table_depth_is_tree_height(self):
        tree = TreeNode(feature=0, threshold_bin=3,
                        left=TreeNode(value=1.0),
                        right=TreeNode(feature=1, threshold_bin=7,
                                       left=TreeNode(value=2.0),
                                       right=TreeNode(value=3.0)))
        table = DecisionTable.compile(tree)
        assert table.depth == 2
        # The early left leaf fills both bottom leaves below it.
        assert table.leaf_values.tolist() == [1.0, 1.0, 2.0, 3.0]
        assert table.splits == ((0, 3), None, (1, 7))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_internal_node_missing_a_child_is_rejected(self, side):
        tree = TreeNode(feature=0, threshold_bin=3,
                        left=TreeNode(value=1.0), right=TreeNode(value=2.0))
        setattr(tree, side, None)
        with pytest.raises(WorkloadError, match="missing a child"):
            DecisionTable.compile(tree)
        with pytest.raises(WorkloadError, match="missing a child"):
            GBDTModel(trees=[tree], bin_edges=np.zeros((1, 1)),
                      base_score=0.0, n_bins=8)
