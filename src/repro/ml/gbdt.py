"""Gradient-boosted decision trees, from scratch.

A histogram-based GBDT in the LightGBM style: features are quantised
into a fixed number of bins, split gains are computed from per-bin
gradient histograms, and trees grow depth-wise to a height limit.
Squared-error loss (regression) is what the evaluation workload uses:
the LightGBM application in the paper is batch *inference* over a large
stored feature table, so training happens once at model-build time and
the hot path is :meth:`GBDTModel.predict`.  Each tree is compiled once
into a :class:`DecisionTable`, so a prediction is one comparison per
node and a fixed number of index steps per row, not a recursive walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import WorkloadError


@dataclass
class TreeNode:
    """One node of a regression tree (leaf iff ``feature`` is None)."""

    feature: Optional[int] = None
    threshold_bin: int = 0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        left_depth = self.left.depth() if self.left else 0
        right_depth = self.right.depth() if self.right else 0
        return 1 + max(left_depth, right_depth)

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        count = 1
        if self.left:
            count += self.left.node_count()
        if self.right:
            count += self.right.node_count()
        return count


def quantise_features(features: np.ndarray, n_bins: int = 64) -> tuple:
    """Bin features into uint8 codes; returns (codes, bin_edges).

    Edges come from per-feature quantiles so skewed features still
    spread across bins.  This is also the workload's "feature
    quantisation" offload step: 8 bytes per value in, 1 byte out.
    """
    if features.ndim != 2:
        raise WorkloadError(f"features must be 2-D, got shape {features.shape}")
    if not 2 <= n_bins <= 256:
        raise WorkloadError(f"n_bins must lie in [2, 256], got {n_bins}")
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.quantile(features, quantiles, axis=0)  # (n_bins-1, d)
    return _bin_codes(features, _edge_table(edges), edges.shape[0]), edges


def _edge_table(bin_edges: np.ndarray) -> np.ndarray:
    """Each feature's sorted edges as a row, +inf-padded to a power of two.

    The padded width is the smallest power of two above the edge
    count, so a row always ends in +inf and a lower bound over it
    never runs off the end.
    """
    n_edges, d = bin_edges.shape
    table = np.full((d, 1 << n_edges.bit_length()), np.inf)
    table[:, :n_edges] = bin_edges.T
    return table


def _bin_codes(features: np.ndarray, table: np.ndarray, n_edges: int) -> np.ndarray:
    """Per feature, ``np.searchsorted(edges, x)`` as uint8 codes.

    A branchless lower bound: each halving step adds ``step`` where the
    probed edge is below the key, so every key costs the same number of
    compares and no branch mispredicts, unlike a binary search per key.
    Summing the steps counts the edges strictly below the key — the
    ``side="left"`` insertion point of sorted, NaN-free edges.  No edge
    is below a NaN key, so NaN is mapped to ``n_edges`` afterwards,
    where ``searchsorted`` sorts it.
    """
    codes = np.empty(features.shape, dtype=np.uint8)
    for j, edges in enumerate(table):
        keys = np.ascontiguousarray(features[:, j])
        lo = np.zeros(keys.shape[0], dtype=np.intp)
        step = table.shape[1] // 2
        while step:
            lo += (edges.take(lo + (step - 1)) < keys) * step
            step //= 2
        lo[np.isnan(keys)] = n_edges
        codes[:, j] = lo
    return codes


def _best_split(
    codes: np.ndarray,
    gradients: np.ndarray,
    row_mask: np.ndarray,
    n_bins: int,
    min_samples: int,
    lam: float,
) -> Optional[tuple]:
    """Best (feature, bin, gain) over histogram splits, or None."""
    rows = np.flatnonzero(row_mask)
    if rows.size < 2 * min_samples:
        return None
    g = gradients[rows]
    total_g = g.sum()
    total_n = rows.size
    parent_score = total_g * total_g / (total_n + lam)
    best = None
    for feature in range(codes.shape[1]):
        col = codes[rows, feature]
        hist_g = np.bincount(col, weights=g, minlength=n_bins)
        hist_n = np.bincount(col, minlength=n_bins)
        left_g = np.cumsum(hist_g)[:-1]
        left_n = np.cumsum(hist_n)[:-1]
        right_g = total_g - left_g
        right_n = total_n - left_n
        valid = (left_n >= min_samples) & (right_n >= min_samples)
        if not np.any(valid):
            continue
        gains = np.where(
            valid,
            left_g**2 / (left_n + lam) + right_g**2 / (right_n + lam) - parent_score,
            -np.inf,
        )
        bin_idx = int(np.argmax(gains))
        gain = float(gains[bin_idx])
        if gain > 0 and (best is None or gain > best[2]):
            best = (feature, bin_idx, gain)
    return best


def _grow_tree(
    codes: np.ndarray,
    gradients: np.ndarray,
    row_mask: np.ndarray,
    depth_left: int,
    n_bins: int,
    min_samples: int,
    lam: float,
    learning_rate: float,
) -> TreeNode:
    rows = np.flatnonzero(row_mask)
    leaf_value = float(gradients[rows].sum() / (rows.size + lam)) * learning_rate
    if depth_left == 0:
        return TreeNode(value=leaf_value)
    split = _best_split(codes, gradients, row_mask, n_bins, min_samples, lam)
    if split is None:
        return TreeNode(value=leaf_value)
    feature, threshold_bin, _ = split
    goes_left = row_mask & (codes[:, feature] <= threshold_bin)
    goes_right = row_mask & ~ (codes[:, feature] <= threshold_bin)
    return TreeNode(
        feature=feature,
        threshold_bin=threshold_bin,
        left=_grow_tree(
            codes, gradients, goes_left, depth_left - 1,
            n_bins, min_samples, lam, learning_rate,
        ),
        right=_grow_tree(
            codes, gradients, goes_right, depth_left - 1,
            n_bins, min_samples, lam, learning_rate,
        ),
    )


@dataclass(frozen=True)
class DecisionTable:
    """One tree compiled into a complete heap-layout table.

    Slot ``i`` has children ``2i+1`` (left, ``code <= threshold``) and
    ``2i+2`` (right).  A leaf above the bottom level becomes a run of
    pass-through slots that always go left, and its value is copied
    into every bottom-level leaf below it, so every row walks exactly
    ``depth`` levels.
    """

    depth: int
    #: ``(feature, threshold_bin)`` per internal slot; None passes through.
    splits: Tuple[Optional[Tuple[int, int]], ...]
    #: The ``2**depth`` bottom-level leaf values, left to right.
    leaf_values: np.ndarray

    @classmethod
    def compile(cls, root: TreeNode) -> "DecisionTable":
        """Lay ``root`` out as a table; an internal node needs both children."""
        depth = root.depth()
        splits: List[Optional[Tuple[int, int]]] = [None] * ((1 << depth) - 1)
        leaf_values = np.empty(1 << depth)

        def place(node: TreeNode, slot: int, level: int) -> None:
            if node.is_leaf:
                span = 1 << (depth - level)
                first = (slot - (1 << level) + 1) * span
                leaf_values[first:first + span] = node.value
                return
            if node.left is None or node.right is None:
                raise WorkloadError(
                    f"internal tree node (feature {node.feature}) at depth "
                    f"{level} is missing a child"
                )
            splits[slot] = (int(node.feature), int(node.threshold_bin))
            place(node.left, 2 * slot + 1, level + 1)
            place(node.right, 2 * slot + 2, level + 1)

        place(root, 0, 0)
        return cls(depth=depth, splits=tuple(splits), leaf_values=leaf_values)

    def add_to(self, codes_t: np.ndarray, out: np.ndarray) -> None:
        """``out += `` this tree's prediction for the feature-major codes."""
        n = out.shape[0]
        # One row of go-right decisions per slot; freed on return.
        decisions = np.zeros((len(self.splits), n), dtype=bool)
        for slot, split in enumerate(self.splits):
            if split is not None:
                feature, threshold = split
                np.greater(codes_t[feature], threshold, out=decisions[slot])
        flat = decisions.reshape(-1)
        rows = np.arange(n)
        index = np.zeros(n, dtype=np.intp)
        for _ in range(self.depth):
            index = 2 * index + 1 + flat.take(index * n + rows)
        out += self.leaf_values.take(index - len(self.splits))


@dataclass
class GBDTModel:
    """A trained boosted ensemble over quantised features."""

    trees: List[TreeNode]
    bin_edges: np.ndarray
    base_score: float
    n_bins: int
    tables: List[DecisionTable] = field(init=False, repr=False, compare=False)
    #: ``bin_edges`` per feature, laid out for :func:`_bin_codes`.
    edge_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.tables = [DecisionTable.compile(tree) for tree in self.trees]
        self.edge_table = _edge_table(self.bin_edges)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def quantise(self, features: np.ndarray) -> np.ndarray:
        """Bin raw features with the training-time edges."""
        if features.ndim != 2 or features.shape[1] != self.bin_edges.shape[1]:
            raise WorkloadError(
                f"features must be (rows, {self.bin_edges.shape[1]}), "
                f"got shape {features.shape}"
            )
        return _bin_codes(features, self.edge_table, self.bin_edges.shape[0])

    def predict_codes(self, codes: np.ndarray) -> np.ndarray:
        """Predict from already-binned rows (the CSD-friendly hot path)."""
        out = np.full(codes.shape[0], self.base_score)
        codes_t = np.ascontiguousarray(codes.T)
        for table in self.tables:
            table.add_to(codes_t, out)
        return out

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Quantise then predict — the end-to-end inference path."""
        return self.predict_codes(self.quantise(features))


class GBDTRegressor:
    """Trainer: squared-error gradient boosting on histogram splits."""

    def __init__(
        self,
        n_trees: int = 20,
        max_depth: int = 4,
        learning_rate: float = 0.3,
        n_bins: int = 64,
        min_samples_leaf: int = 8,
        reg_lambda: float = 1.0,
    ) -> None:
        if n_trees < 1:
            raise WorkloadError(f"n_trees must be >= 1, got {n_trees}")
        if max_depth < 1:
            raise WorkloadError(f"max_depth must be >= 1, got {max_depth}")
        if not 0 < learning_rate <= 1:
            raise WorkloadError(f"learning_rate must lie in (0, 1], got {learning_rate}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.n_bins = n_bins
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda

    def fit(self, features: np.ndarray, targets: np.ndarray) -> GBDTModel:
        """Train an ensemble; returns the immutable model."""
        if features.shape[0] != targets.shape[0]:
            raise WorkloadError(
                f"{features.shape[0]} rows but {targets.shape[0]} targets"
            )
        if features.shape[0] < 2 * self.min_samples_leaf:
            raise WorkloadError("not enough rows to grow any split")
        codes, edges = quantise_features(features, self.n_bins)
        base_score = float(np.mean(targets))
        predictions = np.full(features.shape[0], base_score)
        trees: List[TreeNode] = []
        all_rows = np.ones(features.shape[0], dtype=bool)
        codes_t = np.ascontiguousarray(codes.T)
        for _ in range(self.n_trees):
            residuals = targets - predictions
            tree = _grow_tree(
                codes,
                residuals,
                all_rows,
                depth_left=self.max_depth,
                n_bins=self.n_bins,
                min_samples=self.min_samples_leaf,
                lam=self.reg_lambda,
                learning_rate=self.learning_rate,
            )
            trees.append(tree)
            DecisionTable.compile(tree).add_to(codes_t, predictions)
        return GBDTModel(
            trees=trees, bin_edges=edges, base_score=base_score, n_bins=self.n_bins
        )
