"""Machine-learning substrates for the evaluation workloads.

The paper's LightGBM workload serves predictions from a trained
gradient-boosted tree model, and KMeans clusters an out-of-core point
set.  Both algorithms are implemented here from scratch on NumPy — no
external ML dependency — so the workloads' kernels are real.
"""

from .gbdt import GBDTModel, GBDTRegressor, TreeNode, quantise_features
from .kmeans_core import (
    init_centroids,
    kmeans_assign,
    kmeans_update,
)

__all__ = [
    "GBDTModel",
    "GBDTRegressor",
    "TreeNode",
    "quantise_features",
    "init_centroids",
    "kmeans_assign",
    "kmeans_update",
]
