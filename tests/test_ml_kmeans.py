"""KMeans substrate: assignment, update, convergence."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.ml.kmeans_core import (
    inertia,
    init_centroids,
    kmeans_assign,
    kmeans_fit,
    kmeans_update,
)


def blob_data(n_per_blob=200, seed=1):
    rng = np.random.default_rng(seed)
    centers = np.array([[-10.0, -10.0], [10.0, 10.0], [10.0, -10.0]])
    points = np.concatenate([
        center + rng.normal(0, 0.5, size=(n_per_blob, 2)) for center in centers
    ])
    return points, centers


class TestAssign:
    def test_assigns_to_nearest(self):
        points = np.array([[0.0, 0.0], [9.9, 9.9]])
        centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
        labels = kmeans_assign(points, centroids)
        assert labels.tolist() == [0, 1]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(100, 5))
        centroids = rng.normal(size=(7, 5))
        fast = kmeans_assign(points, centroids)
        brute = np.argmin(
            ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert np.array_equal(fast, brute)

    def test_dimension_mismatch(self):
        with pytest.raises(WorkloadError):
            kmeans_assign(np.zeros((4, 3)), np.zeros((2, 5)))


class TestUpdate:
    def test_centroids_are_cluster_means(self):
        points = np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 10.0]])
        labels = np.array([0, 0, 1])
        centroids, counts = kmeans_update(points, labels, k=2)
        assert centroids[0] == pytest.approx([1.0, 1.0])
        assert centroids[1] == pytest.approx([10.0, 10.0])
        assert counts.tolist() == [2, 1]

    def test_empty_cluster_reports_zero(self):
        points = np.array([[1.0, 1.0]])
        centroids, counts = kmeans_update(points, np.array([0]), k=3)
        assert counts.tolist() == [1, 0, 0]

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0], [0], [0, 1, 1]])
    def test_bad_labels_rejected(self, labels):
        # A label >= k, a negative label, and too few or too many labels.
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(WorkloadError):
            kmeans_update(points, np.array(labels), k=2)

    def test_points_must_be_2d(self):
        with pytest.raises(WorkloadError):
            kmeans_update(np.zeros(3), np.zeros(3, dtype=np.intp), k=1)


class TestFit:
    def test_recovers_separated_blobs(self):
        points, centers = blob_data()
        state = kmeans_fit(points, k=3, iterations=20)
        # Each true center must have a learned centroid within the blob
        # radius.
        for center in centers:
            distances = np.linalg.norm(state.centroids - center, axis=1)
            assert distances.min() < 1.0

    def test_inertia_decreases_with_iterations(self):
        points, _ = blob_data()
        one = kmeans_fit(points, k=3, iterations=1)
        many = kmeans_fit(points, k=3, iterations=20)
        assert inertia(points, many.centroids) <= inertia(points, one.centroids) + 1e-9

    def test_converges_and_stops_early(self):
        points, _ = blob_data()
        state = kmeans_fit(points, k=3, iterations=200)
        assert state.iteration < 200
        assert state.shift < 1e-9

    def test_validation(self):
        points, _ = blob_data()
        with pytest.raises(WorkloadError):
            kmeans_fit(points, k=3, iterations=0)
        with pytest.raises(WorkloadError):
            init_centroids(points, k=0)
        with pytest.raises(WorkloadError):
            init_centroids(np.zeros(5), k=1)
