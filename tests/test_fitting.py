"""Complexity-curve fitting: the paper's five-law predictor."""

import math

import numpy as np
import pytest

from repro.errors import FittingError
from repro.runtime.fitting import (
    ComplexityCurve,
    FittedCurve,
    fit_curve,
)

NS = [1024.0, 2048.0, 4096.0, 8192.0]  # the paper's 2^-10..2^-7 shape


class TestGrowthTerms:
    def test_o1(self):
        assert ComplexityCurve.O1.growth(12345) == 1.0

    def test_nlogn_at_one(self):
        assert ComplexityCurve.NLOGN.growth(1.0) == 0.0

    def test_n3(self):
        assert ComplexityCurve.N3.growth(10) == 1000

    def test_negative_rejected(self):
        with pytest.raises(FittingError):
            ComplexityCurve.N.growth(-1)


class TestExactRecovery:
    """Each generating law must be recovered and extrapolated exactly."""

    @pytest.mark.parametrize("curve,fn", [
        (ComplexityCurve.O1, lambda n: 42.0),
        (ComplexityCurve.N, lambda n: 3.0 * n + 10),
        (ComplexityCurve.NLOGN, lambda n: 0.5 * n * math.log2(n)),
        (ComplexityCurve.N2, lambda n: 2e-3 * n * n),
        (ComplexityCurve.N3, lambda n: 1e-6 * n**3),
    ])
    def test_recovers_generating_law(self, curve, fn):
        fit = fit_curve(NS, [fn(n) for n in NS])
        assert fit.curve is curve
        full = 2**20
        assert fit.predict(full) == pytest.approx(fn(full), rel=1e-6)


class TestSelectionBehaviour:
    def test_prefers_simplest_on_ties(self):
        # All-equal observations fit O(1) exactly; higher curves also
        # fit with slope 0, but the simplest law must win.
        fit = fit_curve(NS, [5.0, 5.0, 5.0, 5.0])
        assert fit.curve is ComplexityCurve.O1

    def test_all_zero_predicts_zero(self):
        fit = fit_curve(NS, [0.0, 0.0, 0.0, 0.0])
        assert fit.predict(1e9) == 0.0

    def test_never_predicts_negative(self):
        # A decreasing trend must not extrapolate below zero.
        fit = fit_curve(NS, [100.0, 90.0, 95.0, 85.0])
        assert fit.predict(1e9) >= 0.0

    def test_noisy_linear_still_linearish(self):
        rng = np.random.default_rng(3)
        ys = [2.0 * n * (1 + rng.normal(0, 0.01)) for n in NS]
        fit = fit_curve(NS, ys)
        assert fit.curve in (ComplexityCurve.N, ComplexityCurve.NLOGN)
        assert fit.predict(2**20) == pytest.approx(2.0 * 2**20, rel=0.1)


class TestValidation:
    def test_size_mismatch(self):
        with pytest.raises(FittingError):
            fit_curve([1, 2], [1.0])

    def test_too_few_points(self):
        with pytest.raises(FittingError):
            fit_curve([1024.0], [1.0])

    def test_identical_sizes(self):
        with pytest.raises(FittingError):
            fit_curve([100.0, 100.0], [1.0, 2.0])

    def test_negative_observation(self):
        with pytest.raises(FittingError):
            fit_curve(NS, [1.0, -1.0, 1.0, 1.0])

    def test_non_positive_size(self):
        with pytest.raises(FittingError):
            fit_curve([0.0, 1.0], [1.0, 2.0])


class TestFittedCurve:
    def test_predict_clamps_at_zero(self):
        fit = FittedCurve(ComplexityCurve.N, coefficient=1.0, intercept=-1e9,
                          relative_residual=0.0)
        assert fit.predict(10) == 0.0
