"""Complexity-curve fitting and extrapolation.

The paper's predictor (§III-A): with four sample runs at exponentially
growing scaling factors, fit each per-line metric against five curves —
O(1), O(n), O(n log n), O(n^2), O(n^3) — pick the closest, and
extrapolate to the raw input size.

Each candidate is an affine model ``y = a * g(n) + b`` with ``g`` the
curve's growth term, solved by least squares; the winner minimises the
relative residual so small-magnitude metrics are not drowned out.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import FittingError


class ComplexityCurve(enum.Enum):
    """The five growth laws ActivePy chooses between."""

    O1 = "O(1)"
    N = "O(n)"
    NLOGN = "O(n log n)"
    N2 = "O(n^2)"
    N3 = "O(n^3)"

    def growth(self, n: float) -> float:
        """Evaluate the curve's growth term at ``n``."""
        if n < 0:
            raise FittingError(f"growth term undefined for negative n={n}")
        if self is ComplexityCurve.O1:
            return 1.0
        if self is ComplexityCurve.N:
            return n
        if self is ComplexityCurve.NLOGN:
            return n * math.log2(n) if n > 1 else 0.0
        if self is ComplexityCurve.N2:
            return n * n
        return n * n * n


@dataclass(frozen=True)
class FittedCurve:
    """A chosen curve with its fitted coefficients and fit quality."""

    curve: ComplexityCurve
    coefficient: float
    intercept: float
    relative_residual: float

    def predict(self, n: float) -> float:
        """Extrapolate the metric to scale ``n`` (clamped at zero)."""
        value = self.coefficient * self.curve.growth(n) + self.intercept
        return max(0.0, value)


#: Preference order when residuals tie: simplest law wins.
_CANDIDATE_ORDER = (
    ComplexityCurve.O1,
    ComplexityCurve.N,
    ComplexityCurve.NLOGN,
    ComplexityCurve.N2,
    ComplexityCurve.N3,
)

#: Residuals within this factor of the best are considered ties.
_TIE_TOLERANCE = 1.02


def fit_curve(ns: Sequence[float], ys: Sequence[float]) -> FittedCurve:
    """Fit observations ``(ns, ys)`` and select the best growth law.

    Requires at least two distinct sample sizes (the paper uses four).
    All-zero observations fit O(1) at zero exactly.
    """
    if len(ns) != len(ys):
        raise FittingError(f"size mismatch: {len(ns)} ns vs {len(ys)} ys")
    if len(ns) < 2:
        raise FittingError("need at least two observations to fit a curve")
    if len(set(ns)) < 2:
        raise FittingError("sample sizes must not all be identical")
    ns_arr = np.asarray(ns, dtype=float)
    ys_arr = np.asarray(ys, dtype=float)
    if np.any(ns_arr <= 0):
        raise FittingError("sample sizes must be positive")
    if np.any(ys_arr < 0):
        raise FittingError("observations must be non-negative")

    if np.all(ys_arr == 0):
        return FittedCurve(ComplexityCurve.O1, 0.0, 0.0, 0.0)

    # Mean of subnormal observations can underflow to zero even though
    # the values are not all zero; fall back so the residual stays finite.
    scale = float(np.mean(ys_arr)) or float(np.max(ys_arr)) or 1.0
    best: FittedCurve | None = None
    for curve in _CANDIDATE_ORDER:
        g = np.array([curve.growth(n) for n in ns_arr])
        design = np.column_stack([g, np.ones_like(g)])
        (a, b), *_ = np.linalg.lstsq(design, ys_arr, rcond=None)
        # A negative slope extrapolates to nonsense at full scale;
        # refit as pure intercept for this candidate.
        if a < 0:
            a = 0.0
            b = float(np.mean(ys_arr))
        predicted = a * g + b
        residual = float(np.sqrt(np.mean((predicted - ys_arr) ** 2))) / scale
        if residual < 1e-12:
            # Quantise numerically perfect fits so the simplest law
            # wins ties instead of float noise picking the winner.
            residual = 0.0
        candidate = FittedCurve(curve, float(a), float(b), residual)
        if best is None or residual < best.relative_residual / _TIE_TOLERANCE:
            best = candidate
    assert best is not None
    return best

