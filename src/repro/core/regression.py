"""Regression utilities used by the paper's growth analysis.

Sec. 4/5 characterize growth curves with polynomial regression ("the
growth of Uc(T) is quadratic, with a coefficient of determination
R² = 0.92") and report *relative increase* curves normalized to the value
at the smallest network size.  This module provides exactly those tools.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.errors import ParameterError


@dataclasses.dataclass(frozen=True)
class PolynomialFit:
    """A least-squares polynomial fit with its goodness of fit."""

    degree: int
    #: coefficients, highest power first (numpy convention)
    coefficients: List[float]
    r_squared: float

    def predict(self, x: float) -> float:
        """Evaluate the fitted polynomial at ``x``."""
        import numpy as np

        return float(np.polyval(self.coefficients, x))


def fit_polynomial(
    x: Sequence[float], y: Sequence[float], degree: int
) -> PolynomialFit:
    """Least-squares polynomial fit of the given degree with R²."""
    if len(x) != len(y):
        raise ParameterError(f"x and y lengths differ ({len(x)} vs {len(y)})")
    if len(x) < degree + 1:
        raise ParameterError(
            f"need at least {degree + 1} points for a degree-{degree} fit, got {len(x)}"
        )
    import numpy as np

    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    coefficients = np.polyfit(x_arr, y_arr, degree)
    predictions = np.polyval(coefficients, x_arr)
    residual = float(np.sum((y_arr - predictions) ** 2))
    total = float(np.sum((y_arr - np.mean(y_arr)) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return PolynomialFit(
        degree=degree,
        coefficients=[float(c) for c in coefficients],
        r_squared=r_squared,
    )


def fit_linear(x: Sequence[float], y: Sequence[float]) -> PolynomialFit:
    """Linear fit (the paper's Up(T) model, R² ≈ 0.95)."""
    return fit_polynomial(x, y, 1)


def fit_quadratic(x: Sequence[float], y: Sequence[float]) -> PolynomialFit:
    """Quadratic fit (the paper's Uc(T) model, R² ≈ 0.92)."""
    return fit_polynomial(x, y, 2)


def relative_increase(values: Sequence[float]) -> List[float]:
    """Normalize a series so its first element is 1 (paper's Fig. 6/8)."""
    if not values:
        return []
    base = values[0]
    if base == 0:
        raise ParameterError("cannot normalize a series starting at zero")
    return [value / base for value in values]


def growth_classification(
    x: Sequence[float], y: Sequence[float], *, superlinear_margin: float = 0.02
) -> str:
    """Classify a growth curve as constant / sublinear / linear / superlinear.

    Fits ``log y = a log x + b`` and buckets the exponent ``a``; series
    spanning less than 5 % total growth are classified constant.
    """
    if len(x) != len(y) or len(x) < 2:
        raise ParameterError("need two equal-length series with >= 2 points")
    if min(y) <= 0 or min(x) <= 0:
        raise ParameterError("log-log classification needs positive data")
    if max(y) / min(y) < 1.05:
        return "constant"
    import numpy as np

    log_fit = fit_linear([np.log(v) for v in x], [np.log(v) for v in y])
    exponent = log_fit.coefficients[0]
    if exponent < 1.0 - superlinear_margin:
        return "sublinear"
    if exponent <= 1.0 + superlinear_margin:
        return "linear"
    return "superlinear"


def log_log_exponent(x: Sequence[float], y: Sequence[float]) -> float:
    """The power-law exponent of ``y ~ x^a`` via log-log regression."""
    if min(y) <= 0 or min(x) <= 0:
        raise ParameterError("log-log exponent needs positive data")
    import numpy as np

    return fit_linear([np.log(v) for v in x], [np.log(v) for v in y]).coefficients[0]
