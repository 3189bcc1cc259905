"""Discrete power-law fitting (Clauset–Shalizi–Newman).

Sec. 3 claims the generated degree distributions follow a *truncated
power law*.  The topology metrics module carries the quick MLE exponent;
this module provides the full CSN machinery for when the claim needs
real scrutiny:

* :func:`fit_power_law` — MLE exponent for a given tail start ``d_min``
  plus the Kolmogorov–Smirnov distance between the empirical tail and
  the fitted model (Hurwitz-zeta normalized, properly discrete);
* :func:`best_minimum` — scan ``d_min`` candidates and keep the one
  minimizing the KS distance (the CSN selection rule).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

from repro.errors import ParameterError


@dataclasses.dataclass(frozen=True)
class PowerLawFit:
    """A fitted discrete power law for a sample's tail."""

    alpha: float
    d_min: int
    #: number of sample points in the tail (>= d_min)
    tail_size: int
    #: KS distance between empirical and fitted tail CDFs
    ks_distance: float

    @property
    def plausible(self) -> bool:
        """Rule-of-thumb acceptance: a reasonably close tail fit.

        The full CSN test bootstraps a p-value; for the test-suite's
        purposes a KS distance under ~0.15 on a few hundred points is
        already far better than any non-heavy-tailed alternative.
        """
        return self.ks_distance < 0.15


def _mle_alpha(tail: Sequence[int], d_min: int) -> float:
    log_sum = sum(math.log(x / (d_min - 0.5)) for x in tail)
    return 1.0 + len(tail) / log_sum


def fit_power_law(values: Sequence[int], *, d_min: int = 2) -> PowerLawFit:
    """Fit the tail ``>= d_min`` of an integer sample."""
    if d_min < 1:
        raise ParameterError(f"d_min must be >= 1, got {d_min}")
    tail = sorted(v for v in values if v >= d_min)
    if len(tail) < 10:
        raise ParameterError(
            f"need at least 10 tail points for a fit, got {len(tail)}"
        )
    if tail[0] == tail[-1]:
        raise ParameterError("degenerate tail: all values equal")
    alpha = _mle_alpha(tail, d_min)

    # Model tail CDF: P(X <= k | X >= d_min) via Hurwitz zeta sums.
    from scipy.special import zeta as hurwitz_zeta

    normalizer = float(hurwitz_zeta(alpha, d_min))
    max_value = tail[-1]
    cdf: List[float] = []
    cumulative = 0.0
    for k in range(d_min, max_value + 1):
        cumulative += k**-alpha / normalizer
        cdf.append(cumulative)

    n = len(tail)
    ks = 0.0
    seen = 0
    for k in range(d_min, max_value + 1):
        while seen < n and tail[seen] == k:
            seen += 1
        empirical = seen / n
        ks = max(ks, abs(empirical - cdf[k - d_min]))
    return PowerLawFit(alpha=alpha, d_min=d_min, tail_size=n, ks_distance=ks)


def best_minimum(
    values: Sequence[int], *, candidates: Sequence[int] = (1, 2, 3, 4, 5)
) -> PowerLawFit:
    """The CSN rule: pick the ``d_min`` with the smallest KS distance."""
    best: PowerLawFit | None = None
    last_error: ParameterError | None = None
    for d_min in candidates:
        try:
            fit = fit_power_law(values, d_min=d_min)
        except ParameterError as exc:
            last_error = exc
            continue
        if best is None or fit.ks_distance < best.ks_distance:
            best = fit
    if best is None:
        raise last_error if last_error is not None else ParameterError(
            "no candidate d_min produced a fit"
        )
    return best
