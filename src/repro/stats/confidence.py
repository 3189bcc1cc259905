"""Confidence intervals for experiment reporting.

The paper reports 95 % confidence intervals on the per-type update
averages ("We have calculated 95% confidence intervals ... and they are
too narrow to be shown in the graph").  We provide the standard
t-distribution interval on the mean plus a distribution-free bootstrap
for heavy-tailed per-node data.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Sequence

from repro.errors import ParameterError


@dataclasses.dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a point estimate."""

    mean: float
    low: float
    high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def mean_confidence_interval(
    values: Sequence[float], *, confidence: float = 0.95
) -> ConfidenceInterval:
    """t-distribution CI on the mean of ``values``."""
    if not 0 < confidence < 1:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    if n < 2:
        raise ParameterError(f"need >= 2 values for a CI, got {n}")
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std_error = math.sqrt(variance / n)
    from scipy.stats import t as student_t

    t_crit = float(student_t.ppf(0.5 + confidence / 2.0, df=n - 1))
    half = t_crit * std_error
    return ConfidenceInterval(
        mean=mean, low=mean - half, high=mean + half, confidence=confidence
    )


def bootstrap_confidence_interval(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap CI on the mean (robust to heavy tails)."""
    if not 0 < confidence < 1:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    if n < 2:
        raise ParameterError(f"need >= 2 values for a CI, got {n}")
    rng = random.Random(seed)
    means = []
    for _ in range(resamples):
        total = 0.0
        for _ in range(n):
            total += values[rng.randrange(n)]
        means.append(total / n)
    means.sort()
    lower_index = int((1.0 - confidence) / 2.0 * resamples)
    upper_index = min(resamples - 1, resamples - 1 - lower_index)
    return ConfidenceInterval(
        mean=sum(values) / n,
        low=means[lower_index],
        high=means[upper_index],
        confidence=confidence,
    )
