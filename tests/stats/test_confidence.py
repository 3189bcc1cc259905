"""Tests for confidence intervals."""

import random

import pytest

from repro.errors import ParameterError
from repro.stats.confidence import (
    bootstrap_confidence_interval,
    mean_confidence_interval,
)


class TestTInterval:
    def test_contains_mean(self):
        ci = mean_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert ci.mean == pytest.approx(3.0)
        assert ci.low < 3.0 < ci.high
        assert ci.contains(3.0)
        assert not ci.contains(100.0)

    def test_narrows_with_samples(self):
        rng = random.Random(0)
        small = [rng.gauss(10, 2) for _ in range(10)]
        large = [rng.gauss(10, 2) for _ in range(1000)]
        assert (
            mean_confidence_interval(large).half_width
            < mean_confidence_interval(small).half_width
        )

    def test_widens_with_confidence(self):
        rng = random.Random(1)
        data = [rng.gauss(0, 1) for _ in range(50)]
        assert (
            mean_confidence_interval(data, confidence=0.99).half_width
            > mean_confidence_interval(data, confidence=0.90).half_width
        )

    def test_coverage_calibration(self):
        """~95% of intervals should contain the true mean."""
        rng = random.Random(7)
        hits = 0
        trials = 300
        for _ in range(trials):
            sample = [rng.gauss(5.0, 1.0) for _ in range(20)]
            if mean_confidence_interval(sample).contains(5.0):
                hits += 1
        assert 0.90 <= hits / trials <= 0.99

    def test_relative_half_width(self):
        ci = mean_confidence_interval([10.0, 10.0, 10.0, 10.1])
        assert ci.half_width / ci.mean < 0.05

    def test_needs_two_values(self):
        with pytest.raises(ParameterError):
            mean_confidence_interval([1.0])

    def test_invalid_confidence(self):
        with pytest.raises(ParameterError):
            mean_confidence_interval([1.0, 2.0], confidence=0.0)


class TestBootstrap:
    def test_reasonable_interval(self):
        rng = random.Random(2)
        data = [rng.gauss(7.0, 1.0) for _ in range(100)]
        sample_mean = sum(data) / len(data)
        ci = bootstrap_confidence_interval(data, seed=1)
        assert ci.low < sample_mean < ci.high
        assert ci.high - ci.low < 1.0

    def test_deterministic_for_seed(self):
        data = [1.0, 5.0, 2.0, 8.0, 3.0]
        a = bootstrap_confidence_interval(data, seed=3)
        b = bootstrap_confidence_interval(data, seed=3)
        assert (a.low, a.high) == (b.low, b.high)

    def test_needs_two_values(self):
        with pytest.raises(ParameterError):
            bootstrap_confidence_interval([1.0])
