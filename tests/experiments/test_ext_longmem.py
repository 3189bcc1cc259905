"""Tests for the ext-longmem churn long-memory experiment."""

import pytest

from repro.bgp.config import BGPConfig
from repro.experiments import cache
from repro.experiments.ext_longmem import run as run_longmem
from repro.experiments.registry import experiment_ids, get_experiment
from repro.experiments.scale import Scale

TINY = Scale(name="tiny-ext", sizes=(120, 240), origins=3, metric_sources=10)
FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


@pytest.fixture(autouse=True)
def _clear_cache():
    cache.clear_cache()
    yield
    cache.clear_cache()


class TestExtLongmem:
    def test_registered_as_extension(self):
        assert "ext-longmem" in experiment_ids(include_extensions=True)
        assert "ext-longmem" not in experiment_ids(include_extensions=False)
        assert get_experiment("ext-longmem").experiment_id == "ext-longmem"

    def test_checks_hold_at_tiny_scale(self):
        result = run_longmem(TINY, seed=0, config=FAST)
        assert result.passed, result.to_text()
        assert result.x_values == [1.0, 2.0, 3.0]
        hursts = result.series["hurst (dfa1)"]
        assert len(hursts) == 3
        # poisson, storms, reference in that order; reference is the
        # known-H=0.75 series and must land in the measured band.
        assert 0.6 <= hursts[2] <= 0.9

    def test_confidence_interval_brackets_estimate(self):
        result = run_longmem(TINY, seed=0, config=FAST)
        lows = result.series["ci low"]
        highs = result.series["ci high"]
        assert all(lo <= hi for lo, hi in zip(lows, highs))

    def test_deterministic_across_runs(self):
        a = run_longmem(TINY, seed=0, config=FAST)
        b = run_longmem(TINY, seed=0, config=FAST)
        assert a.series == b.series
