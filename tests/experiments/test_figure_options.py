"""Tests for figure-module options not covered by the parametrized smoke."""

import pytest

from repro.bgp.config import BGPConfig
from repro.experiments import cache
from repro.experiments import fig01, fig08, fig12
from repro.experiments.scale import Scale, get_scale

TINY = Scale(name="tiny-opt", sizes=(120, 240), origins=2, metric_sources=10)
FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


@pytest.fixture(autouse=True)
def _clear_cache():
    cache.clear_cache()
    yield
    cache.clear_cache()


class TestFig01Options:
    def test_custom_target_growth(self):
        result = fig01.run(TINY, seed=2, target_growth=4.0)
        growth_check = next(
            c for c in result.checks if c.name == "total growth over series"
        )
        assert "+400%" in growth_check.expected

    def test_smoke_scale_shortens_series(self):
        smoke = Scale(name="smoke", sizes=(200,), origins=1)
        result = fig01.run(smoke, seed=1)
        assert len(result.x_values) == 365 // 30


class TestFig08:
    def test_rich_middle_churns_more_than_no_middle_at_smoke(self):
        """A hierarchy rich in M nodes churns more at T than a flat one
        without them; fig08's checks compare RICH-MIDDLE only with
        BASELINE and flat growth only with Baseline growth."""
        result = fig08.run(get_scale("smoke"), seed=0)
        assert result.series["RICH-MIDDLE"][-1] > result.series["NO-MIDDLE"][-1]


class TestFig12Options:
    def test_without_dense_core(self):
        result = fig12.run(TINY, seed=2, config=FAST, include_dense_core=False)
        assert "ratio T DENSE-CORE" not in result.series
        assert all("denser core" not in c.name for c in result.checks)

    def test_with_dense_core_adds_series_and_check(self):
        result = fig12.run(TINY, seed=2, config=FAST, include_dense_core=True)
        assert "ratio T DENSE-CORE" in result.series
        assert any("denser core" in c.name for c in result.checks)

    def test_wrate_and_no_wrate_sweeps_cached_separately(self):
        fig12.run(TINY, seed=2, config=FAST, include_dense_core=False)
        # BASELINE x {wrate, no-wrate} -> 2 cache entries
        assert len(cache._CACHE) == 2
