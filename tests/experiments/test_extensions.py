"""Focused tests for the extension experiments (beyond the generic smoke)."""

import pytest

from repro.bgp.config import BGPConfig
from repro.core.cevent import run_c_event_experiment
from repro.experiments import cache
from repro.experiments.ext_damping import run as run_damping
from repro.experiments.ext_evolution import run as run_evolution
from repro.experiments.ext_mrai import run as run_mrai
from repro.experiments.ext_prefix_scaling import run as run_prefix_scaling
from repro.experiments.scale import Scale
from repro.topology.evolve import evolve_topology
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType

TINY = Scale(name="tiny-ext", sizes=(120, 240), origins=3, metric_sources=10)
FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


@pytest.fixture(autouse=True)
def _clear_cache():
    cache.clear_cache()
    yield
    cache.clear_cache()


class TestExtDamping:
    def test_storm_suppression_holds_at_tiny_scale(self):
        result = run_damping(TINY, seed=1, config=FAST)
        assert result.passed, result.to_text()
        off = result.series["updates damping off"]
        on = result.series["updates damping on"]
        assert all(o < u for o, u in zip(on, off))


class TestExtMrai:
    def test_series_cover_the_grid(self):
        result = run_mrai(TINY, seed=1, config=FAST)
        assert result.x_values == [0.0, 5.0, 15.0, 30.0]
        assert len(result.series["U(T) no-wrate"]) == 4

    def test_mrai_zero_converges_fast(self):
        result = run_mrai(TINY, seed=1, config=FAST)
        assert result.series["up conv no-wrate (s)"][0] < 1.0


class TestExtPrefixScaling:
    def test_shape_checks_hold_at_tiny_scale(self):
        result = run_prefix_scaling(TINY, seed=1, config=FAST)
        assert result.passed, result.to_text()
        tables = result.series["mean table size"]
        assert tables == sorted(tables)  # Loc-RIBs track the allocation
        assert result.series["decisions skipped (frac)"][-1] > 0.9

    def test_both_mrai_granularities_are_swept(self):
        result = run_prefix_scaling(TINY, seed=1, config=FAST)
        per_interface = result.series["churn per-interface (upd/s)"]
        per_prefix = result.series["churn per-prefix (upd/s)"]
        assert len(per_interface) == len(per_prefix) == len(result.x_values)
        assert all(value >= 0 for value in per_interface + per_prefix)


class TestExtEvolution:
    def test_narrow_span_uses_sustained_check(self):
        result = run_evolution(TINY, seed=1, config=FAST)
        names = [c.name for c in result.checks]
        assert "tier-1 churn sustained on the evolving network" in names
        assert result.notes  # the scale caveat is documented

    def test_tier1_churn_grows_over_a_3x_trajectory(self):
        """At smoke scale (a 2x span) ext-evolution checks only that churn
        is sustained; grown 200 -> 600, one network's U(T) rises."""
        graph = generate_topology(baseline_params(200), seed=31)
        n_t = graph.type_counts()[NodeType.T]
        series = []
        for n in (200, 400, 600):
            if len(graph) < n:
                evolve_topology(graph, baseline_params(n, n_t=n_t), seed=n)
            stats = run_c_event_experiment(graph, FAST, num_origins=6, seed=31)
            series.append(stats.u(NodeType.T))
        assert series[-1] > series[0]

    def test_wide_span_uses_growth_check(self):
        wide = Scale(name="wide-ext", sizes=(100, 200, 400), origins=3)
        result = run_evolution(wide, seed=1, config=FAST)
        names = [c.name for c in result.checks]
        assert "tier-1 churn grows on the evolving network" in names
