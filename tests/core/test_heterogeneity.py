"""Tests for churn-heterogeneity analysis."""

import pytest

from repro.bgp.config import BGPConfig
from repro.core.cevent import run_c_event_experiment
from repro.core.heterogeneity import (
    churn_heterogeneity,
    gini_coefficient,
    lorenz_curve,
    top_share,
)
from repro.errors import ParameterError
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType

FAST = BGPConfig(mrai=1.0, link_delay=0.001, processing_time_max=0.005)


class TestLorenz:
    def test_uniform_is_diagonal(self):
        points = lorenz_curve([5.0, 5.0, 5.0, 5.0])
        for x, y in points:
            assert y == pytest.approx(x)

    def test_endpoints(self):
        points = lorenz_curve([1.0, 2.0, 3.0])
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, pytest.approx(1.0))

    def test_curve_below_diagonal(self):
        points = lorenz_curve([1.0, 1.0, 10.0])
        assert all(y <= x + 1e-12 for x, y in points)

    def test_monotone(self):
        points = lorenz_curve([3.0, 1.0, 4.0, 1.0, 5.0])
        ys = [y for _, y in points]
        assert ys == sorted(ys)

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            lorenz_curve([])
        with pytest.raises(ParameterError):
            lorenz_curve([-1.0, 2.0])
        with pytest.raises(ParameterError):
            lorenz_curve([0.0, 0.0])


class TestGini:
    def test_perfect_equality(self):
        assert gini_coefficient([2.0] * 10) == pytest.approx(0.0, abs=1e-12)

    def test_total_concentration(self):
        values = [0.0] * 99 + [100.0]
        assert gini_coefficient(values) == pytest.approx(0.99, abs=0.01)

    def test_known_value(self):
        # for [1, 3]: G = (3-1)/(2*(3+1)) = 0.25
        assert gini_coefficient([1.0, 3.0]) == pytest.approx(0.25)

    def test_scale_invariant(self):
        values = [1.0, 2.0, 7.0, 4.0]
        assert gini_coefficient(values) == pytest.approx(
            gini_coefficient([10 * v for v in values])
        )


class TestTopShare:
    def test_uniform(self):
        assert top_share([1.0] * 10, 0.10) == pytest.approx(0.1)

    def test_concentrated(self):
        values = [0.1] * 9 + [100.0]
        assert top_share(values, 0.10) > 0.99

    def test_full_fraction(self):
        assert top_share([1.0, 2.0], 1.0) == pytest.approx(1.0)

    def test_invalid_fraction(self):
        with pytest.raises(ParameterError):
            top_share([1.0], 0.0)


class TestChurnHeterogeneity:
    def test_reports_on_real_campaign(self, small_baseline):
        stats = run_c_event_experiment(
            small_baseline, FAST, num_origins=4, seed=1
        )
        reports = churn_heterogeneity(stats)
        assert NodeType.M in reports
        report = reports[NodeType.M]
        assert 0.0 <= report.gini < 1.0
        assert report.top_10_percent_share >= 0.10  # top nodes carry >= mean
        assert report.max_to_mean >= 1.0

    def test_heavy_tail_visible_at_m_nodes(self, small_baseline):
        """Preferential attachment should concentrate churn unevenly."""
        stats = run_c_event_experiment(
            small_baseline, FAST, num_origins=4, seed=1
        )
        report = churn_heterogeneity(stats)[NodeType.M]
        assert report.gini > 0.1

    def test_small_fraction_of_m_nodes_carries_outsized_churn(self):
        """Ref [5] (Broido et al.): a small fraction of ASes carries a
        disproportionate share of the updates.  At smoke scale the
        ext-heterogeneity experiment does not show it; a 400-node network
        does."""
        graph = generate_topology(baseline_params(400), seed=61)
        stats = run_c_event_experiment(
            graph,
            BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01),
            num_origins=8,
            seed=61,
        )
        report = churn_heterogeneity(stats)[NodeType.M]
        assert report.gini > 0.15
        assert report.top_10_percent_share > 0.15
