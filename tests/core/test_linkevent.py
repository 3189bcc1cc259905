"""Tests for the link-failure event extension."""

import pytest

from repro.bgp.config import BGPConfig
from repro.core.cevent import run_c_event_experiment
from repro.core.linkevent import pick_links, run_link_event_experiment
from repro.errors import ExperimentError
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType

FAST = BGPConfig(mrai=1.0, link_delay=0.001, processing_time_max=0.01)


class TestPickLinks:
    def test_picks_provider_links_of_origin(self, diamond):
        links = pick_links(diamond, origin=4, how_many=2, seed=1)
        assert set(links) == {(4, 2), (4, 3)}

    def test_caps_at_population(self, diamond):
        assert len(pick_links(diamond, 4, 99, seed=1)) == 2

    def test_origin_without_providers_rejected(self, diamond):
        with pytest.raises(ExperimentError):
            pick_links(diamond, origin=0, how_many=1, seed=1)


class TestLinkEventExperiment:
    def test_basic_run(self, diamond):
        stats = run_link_event_experiment(
            diamond, FAST, origin=4, num_links=2, seed=1
        )
        assert stats.origin == 4
        assert len(stats.links) == 2
        assert stats.u(NodeType.T) > 0
        assert stats.mean_down_convergence > 0
        assert stats.mean_up_convergence >= 0

    def test_explicit_links(self, diamond):
        stats = run_link_event_experiment(
            diamond, FAST, origin=4, links=[(4, 2)], seed=1
        )
        assert stats.links == [(4, 2)]

    def test_invalid_link_rejected(self, diamond):
        with pytest.raises(ExperimentError, match="not a link"):
            run_link_event_experiment(diamond, FAST, origin=4, links=[(4, 1)])

    def test_unknown_origin_rejected(self, diamond):
        with pytest.raises(ExperimentError):
            run_link_event_experiment(diamond, FAST, origin=99, num_links=1)

    def test_network_recovers_after_each_event(self, diamond):
        """After the fail/restore cycle the route must be back."""
        stats = run_link_event_experiment(
            diamond, FAST, origin=4, num_links=2, seed=3
        )
        # a single-provider failure with a backup path should churn less
        # than a full C-event at T nodes (the prefix never fully vanishes
        # globally), but must still generate updates somewhere
        total = sum(stats.u(t) for t in stats.per_type)
        assert total > 0

    def test_failure_with_backup_does_not_blackhole_core(self, small_baseline):
        origin = small_baseline.nodes_of_type(NodeType.C)[0]
        providers = small_baseline.providers_of(origin)
        if len(providers) < 2:
            pytest.skip("sampled origin is single-homed in this instance")
        stats = run_link_event_experiment(
            small_baseline, FAST, origin=origin, links=[(origin, providers[0])], seed=2
        )
        assert stats.u(NodeType.T) >= 0  # runs to completion

    def test_backup_path_failure_churns_core_no_more_than_c_event(self):
        """A failure with a backup path churns the tier-1 core no more than
        a full C-event: the prefix never disappears globally, so only the
        affected subtree re-routes."""
        fast = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)
        graph = generate_topology(baseline_params(300), seed=8)
        origin = next(
            node
            for node in graph.nodes_of_type(NodeType.C)
            if len(graph.providers_of(node)) >= 2
        )
        provider = graph.providers_of(origin)[0]
        link_stats = run_link_event_experiment(
            graph, fast, origin=origin, links=[(origin, provider)], seed=8
        )
        c_stats = run_c_event_experiment(graph, fast, origins=[origin], seed=8)
        assert link_stats.u(NodeType.T) <= c_stats.u(NodeType.T)
