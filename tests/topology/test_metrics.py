"""Tests for topology metrics."""

import pytest

from repro.errors import ParameterError
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.metrics import (
    average_valley_free_path_length,
    clustering_coefficient,
    degree_ccdf,
    degree_distribution,
    mean_multihoming_degree,
    power_law_alpha,
    summarize,
    to_networkx,
    valley_free_path_lengths,
)
from repro.topology.params import baseline_params
from repro.topology.types import NodeType


class TestDegreeDistribution:
    def test_histogram(self, diamond):
        histogram = degree_distribution(diamond)
        assert sum(histogram.values()) == 5
        assert histogram[3] == 2  # T0 and M3

    def test_ccdf_starts_at_one(self, diamond):
        ccdf = degree_ccdf(diamond)
        assert ccdf[0][1] == pytest.approx(1.0)
        values = [p for _, p in ccdf]
        assert values == sorted(values, reverse=True)

    def test_power_law_alpha_reasonable(self):
        graph = generate_topology(baseline_params(800), seed=1)
        alpha = power_law_alpha(graph)
        assert 1.2 < alpha < 3.5

    def test_power_law_needs_tail(self, diamond):
        with pytest.raises(ParameterError):
            power_law_alpha(diamond, d_min=100)

    def test_power_law_rejects_bad_dmin(self, diamond):
        with pytest.raises(ParameterError):
            power_law_alpha(diamond, d_min=0)


class TestValleyFreePaths:
    def test_diamond_distances(self, diamond):
        lengths = valley_free_path_lengths(diamond, 4)
        # C4 -> M2/M3 (1 hop), T0/T1 (2 hops)
        assert lengths[4] == 0
        assert lengths[2] == 1 and lengths[3] == 1
        assert lengths[0] == 2 and lengths[1] == 2

    def test_no_valley_through_stub(self):
        """Two stubs under different providers connect only via the core."""
        graph = ASGraph()
        graph.add_node(0, NodeType.T, [0])
        graph.add_node(1, NodeType.M, [0])
        graph.add_node(2, NodeType.M, [0])
        graph.add_node(3, NodeType.C, [0])
        graph.add_node(4, NodeType.C, [0])
        graph.add_transit_link(1, 0)
        graph.add_transit_link(2, 0)
        graph.add_transit_link(3, 1)
        graph.add_transit_link(4, 2)
        lengths = valley_free_path_lengths(graph, 3)
        assert lengths[4] == 4  # 3 -> 1 -> 0 -> 2 -> 4

    def test_peer_used_at_most_once(self):
        """peer-peer-down is a valley and must not be used."""
        graph = ASGraph()
        for i in range(4):
            graph.add_node(i, NodeType.M, [0])
        # 0 -- 1 -- 2 peering chain, 3 is customer of 2
        graph.add_node(4, NodeType.T, [0])
        graph.add_transit_link(0, 4)
        graph.add_transit_link(1, 4)
        graph.add_transit_link(2, 4)
        graph.add_transit_link(3, 2)
        graph.add_peering_link(0, 1)
        graph.add_peering_link(1, 2)
        lengths = valley_free_path_lengths(graph, 0)
        # 0 -> 1 is one peering hop; 0 -> 2 must go via T (0,4,2), not (0,1,2)
        assert lengths[1] == 1
        assert lengths[2] == 2
        assert lengths[3] == 3

    def test_average_path_length_around_four(self):
        graph = generate_topology(baseline_params(600), seed=2)
        avg = average_valley_free_path_length(graph, sources=40)
        assert 2.5 < avg < 5.5


class TestClustering:
    def test_triangle_clique(self):
        graph = ASGraph()
        for i in range(3):
            graph.add_node(i, NodeType.T, [0])
        graph.add_peering_link(0, 1)
        graph.add_peering_link(1, 2)
        graph.add_peering_link(0, 2)
        assert clustering_coefficient(graph) == pytest.approx(1.0)

    def test_star_has_zero_clustering(self):
        graph = ASGraph()
        graph.add_node(0, NodeType.T, [0])
        for i in range(1, 5):
            graph.add_node(i, NodeType.C, [0])
            graph.add_transit_link(i, 0)
        assert clustering_coefficient(graph) == 0.0

    def test_baseline_clustering_strong(self):
        graph = generate_topology(baseline_params(800), seed=3)
        value = clustering_coefficient(graph)
        assert value > 0.05


class TestAggregates:
    def test_mean_mhd(self, diamond):
        assert mean_multihoming_degree(diamond, NodeType.M) == pytest.approx(1.5)
        assert mean_multihoming_degree(diamond, NodeType.T) == 0.0

    def test_empty_type_returns_zero(self, diamond):
        assert mean_multihoming_degree(diamond, NodeType.CP) == 0.0

    def test_summarize_keys(self):
        graph = generate_topology(baseline_params(150), seed=0)
        summary = summarize(graph, path_length_sources=10)
        assert summary["n"] == 150
        assert summary["links"] > 150
        assert 0 <= summary["clustering"] <= 1


class TestNetworkxExport:
    def test_to_networkx_preserves_structure(self, diamond):
        nx_graph = to_networkx(diamond)
        assert nx_graph.number_of_nodes() == 5
        assert nx_graph.number_of_edges() == diamond.edge_count()
        assert nx_graph.nodes[0]["node_type"] == "T"
        assert nx_graph.edges[0, 1]["relationship"] == "peer"
        assert nx_graph.edges[4, 2]["relationship"] == "transit"
