"""Tests for incremental topology evolution."""

import random

import pytest

from repro.errors import TopologyError
from repro.topology.evolve import evolve_topology
from repro.topology.generator import generate_topology
from repro.topology.metrics import mean_multihoming_degree
from repro.topology.params import baseline_params
from repro.topology.types import NodeType
from repro.topology.validation import find_violations


def grown_pair(n_small=200, n_large=500, seed=1):
    small = generate_topology(baseline_params(n_small), seed=seed)
    target = baseline_params(n_large, n_t=small.type_counts()[NodeType.T])
    grown = evolve_topology(small, target, seed=seed + 1)
    return grown, target


class TestGrowth:
    def test_reaches_target_counts(self):
        grown, target = grown_pair()
        counts = grown.type_counts()
        assert len(grown) == target.n
        assert counts[NodeType.M] == target.n_m
        assert counts[NodeType.CP] == target.n_cp
        assert counts[NodeType.C] == target.n_c

    def test_invariants_preserved(self):
        grown, _ = grown_pair()
        assert find_violations(grown) == []

    def test_existing_links_survive(self):
        small = generate_topology(baseline_params(200), seed=3)
        original_edges = set(small.edges())
        target = baseline_params(400, n_t=small.type_counts()[NodeType.T])
        grown = evolve_topology(small, target, seed=4)
        assert original_edges <= set(grown.edges())

    def test_mutates_in_place(self):
        small = generate_topology(baseline_params(200), seed=5)
        target = baseline_params(300, n_t=small.type_counts()[NodeType.T])
        grown = evolve_topology(small, target, seed=6)
        assert grown is small

    def test_mhd_densifies_toward_target(self):
        small = generate_topology(baseline_params(300), seed=7)
        before = mean_multihoming_degree(small, NodeType.M)
        # exaggerate: target dM well above the current mean
        target = baseline_params(600, n_t=small.type_counts()[NodeType.T]).replace(
            d_m=5.0
        )
        grown = evolve_topology(small, target, seed=8)
        after = mean_multihoming_degree(grown, NodeType.M)
        assert after > before + 0.5

    def test_multi_step_evolution(self):
        graph = generate_topology(baseline_params(150), seed=9)
        n_t = graph.type_counts()[NodeType.T]
        for n in (250, 350, 450):
            evolve_topology(graph, baseline_params(n, n_t=n_t), seed=n)
            assert len(graph) == n
            assert find_violations(graph) == []

    def test_densification_never_breaks_peering(self):
        """Regression: adding a provider link to an existing node must not
        pull an existing peering link inside a customer tree (found by the
        default-scale ext-evolution campaign)."""
        graph = generate_topology(baseline_params(400), seed=19)
        n_t = graph.type_counts()[NodeType.T]
        for n in (800, 1200):
            evolve_topology(graph, baseline_params(n, n_t=n_t), seed=n + 19)
            assert find_violations(graph) == []

    def test_would_break_peering_detected(self):
        """Densification relies on the graph refusing a provider link
        that would pull an existing peering link inside a customer tree."""
        from repro.topology.graph import ASGraph

        graph = ASGraph()
        graph.add_node(0, NodeType.T, [0])
        graph.add_node(1, NodeType.M, [0])  # peers with 2
        graph.add_node(2, NodeType.M, [0])
        graph.add_node(3, NodeType.M, [0])  # customer of 1
        graph.add_transit_link(1, 0)
        graph.add_transit_link(2, 0)
        graph.add_transit_link(3, 1)
        graph.add_peering_link(1, 2)
        # transit 2 -> 3 would make 2 a member of 1's customer tree while
        # 1 still peers with 2
        with pytest.raises(TopologyError, match="customer tree of its peer"):
            graph.add_transit_link(2, 3)
        assert not graph.has_link(2, 3)
        # a harmless candidate: 3 -> 2 (2 has no peered ancestors whose
        # peer lies in 3's cone)
        graph.add_transit_link(3, 2)
        assert find_violations(graph) == []

    def test_deterministic(self):
        a = generate_topology(baseline_params(200), seed=11)
        b = generate_topology(baseline_params(200), seed=11)
        n_t = a.type_counts()[NodeType.T]
        target = baseline_params(350, n_t=n_t)
        evolve_topology(a, target, seed=12)
        evolve_topology(b, target, seed=12)
        assert list(a.edges()) == list(b.edges())


class TestValidation:
    def test_cannot_change_t_population(self):
        small = generate_topology(baseline_params(200, n_t=5), seed=1)
        with pytest.raises(TopologyError, match="T clique"):
            evolve_topology(small, baseline_params(400, n_t=6), seed=2)

    def test_cannot_shrink(self):
        small = generate_topology(baseline_params(400), seed=1)
        n_t = small.type_counts()[NodeType.T]
        with pytest.raises(TopologyError, match="remove"):
            evolve_topology(small, baseline_params(200, n_t=n_t), seed=2)

    def test_cannot_shrink_regions(self):
        small = generate_topology(baseline_params(200, regions=5), seed=1)
        n_t = small.type_counts()[NodeType.T]
        target = baseline_params(300, n_t=n_t, regions=2)
        with pytest.raises(TopologyError, match="region"):
            evolve_topology(small, target, seed=2)

    def test_seed_and_rng_exclusive(self):
        small = generate_topology(baseline_params(200), seed=1)
        n_t = small.type_counts()[NodeType.T]
        with pytest.raises(TopologyError):
            evolve_topology(
                small,
                baseline_params(300, n_t=n_t),
                seed=1,
                rng=random.Random(1),
            )

    def test_same_size_is_noop_for_counts(self):
        small = generate_topology(baseline_params(200), seed=13)
        n_t = small.type_counts()[NodeType.T]
        before = len(small)
        evolve_topology(small, baseline_params(200, n_t=n_t), seed=14)
        assert len(small) == before
