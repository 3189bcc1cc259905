"""Tests for path-exploration measurement."""

import pytest

from repro.bgp.config import BGPConfig
from repro.core.exploration import (
    MINIMUM_CHANGES,
    exploration_comparison,
    measure_path_exploration,
)
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.scenarios import scenario_params
from repro.topology.types import NodeType

FAST = BGPConfig(mrai=1.0, link_delay=0.001, processing_time_max=0.005)


class TestMeasurement:
    def test_chain_has_no_exploration(self, chain):
        stats = measure_path_exploration(chain, FAST, num_origins=1, seed=0)
        # single-path topology: exactly lose + regain
        assert stats.changes_per_type[NodeType.T] == pytest.approx(MINIMUM_CHANGES)
        assert stats.exploration_excess(NodeType.T) == pytest.approx(0.0)

    def test_tree_topology_has_no_exploration(self):
        graph = generate_topology(scenario_params("TREE", 200), seed=1)
        stats = measure_path_exploration(graph, FAST, num_origins=3, seed=1)
        assert stats.exploration_excess(NodeType.T) == pytest.approx(0.0, abs=0.05)

    def test_no_wrate_near_minimum(self, small_baseline):
        stats = measure_path_exploration(
            small_baseline, FAST.replace(wrate=False), num_origins=3, seed=2
        )
        # Decision-level changes exceed the 2-change minimum a little even
        # under NO-WRATE (a node may briefly install a longer route while
        # announcements trickle in), but the out-queue invalidation keeps
        # that churn local — message-level e stays ~2 (see test_cevent).
        assert stats.changes_per_type[NodeType.M] < MINIMUM_CHANGES + 1.0

    def test_reproducible(self, small_baseline):
        a = measure_path_exploration(small_baseline, FAST, num_origins=2, seed=3)
        b = measure_path_exploration(small_baseline, FAST, num_origins=2, seed=3)
        assert a.changes_per_type == b.changes_per_type


class TestWrateComparison:
    def test_wrate_explores_more(self, small_baseline):
        results = exploration_comparison(
            small_baseline, FAST, num_origins=3, seed=4
        )
        for node_type in (NodeType.M, NodeType.C):
            assert (
                results["WRATE"].changes_per_type[node_type]
                >= results["NO-WRATE"].changes_per_type[node_type]
            )
        # and strictly more somewhere: path exploration actually happened
        assert any(
            results["WRATE"].changes_per_type[t]
            > results["NO-WRATE"].changes_per_type[t] + 0.05
            for t in results["WRATE"].changes_per_type
        )

    def test_wrate_explores_more_below_the_core_and_most_at_the_edge(self):
        """Strictly more exploration under WRATE at M, CP and C nodes, and
        the excess is larger at the edge (longer paths, more alternates)
        than in the tier-1 core, as in the paper and Oliveira et al."""
        graph = generate_topology(baseline_params(300), seed=41)
        results = exploration_comparison(
            graph,
            BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01),
            num_origins=6,
            seed=41,
        )
        no_wrate, wrate = results["NO-WRATE"], results["WRATE"]
        for node_type in (NodeType.M, NodeType.CP, NodeType.C):
            assert (
                wrate.changes_per_type[node_type]
                > no_wrate.changes_per_type[node_type]
            )
        assert wrate.exploration_excess(NodeType.C) + 1.0 >= (
            wrate.exploration_excess(NodeType.T)
        )
