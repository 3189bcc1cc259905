"""Tests for the steady-state route oracle, and oracle-vs-simulator checks."""

import pytest

from repro.bgp.config import BGPConfig
from repro.core.reference import steady_state_routes
from repro.errors import ExperimentError
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.params import baseline_params
from repro.topology.types import NodeType, Relationship

P0 = host_prefix(0)

FAST = BGPConfig(mrai=1.0, link_delay=0.001, processing_time_max=0.01)


class TestOracle:
    def test_diamond_routes(self, diamond):
        routes = steady_state_routes(diamond, origin=4)
        assert routes[4].category is None and routes[4].length == 0
        assert routes[2].category is Relationship.CUSTOMER and routes[2].length == 1
        assert routes[3].category is Relationship.CUSTOMER and routes[3].length == 1
        assert routes[0].category is Relationship.CUSTOMER and routes[0].length == 2
        assert routes[1].category is Relationship.CUSTOMER and routes[1].length == 2

    def test_peer_route(self):
        graph = ASGraph()
        graph.add_node(0, NodeType.T, [0])
        graph.add_node(1, NodeType.T, [0])
        graph.add_node(2, NodeType.C, [0])
        graph.add_peering_link(0, 1)
        graph.add_transit_link(2, 0)
        routes = steady_state_routes(graph, origin=2)
        assert routes[1].category is Relationship.PEER
        assert routes[1].length == 2

    def test_provider_route_chain(self, chain):
        # chain: T0 <- M1 <- M2 <- C3; origin at the TOP customer cone
        routes = steady_state_routes(chain, origin=3)
        assert routes[0].length == 3
        # now originate at the T node: everyone gets provider routes
        routes = steady_state_routes(chain, origin=0)
        assert routes[1].category is Relationship.PROVIDER
        assert routes[3].length == 3

    def test_customer_route_preferred_even_if_longer(self):
        """lpref dominates length in the oracle too."""
        graph = ASGraph()
        graph.add_node(0, NodeType.T, [0])
        graph.add_node(1, NodeType.T, [0])
        graph.add_node(2, NodeType.M, [0])
        graph.add_node(3, NodeType.M, [0])
        graph.add_node(4, NodeType.C, [0])
        graph.add_peering_link(0, 1)
        graph.add_transit_link(2, 0)
        graph.add_transit_link(3, 2)
        graph.add_transit_link(4, 3)  # chain of 3 under T0
        graph.add_transit_link(4, 1)  # direct customer of T1
        # T0 sees a 2-hop peer route via T1 and a 3-hop customer route via
        # M2; local preference must win over length.
        routes = steady_state_routes(graph, origin=4)
        assert routes[0].category is Relationship.CUSTOMER
        assert routes[0].length == 3

    def test_unreachable_nodes_absent(self):
        graph = ASGraph()
        graph.add_node(0, NodeType.T, [0])
        graph.add_node(1, NodeType.T, [0])
        graph.add_node(2, NodeType.C, [0])
        graph.add_peering_link(0, 1)
        graph.add_transit_link(2, 0)
        graph.add_node(3, NodeType.M, [0])
        graph.add_transit_link(3, 1)  # 3 is a customer of T1
        routes = steady_state_routes(graph, origin=2)
        # T1 has a peer route; it exports it to customer 3 (provider route)
        assert routes[3].category is Relationship.PROVIDER
        assert routes[3].length == 3

    def test_unknown_origin(self, diamond):
        with pytest.raises(ExperimentError):
            steady_state_routes(diamond, origin=99)


class TestSimulatorAgreesWithOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converged_sim_matches_oracle(self, seed):
        graph = generate_topology(baseline_params(120), seed=seed)
        origins = graph.nodes_of_type(NodeType.C)[:3]
        for origin in origins:
            network = SimNetwork(graph, FAST, seed=seed)
            network.originate(origin, P0)
            network.run_to_convergence()
            oracle = steady_state_routes(graph, origin)
            for node_id, node in network.nodes.items():
                best = node.best_route(P0)
                expected = oracle.get(node_id)
                assert (best is None) == (expected is None), (
                    f"reachability mismatch at {node_id}"
                )
                if best is None:
                    continue
                assert len(best.path) == expected.length, (
                    f"length mismatch at {node_id}"
                )
                if expected.category is None:
                    assert best.is_local
                else:
                    assert node.channel(best.next_hop).relationship is expected.category, (
                        f"category mismatch at {node_id}"
                    )

    def test_oracle_reachability_equals_sim_count(self, small_baseline):
        origin = small_baseline.nodes_of_type(NodeType.C)[0]
        network = SimNetwork(small_baseline, FAST, seed=1)
        network.originate(origin, P0)
        network.run_to_convergence()
        oracle = steady_state_routes(small_baseline, origin)
        assert set(network.nodes_with_route(P0)) == set(oracle)
