"""Property-based integration tests: convergence correctness under
randomized topologies, configurations and event sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.config import BGPConfig, MRAIMode, SendDiscipline
from repro.core.reference import steady_state_routes
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType

P0 = host_prefix(0)


def fast_config(**overrides):
    defaults = dict(mrai=1.0, link_delay=0.001, processing_time_max=0.01)
    defaults.update(overrides)
    return BGPConfig(**defaults)


@st.composite
def sim_setup(draw):
    topo_seed = draw(st.integers(min_value=0, max_value=10**6))
    sim_seed = draw(st.integers(min_value=0, max_value=10**6))
    n = draw(st.integers(min_value=60, max_value=140))
    config = fast_config(
        wrate=draw(st.booleans()),
        mrai_mode=draw(st.sampled_from(list(MRAIMode))),
        discipline=draw(st.sampled_from(list(SendDiscipline))),
    )
    return topo_seed, sim_seed, n, config


class TestConvergenceCorrectness:
    @given(setup=sim_setup())
    @settings(max_examples=25, deadline=None)
    def test_converged_routes_match_oracle(self, setup):
        """Whatever the MRAI variant, the *final* routes are the unique
        Gao-Rexford steady state (category + path length per node)."""
        topo_seed, sim_seed, n, config = setup
        graph = generate_topology(baseline_params(n), seed=topo_seed)
        origin = graph.nodes_of_type(NodeType.C)[0]
        network = SimNetwork(graph, config, seed=sim_seed)
        network.originate(origin, P0)
        network.run_to_convergence()
        oracle = steady_state_routes(graph, origin)
        assert set(network.nodes_with_route(P0)) == set(oracle)
        for node_id, expected in oracle.items():
            best = network.node(node_id).best_route(P0)
            assert len(best.path) == expected.length
            if expected.category is not None:
                node = network.node(node_id)
                assert node.channel(best.next_hop).relationship is expected.category

    @given(setup=sim_setup())
    @settings(max_examples=15, deadline=None)
    def test_withdraw_reconverges_to_empty(self, setup):
        """After withdrawing, no node may keep a stale route."""
        topo_seed, sim_seed, n, config = setup
        graph = generate_topology(baseline_params(n), seed=topo_seed)
        origin = graph.nodes_of_type(NodeType.C)[0]
        network = SimNetwork(graph, config, seed=sim_seed)
        network.originate(origin, P0)
        network.run_to_convergence()
        network.withdraw(origin, P0)
        network.run_to_convergence()
        assert network.nodes_with_route(P0) == []
        # and all output queues have drained
        for node in network.nodes.values():
            for neighbor in graph.neighbors(node.node_id):
                assert node.channel(neighbor).pending_count == 0

    @given(setup=sim_setup())
    @settings(max_examples=10, deadline=None)
    def test_flap_is_idempotent(self, setup):
        """withdraw + re-announce returns to exactly the previous state."""
        topo_seed, sim_seed, n, config = setup
        graph = generate_topology(baseline_params(n), seed=topo_seed)
        origin = graph.nodes_of_type(NodeType.C)[0]
        network = SimNetwork(graph, config, seed=sim_seed)
        network.originate(origin, P0)
        network.run_to_convergence()
        before = {
            node_id: network.node(node_id).best_route(P0)
            for node_id in network.nodes
        }
        network.withdraw(origin, P0)
        network.run_to_convergence()
        network.originate(origin, P0)
        network.run_to_convergence()
        after = {
            node_id: network.node(node_id).best_route(P0)
            for node_id in network.nodes
        }
        # the decision process is deterministic, so the stable state is
        # unique in (category, length); paths may differ only in hash ties
        for node_id in before:
            b, a = before[node_id], after[node_id]
            assert (b is None) == (a is None)
            if b is not None:
                assert len(b.path) == len(a.path)
                assert b.local_pref == a.local_pref
