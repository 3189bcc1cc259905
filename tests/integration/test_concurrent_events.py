"""Concurrent multi-prefix events: isolation and eventual correctness.

The simulator handles any number of prefixes in flight; these tests stress
overlapping C-events from different origins and assert per-prefix
correctness against the oracle — prefixes must not interfere.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.config import BGPConfig
from repro.core.reference import steady_state_routes
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType

P0, P1 = host_prefix(0), host_prefix(1)

FAST = BGPConfig(mrai=1.0, link_delay=0.001, processing_time_max=0.005)


def check_prefix(network, graph, origin, prefix):
    oracle = steady_state_routes(graph, origin)
    assert set(network.nodes_with_route(prefix)) == set(oracle)
    for node_id, expected in oracle.items():
        best = network.node(node_id).best_route(prefix)
        assert len(best.path) == expected.length


def _prefixed(origins):
    """(prefix, origin) pairs: the i-th origin announces host prefix i."""
    return [(host_prefix(index), origin) for index, origin in enumerate(origins)]


class TestConcurrentAnnouncements:
    def test_simultaneous_origins_converge_independently(self):
        graph = generate_topology(baseline_params(120), seed=3)
        origins = graph.nodes_of_type(NodeType.C)[:4]
        network = SimNetwork(graph, FAST, seed=3)
        for prefix, origin in _prefixed(origins):
            network.originate(origin, prefix)  # all injected at t=0
        network.run_to_convergence()
        for prefix, origin in _prefixed(origins):
            check_prefix(network, graph, origin, prefix)

    def test_interleaved_flaps_do_not_cross_talk(self):
        graph = generate_topology(baseline_params(120), seed=4)
        a, b = graph.nodes_of_type(NodeType.C)[:2]
        network = SimNetwork(graph, FAST, seed=4)
        network.originate(a, P0)
        network.originate(b, P1)
        network.run_to_convergence()
        # withdraw a while b flaps, staggered mid-convergence
        network.withdraw(a, P0)
        network.engine.run(until=network.engine.now + 0.5)
        network.withdraw(b, P1)
        network.engine.run(until=network.engine.now + 0.5)
        network.originate(b, P1)
        network.run_to_convergence()
        assert network.nodes_with_route(P0) == []
        check_prefix(network, graph, b, P1)

    @given(
        seed=st.integers(min_value=0, max_value=10**4),
        stagger=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_staggered_events_end_consistent(self, seed, stagger):
        graph = generate_topology(baseline_params(100), seed=seed)
        origins = graph.nodes_of_type(NodeType.C)[:3]
        network = SimNetwork(graph, FAST, seed=seed)
        start = 0.0
        for prefix, origin in _prefixed(origins):
            network.engine.schedule_at(
                start + prefix.addr * stagger,
                lambda o=origin, p=prefix: network.node(o).originate(p),
            )
        network.run_to_convergence()
        for prefix, origin in _prefixed(origins):
            check_prefix(network, graph, origin, prefix)


class TestPerInterfaceCoupling:
    def test_shared_timer_still_converges_correctly(self):
        """Per-interface MRAI couples prefixes on one session; correctness
        of the final state must be unaffected by the coupling."""
        graph = generate_topology(baseline_params(100), seed=7)
        origins = graph.nodes_of_type(NodeType.C)[:3]
        network = SimNetwork(graph, FAST, seed=7)
        for prefix, origin in _prefixed(origins):
            network.originate(origin, prefix)
        network.run_to_convergence()
        # flap everything at once: maximal out-queue sharing
        for prefix, origin in _prefixed(origins):
            network.withdraw(origin, prefix)
        for prefix, origin in _prefixed(origins):
            network.originate(origin, prefix)
        network.run_to_convergence()
        for prefix, origin in _prefixed(origins):
            check_prefix(network, graph, origin, prefix)
