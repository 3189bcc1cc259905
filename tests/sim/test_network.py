"""Tests for the SimNetwork wiring (links, counting, determinism)."""

import pytest

from repro.bgp.config import BGPConfig
from repro.errors import SimulationError
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.types import NodeType, Relationship

P0 = host_prefix(0)


class TestConstruction:
    def test_one_bgp_node_per_as(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config)
        assert set(network.nodes) == set(diamond.node_ids)
        assert network.node(0).node_type is NodeType.T

    def test_neighbor_wiring_matches_graph(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config)
        sessions = network.node(4)._channels
        assert {n: channel.relationship for n, channel in sessions.items()} == {
            2: Relationship.PROVIDER,
            3: Relationship.PROVIDER,
        }

    def test_unknown_node_lookup(self, diamond_network):
        with pytest.raises(SimulationError):
            diamond_network.node(77)


class TestCounting:
    def test_counts_only_while_enabled(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=1)
        network.stop_counting()
        network.originate(4, P0)
        network.run_to_convergence()
        assert network.counter.total == 0
        assert network.delivered_messages > 0

        network.start_counting()
        network.withdraw(4, P0)
        network.run_to_convergence()
        assert network.counter.total > 0

    def test_sender_relationship_classification(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=1)
        network.originate(4, P0)
        network.run_to_convergence()
        # M2 heard the announcement from its customer C4
        assert network.counter.received_by_pair[(2, 4)] >= 1
        assert diamond.relationship(2, 4) is Relationship.CUSTOMER
        assert any(
            row[:2] == (2, Relationship.CUSTOMER)
            for row in network.counter.received_by_relationship()
        )

    def test_nodes_with_route(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=1)
        network.originate(4, P0)
        network.run_to_convergence()
        assert set(network.nodes_with_route(P0)) == {0, 1, 2, 3, 4}
        network.withdraw(4, P0)
        network.run_to_convergence()
        assert network.nodes_with_route(P0) == []


class TestDeterminism:
    def test_same_seed_same_outcome(self, diamond, fast_config):
        def run(seed):
            network = SimNetwork(diamond, fast_config, seed=seed)
            network.originate(4, P0)
            network.run_to_convergence()
            return (
                network.delivered_messages,
                network.engine.now,
                {n: network.node(n).best_route(P0) for n in network.nodes},
            )

        assert run(11) == run(11)

    def test_different_seed_different_timing(self, diamond, fast_config):
        def run(seed):
            network = SimNetwork(diamond, fast_config, seed=seed)
            network.originate(4, P0)
            network.run_to_convergence()
            return network.engine.now

        assert run(1) != run(2)


class TestFootprint:
    """A network is thousands of nodes and sessions: both stay slotted.

    ``BGPNode`` has too many attributes for CPython to keep sharing
    instance-dict keys, so an unslotted node costs ~1.5 kB more — which
    once pushed the e2e ledger's ``peak_rss_mb`` over its bound.
    """

    def test_nodes_and_channels_have_no_instance_dict(self, diamond_network):
        node = diamond_network.node(4)
        assert not hasattr(node, "__dict__")
        assert not hasattr(node.channel(2), "__dict__")

    def test_bytes_per_node_at_n2000(self):
        import gc
        import tracemalloc

        from repro.topology.generator import generate_topology
        from repro.topology.params import baseline_params

        n = 2000
        graph = generate_topology(baseline_params(n), seed=3)
        config = BGPConfig()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            network = SimNetwork(graph, config, seed=3)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(network.nodes) == n
        # 7.3 kB measured, 2.5 kB of it the node's Mersenne-Twister state.
        assert (after - before) / n <= 8000


class TestKernelCounts:
    def test_counted_with_or_without_a_hub(self, diamond, fast_config):
        # The kernel runs one code path: the counts a hub would read are
        # there under the null sink too, and equal the hub's view.
        from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

        def run(telemetry):
            network = SimNetwork(diamond, fast_config, seed=5, telemetry=telemetry)
            network.originate(4, P0)
            network.run_to_convergence()
            network.withdraw(4, P0)
            network.run_to_convergence()
            return network

        silent = run(None)
        assert silent.telemetry is NULL_TELEMETRY
        hub = Telemetry()
        heard = run(hub)
        assert silent.kernel_counts.counters() == heard.kernel_counts.counters()
        assert heard.kernel_counts.counters() == hub.counters
        assert hub.counters["network.deliveries"] == heard.delivered_messages
