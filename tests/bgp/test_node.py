"""Tests for the BGP speaker, driven through a real engine + network."""

import pytest

from repro.bgp.config import BGPConfig
from repro.errors import ParameterError, SimulationError
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType, Relationship

P0, P1 = host_prefix(0), host_prefix(1)


def converge(network):
    network.run_to_convergence()
    return network


def pair_network(config=None):
    graph = ASGraph()
    graph.add_node(0, NodeType.T, [0])
    graph.add_node(1, NodeType.C, [0])
    graph.add_transit_link(1, 0)
    return SimNetwork(graph, config or BGPConfig(mrai=1.0), seed=1)


class TestOriginBehavior:
    def test_originate_and_propagate(self):
        network = pair_network()
        network.originate(1, P0)
        converge(network)
        best = network.node(0).best_route(P0)
        assert best is not None
        assert best.path == (1,)

    def test_withdraw_clears_routes(self):
        network = pair_network()
        network.originate(1, P0)
        converge(network)
        network.withdraw(1, P0)
        converge(network)
        assert network.node(0).best_route(P0) is None
        assert network.node(1).best_route(P0) is None

    def test_withdraw_unoriginated_prefix_raises(self):
        network = pair_network()
        with pytest.raises(SimulationError):
            network.withdraw(1, P0)

    def test_originates_flag(self):
        network = pair_network()
        network.originate(1, P0)
        assert network.node(1).originates(P0)
        assert not network.node(0).originates(P0)

    @pytest.mark.parametrize("token", [0, (0, 32), "0.0.0.0/32"])
    def test_originate_refuses_a_token_that_is_not_a_prefix(self, token):
        network = pair_network()
        with pytest.raises(ParameterError, match="Prefix"):
            network.node(1).originate(token)
        assert not network.node(1).originates(host_prefix(0))


class TestPolicyPropagation:
    def test_peer_route_not_reexported_to_peer(self, diamond, fast_config):
        """T1 learns C4's prefix via customers; T0 must not pass a
        peer-learned route on to another peer (here there is none, so we
        check the diamond converges with valley-free paths only)."""
        network = SimNetwork(diamond, fast_config, seed=3)
        network.originate(4, P0)
        converge(network)
        for node_id in (0, 1, 2, 3):
            best = network.node(node_id).best_route(P0)
            assert best is not None
            assert best.origin == 4

    def test_customer_preferred_over_peer(self, diamond, fast_config):
        """T0 hears C4's route from customers M2/M3 and from peer T1; it
        must select a customer route."""
        network = SimNetwork(diamond, fast_config, seed=3)
        network.originate(4, P0)
        converge(network)
        best = network.node(0).best_route(P0)
        assert best.local_pref == 2  # customer-learned
        assert best.next_hop in (2, 3)

    def test_as_path_has_no_loops(self, small_baseline, fast_config):
        network = SimNetwork(small_baseline, fast_config, seed=5)
        origin = small_baseline.nodes_of_type(NodeType.C)[0]
        network.originate(origin, P0)
        converge(network)
        for node in network.nodes.values():
            best = node.best_route(P0)
            if best is not None and not best.is_local:
                assert len(set(best.path)) == len(best.path)
                assert best.path[-1] == origin
                assert node.node_id not in best.path

    def test_stub_never_transits(self, fast_config):
        """A multihomed C stub must not carry traffic between providers."""
        graph = ASGraph()
        graph.add_node(0, NodeType.M, [0])
        graph.add_node(1, NodeType.M, [0])
        graph.add_node(2, NodeType.C, [0])  # multihomed stub
        graph.add_node(3, NodeType.T, [0])
        graph.add_transit_link(0, 3)
        graph.add_transit_link(2, 0)
        graph.add_transit_link(2, 1)
        # provider 1 is NOT connected to the core: its only path to a
        # prefix of node 3 would be through its customer 2 (a valley).
        network = SimNetwork(graph, fast_config, seed=2)
        network.originate(3, P0)
        converge(network)
        assert network.node(0).best_route(P0) is not None
        assert network.node(2).best_route(P0) is not None
        # 2 learned the route from provider 0, so it must not export it to
        # provider 1.
        assert network.node(1).best_route(P0) is None


class TestMessageValidation:
    def test_wrong_receiver_rejected(self):
        from repro.bgp.messages import announcement

        network = pair_network()
        with pytest.raises(SimulationError, match="addressed"):
            network.node(0).receive(announcement(1, 1, P0, (1,)))

    def test_unknown_sender_rejected(self):
        from repro.bgp.messages import announcement

        network = pair_network()
        with pytest.raises(SimulationError, match="non-neighbor"):
            network.node(0).receive(announcement(5, 0, P0, (5,)))


class TestLoopSuppression:
    def test_received_path_containing_self_ignored(self):
        """Receiver-side loop detection treats the route as unreachable."""
        from repro.bgp.messages import announcement

        network = pair_network()
        node = network.node(0)
        node.receive(announcement(1, 0, P0, (1, 0, 9)))
        network.run_to_convergence()
        assert node.best_route(P0) is None


class TestLinkState:
    def test_link_down_flushes_routes(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=4)
        network.originate(4, P0)
        converge(network)
        # fail C4's link to M2: M2 loses its customer route
        network.node(4).set_link_down(2)
        network.node(2).set_link_down(4)
        converge(network)
        best = network.node(2).best_route(P0)
        assert best is not None
        assert best.next_hop == 0  # re-routed via provider T0
        assert network.node(2).channel(4).down

    def test_link_up_restores(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=4)
        network.originate(4, P0)
        converge(network)
        network.node(4).set_link_down(2)
        network.node(2).set_link_down(4)
        converge(network)
        network.node(4).set_link_up(2)
        network.node(2).set_link_up(4)
        converge(network)
        best = network.node(2).best_route(P0)
        assert best.next_hop == 4  # direct customer route again

    def test_down_unknown_neighbor_raises(self, diamond_network):
        with pytest.raises(SimulationError):
            diamond_network.node(0).set_link_down(99)

    def test_down_is_idempotent(self, diamond_network):
        node = diamond_network.node(0)
        node.set_link_down(1)
        node.set_link_down(1)
        assert node.channel(1).down
        node.set_link_up(1)
        node.set_link_up(1)
        assert not node.channel(1).down


class TestDampingIntegration:
    def test_attribute_change_penalized(self):
        """Same sender re-announcing a different path is a 0.5 flap."""
        from repro.bgp.config import DampingConfig
        from repro.bgp.messages import announcement

        damping = DampingConfig(enabled=True)
        network = pair_network(BGPConfig(mrai=1.0, damping=damping))
        node = network.node(0)
        node.receive(announcement(1, 0, P0, (1, 5)))
        network.run_to_convergence()
        node.receive(announcement(1, 0, P0, (1, 6)))
        network.run_to_convergence()
        now = network.engine.now
        assert node._damper.penalty(1, P0, now) == pytest.approx(1.0, abs=0.1)

    def test_identical_reannouncement_not_penalized(self):
        from repro.bgp.config import DampingConfig
        from repro.bgp.messages import announcement

        damping = DampingConfig(enabled=True)
        network = pair_network(BGPConfig(mrai=1.0, damping=damping))
        node = network.node(0)
        node.receive(announcement(1, 0, P0, (1, 5)))
        network.run_to_convergence()
        penalty_after_first = node._damper.penalty(1, P0, network.engine.now)
        node.receive(announcement(1, 0, P0, (1, 5)))
        network.run_to_convergence()
        assert node._damper.penalty(1, P0, network.engine.now) <= penalty_after_first

    def test_damping_disabled_records_nothing(self):
        from repro.bgp.messages import announcement, withdrawal

        network = pair_network(BGPConfig(mrai=1.0))
        node = network.node(0)
        node.receive(announcement(1, 0, P0, (1, 5)))
        node.receive(withdrawal(1, 0, P0))
        network.run_to_convergence()
        assert node._damper is None


class TestIntrospection:
    def test_advertised_to_reflects_wire_state(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=6)
        network.originate(4, P0)
        network.run_to_convergence()
        origin = network.node(4)
        # the origin announced (4,) to both providers
        assert origin.channel(2).advertised(P0) == ()
        # ... path stored without the owner prepended (empty = local)
        m2 = network.node(2)
        assert m2.channel(0).advertised(P0) is not None

    def test_best_change_count_tracks_flaps(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=6)
        network.originate(4, P0)
        network.run_to_convergence()
        t0 = network.node(0)
        before = t0.best_change_count.get(P0, 0)
        assert before >= 1
        network.withdraw(4, P0)
        network.run_to_convergence()
        network.originate(4, P0)
        network.run_to_convergence()
        assert t0.best_change_count[P0] >= before + 2

    def test_channel_accessor(self, diamond_network):
        channel = diamond_network.node(0).channel(1)
        assert channel.owner == 0 and channel.neighbor == 1

    def test_busy_time_accumulates(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=6)
        network.originate(4, P0)
        network.run_to_convergence()
        node = network.node(0)
        assert node.busy_time > 0
        assert node.max_queue_length >= 1

    def test_busy_time_excludes_interrupted_service(self, diamond):
        # Regression: busy_time used to accrue the full drawn service delay
        # at _start_service, so a run halted mid-service reported more busy
        # seconds than simulated seconds — occupancy (busy_time / horizon)
        # above 1.0 in the ext_load accounting.  Accrual-on-completion
        # bounds every node's busy_time by the simulated horizon.
        config = BGPConfig(
            mrai=0.0, link_delay=0.0001, processing_time_max=10.0
        )
        network = SimNetwork(diamond, config, seed=6)
        network.originate(4, P0)
        horizon = 0.002  # far shorter than a typical drawn service time
        network.engine.run(until=horizon)
        assert any(node.queue_length for node in network.nodes.values())
        for node in network.nodes.values():
            assert node.busy_time <= network.engine.now

    def test_busy_time_matches_horizonless_run(self, diamond, fast_config):
        # Fully drained runs complete every started service, so the fix
        # changes nothing there: interrupt-and-continue equals one shot.
        one_shot = SimNetwork(diamond, fast_config, seed=6)
        one_shot.originate(4, P0)
        one_shot.run_to_convergence()

        stepped = SimNetwork(diamond, fast_config, seed=6)
        stepped.originate(4, P0)
        stepped.engine.run(until=0.002)
        stepped.run_to_convergence()
        for node_id in stepped.nodes:
            assert stepped.node(node_id).busy_time == pytest.approx(
                one_shot.node(node_id).busy_time
            )


class TestQueueing:
    def test_queue_length_visible(self):
        from repro.bgp.messages import announcement

        network = pair_network()
        node = network.node(0)
        node.receive(announcement(1, 0, P0, (1,)))
        node.receive(announcement(1, 0, P1, (1,)))
        assert node.queue_length == 2
        network.run_to_convergence()
        assert node.queue_length == 0
        assert node.processed_count == 2
