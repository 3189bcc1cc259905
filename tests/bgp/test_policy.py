"""Tests for the Gao–Rexford export policies."""

import pytest

from repro.bgp.policy import export_allowed, exportable, learned_relationship
from repro.bgp.route import import_route, local_route
from repro.prefix.prefix import host_prefix
from repro.topology.types import Relationship

P0 = host_prefix(0)

CUST = Relationship.CUSTOMER
PEER = Relationship.PEER
PROV = Relationship.PROVIDER


class TestLearnedRelationship:
    def test_local_route(self):
        assert learned_relationship(local_route(P0)) is None

    @pytest.mark.parametrize("rel", [CUST, PEER, PROV])
    def test_imported(self, rel):
        assert learned_relationship(import_route(P0, (1,), rel)) is rel


class TestNoValleyMatrix:
    """The full Gao–Rexford export matrix."""

    def test_customer_routes_to_everyone(self):
        route = import_route(P0, (1,), CUST)
        assert export_allowed(route, CUST)
        assert export_allowed(route, PEER)
        assert export_allowed(route, PROV)

    def test_peer_routes_only_to_customers(self):
        route = import_route(P0, (1,), PEER)
        assert export_allowed(route, CUST)
        assert not export_allowed(route, PEER)
        assert not export_allowed(route, PROV)

    def test_provider_routes_only_to_customers(self):
        route = import_route(P0, (1,), PROV)
        assert export_allowed(route, CUST)
        assert not export_allowed(route, PEER)
        assert not export_allowed(route, PROV)

    def test_local_routes_to_everyone(self):
        route = local_route(P0)
        assert export_allowed(route, CUST)
        assert export_allowed(route, PEER)
        assert export_allowed(route, PROV)


class TestLoopAvoidance:
    def test_never_export_to_node_on_path(self):
        route = import_route(P0, (3, 4, 5), CUST)
        assert not exportable(route, 4, CUST)
        assert not exportable(route, 3, CUST)

    def test_export_to_node_off_path(self):
        route = import_route(P0, (3, 4, 5), CUST)
        assert exportable(route, 9, CUST)

    def test_loop_check_composes_with_valley_filter(self):
        route = import_route(P0, (3,), PROV)
        assert not exportable(route, 9, PEER)  # valley
        assert not exportable(route, 3, CUST)  # loop
        assert exportable(route, 9, CUST)


class TestInlinedExportFilter:
    """``BGPNode._export`` inlines the filter; ``exportable`` is the reference."""

    NEIGHBOR = 2

    @pytest.mark.parametrize("to_relationship", list(Relationship))
    @pytest.mark.parametrize("on_path", [False, True])
    @pytest.mark.parametrize("learned_from", [None, *Relationship])
    def test_agrees_with_exportable(self, learned_from, to_relationship, on_path):
        import random

        from repro.bgp.config import BGPConfig
        from repro.bgp.node import BGPNode
        from repro.sim.engine import Engine
        from repro.topology.types import NodeType

        if learned_from is None:
            if on_path:
                pytest.skip("a locally originated route has no path to be on")
            route = local_route(P0)
        else:
            path = (3, self.NEIGHBOR, 9) if on_path else (3, 8, 9)
            route = import_route(P0, path, learned_from)
        sent = []
        node = BGPNode(
            node_id=1,
            node_type=NodeType.M,
            neighbors={self.NEIGHBOR: to_relationship, 3: Relationship.PEER},
            engine=Engine(),
            config=BGPConfig(mrai=0.0),  # no timer: an allowed export leaves at once
            rng=random.Random(0),
            transmit=lambda message, now: sent.append(message),
        )
        node._export(0, route, 0.0)
        announced = [m.receiver for m in sent if m.path is not None]
        assert (self.NEIGHBOR in announced) == exportable(
            route, self.NEIGHBOR, to_relationship
        )
        assert all(m.path == (1,) + route.path for m in sent)
