"""Tests for the node-type / relationship vocabulary."""

import pytest

from repro.topology.graph import ASGraph
from repro.topology.types import (
    LOCAL_PREFERENCE,
    NODE_TYPE_ORDER,
    RELATIONSHIP_ORDER,
    NodeType,
    Relationship,
)


class TestNodeType:
    def test_transit_types(self):
        # Every type that is not a stub sells transit: T and M.
        assert {t for t in NodeType if not t.is_stub} == {NodeType.T, NodeType.M}

    def test_stub_types(self):
        assert NodeType.CP.is_stub
        assert NodeType.C.is_stub
        assert not NodeType.T.is_stub
        assert not NodeType.M.is_stub

    def test_order_covers_all_types(self):
        assert set(NODE_TYPE_ORDER) == set(NodeType)
        assert NODE_TYPE_ORDER[0] is NodeType.T

    def test_value_round_trip(self):
        for node_type in NodeType:
            assert NodeType(node_type.value) is node_type

    def test_str(self):
        assert str(NodeType.CP) == "CP"


class TestRelationship:
    def test_inverse_pairs(self):
        """Each link is recorded at its two ends as inverse relationships."""
        graph = ASGraph()
        graph.add_node(0, NodeType.T, [0])
        graph.add_node(1, NodeType.T, [0])
        graph.add_node(2, NodeType.C, [0])
        graph.add_transit_link(customer=2, provider=0)
        graph.add_peering_link(0, 1)
        assert graph.relationship(0, 2) is Relationship.CUSTOMER
        assert graph.relationship(2, 0) is Relationship.PROVIDER
        assert graph.relationship(0, 1) is Relationship.PEER
        assert graph.relationship(1, 0) is Relationship.PEER

    def test_order_covers_all(self):
        assert set(RELATIONSHIP_ORDER) == set(Relationship)

    def test_local_preference_ordering(self):
        """Customer routes outrank peer routes outrank provider routes."""
        assert (
            LOCAL_PREFERENCE[Relationship.CUSTOMER]
            > LOCAL_PREFERENCE[Relationship.PEER]
            > LOCAL_PREFERENCE[Relationship.PROVIDER]
        )

    @pytest.mark.parametrize("rel", list(Relationship))
    def test_every_relationship_has_preference(self, rel):
        assert rel in LOCAL_PREFERENCE
