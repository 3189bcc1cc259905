"""Tests for the ASGraph data structure."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.graph import ASGraph
from repro.topology.serialization import from_json_dict, to_json_dict
from repro.topology.types import NodeType, Relationship


def make_pair():
    graph = ASGraph()
    graph.add_node(0, NodeType.T, [0])
    graph.add_node(1, NodeType.C, [0])
    return graph


class TestNodes:
    def test_add_and_lookup(self):
        graph = make_pair()
        assert len(graph) == 2
        assert 0 in graph and 1 in graph and 2 not in graph
        assert graph.node(0).node_type is NodeType.T
        assert graph.node(1).regions == frozenset({0})

    def test_duplicate_id_rejected(self):
        graph = make_pair()
        with pytest.raises(TopologyError, match="duplicate"):
            graph.add_node(0, NodeType.C, [0])

    def test_empty_regions_rejected(self):
        graph = ASGraph()
        with pytest.raises(TopologyError, match="region"):
            graph.add_node(0, NodeType.C, [])

    def test_unknown_node_lookup(self):
        graph = make_pair()
        with pytest.raises(TopologyError, match="unknown"):
            graph.node(99)

    def test_nodes_of_type(self):
        graph = make_pair()
        assert graph.nodes_of_type(NodeType.T) == [0]
        assert graph.nodes_of_type(NodeType.C) == [1]
        assert graph.nodes_of_type(NodeType.M) == []

    def test_shares_region(self):
        graph = ASGraph()
        a = graph.add_node(0, NodeType.M, [0, 1])
        b = graph.add_node(1, NodeType.M, [1, 2])
        c = graph.add_node(2, NodeType.M, [3])
        assert a.shares_region_with(b)
        assert not a.shares_region_with(c)


class TestLinks:
    def test_transit_link_relationships(self):
        graph = make_pair()
        graph.add_transit_link(customer=1, provider=0)
        assert graph.relationship(1, 0) is Relationship.PROVIDER
        assert graph.relationship(0, 1) is Relationship.CUSTOMER
        assert graph.customers_of(0) == [1]
        assert graph.providers_of(1) == [0]

    def test_peering_link_symmetric(self):
        graph = make_pair()
        graph.add_peering_link(0, 1)
        assert graph.relationship(0, 1) is Relationship.PEER
        assert graph.relationship(1, 0) is Relationship.PEER
        assert graph.peers_of(0) == [1]

    def test_self_loop_rejected(self):
        graph = make_pair()
        with pytest.raises(TopologyError, match="self-loop"):
            graph.add_transit_link(0, 0)

    def test_parallel_link_rejected(self):
        graph = make_pair()
        graph.add_transit_link(1, 0)
        with pytest.raises(TopologyError, match="parallel"):
            graph.add_peering_link(0, 1)

    def test_unknown_endpoint_rejected(self):
        graph = make_pair()
        with pytest.raises(TopologyError, match="unknown"):
            graph.add_transit_link(1, 5)

    def test_provider_loop_rejected(self):
        graph = ASGraph()
        for i in range(3):
            graph.add_node(i, NodeType.M, [0])
        graph.add_transit_link(1, 0)  # 0 provides 1
        graph.add_transit_link(2, 1)  # 1 provides 2
        with pytest.raises(TopologyError, match="loop"):
            graph.add_transit_link(0, 2)  # 2 provides 0 -> cycle

    def test_peering_inside_customer_tree_rejected(self):
        graph = ASGraph()
        for i in range(3):
            graph.add_node(i, NodeType.M, [0])
        graph.add_transit_link(1, 0)
        graph.add_transit_link(2, 1)
        with pytest.raises(TopologyError, match="customer tree"):
            graph.add_peering_link(0, 2)

    @pytest.mark.parametrize(
        "links, closing",
        [
            # 1 peers with 2 and is 0's customer; 0 under 2 puts 1 below 2.
            ([("transit", 1, 0), ("peer", 1, 2)], (0, 2)),
            # The peer 3 sits in the customer's own tree: 3 under 1 under 2.
            ([("transit", 3, 1), ("peer", 3, 2)], (1, 2)),
            # The peer sits above the provider: 1 under 0 under 2, 1--2.
            ([("transit", 0, 2), ("peer", 1, 2)], (1, 0)),
        ],
        ids=["customer-peers-provider", "cone-peers-provider", "customer-peers-ancestor"],
    )
    def test_transit_link_putting_a_peer_inside_a_customer_tree_rejected(
        self, links, closing
    ):
        # Whatever order the links come in, no node ends up peering with
        # a member of its own customer tree — so every graph the API can
        # build survives a save/load round trip.
        graph = ASGraph()
        for i in range(4):
            graph.add_node(i, NodeType.M, [0])
        for kind, a, b in links:
            if kind == "transit":
                graph.add_transit_link(a, b)
            else:
                graph.add_peering_link(a, b)
        with pytest.raises(TopologyError, match="customer tree of its peer"):
            graph.add_transit_link(*closing)
        assert not graph.has_link(*closing)
        assert_transit_index_consistent(graph)
        rebuilt = from_json_dict(to_json_dict(graph))
        assert list(rebuilt.edges()) == list(graph.edges())

    def test_remove_link(self):
        graph = make_pair()
        graph.add_transit_link(1, 0)
        rel = graph.remove_link(1, 0)
        assert rel is Relationship.PROVIDER
        assert graph.degree(0) == 0
        with pytest.raises(TopologyError):
            graph.remove_link(1, 0)

    def test_edges_yields_each_link_once(self):
        graph = ASGraph()
        for i in range(4):
            graph.add_node(i, NodeType.M, [0])
        graph.add_transit_link(1, 0)
        graph.add_transit_link(2, 0)
        graph.add_peering_link(1, 2)
        graph.add_peering_link(3, 2)
        edges = list(graph.edges())
        assert len(edges) == 4
        assert graph.edge_count() == 4
        transit = [(u, v) for u, v, r in edges if r is Relationship.PROVIDER]
        assert set(transit) == {(1, 0), (2, 0)}  # customer first
        peers = [(u, v) for u, v, r in edges if r is Relationship.PEER]
        assert all(u < v for u, v in peers)


class TestDegrees:
    def test_degree_breakdown(self, diamond):
        # T0: peer T1, customers M2, M3
        assert diamond.degree(0) == 3
        assert diamond.peering_degree(0) == 1
        assert diamond.transit_degree(0) == 2
        assert diamond.multihoming_degree(3) == 2  # M3 -> T0, T1
        assert diamond.multihoming_degree(0) == 0


class TestCustomerTree:
    def test_tree_contents(self, diamond):
        assert diamond.customer_tree(0) == {2, 3, 4}
        assert diamond.customer_tree(1) == {3, 4}
        assert diamond.customer_tree(2) == {4}
        assert diamond.customer_tree(4) == set()

    def test_is_in_customer_tree(self, diamond):
        assert diamond.is_in_customer_tree(ancestor=0, descendant=4)
        assert diamond.is_in_customer_tree(ancestor=1, descendant=4)
        assert not diamond.is_in_customer_tree(ancestor=2, descendant=3)
        assert not diamond.is_in_customer_tree(ancestor=4, descendant=0)
        assert not diamond.is_in_customer_tree(ancestor=0, descendant=0)


class TestSummaries:
    def test_type_counts(self, diamond):
        counts = diamond.type_counts()
        assert counts[NodeType.T] == 2
        assert counts[NodeType.M] == 2
        assert counts[NodeType.C] == 1
        assert counts[NodeType.CP] == 0

    def test_repr_mentions_scenario(self, diamond):
        assert "diamond" in repr(diamond)


def _reachable(start, step):
    """Brute-force closure of ``step`` from ``start`` (excluding it)."""
    seen = set()
    stack = [start]
    while stack:
        for v in step(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    seen.discard(start)
    return seen


def remember_every_ancestor_set(graph):
    """Fill the ancestor memo for every node, so the next transit-link
    change has to drop every set it makes stale."""
    for node_id in graph.node_ids:
        graph._ancestors(node_id)


def assert_ancestor_memo_fresh(graph):
    """Every remembered ancestor set equals a fresh upward walk."""
    for node_id, remembered in graph._ancestor_memo.items():
        assert remembered == _reachable(node_id, graph.providers_of), (
            f"stale ancestor memo at {node_id}"
        )


def assert_transit_index_consistent(graph):
    """The provider/customer/peer index, the ancestor memo and every cone
    query agree with a scan of the adjacency dicts; so does the memo of
    every node once all of them are remembered."""
    adjacency = graph._adjacency

    def scan(node_id, wanted):
        return sorted(v for v, rel in adjacency[node_id].items() if rel is wanted)

    for node_id in graph.node_ids:
        providers = scan(node_id, Relationship.PROVIDER)
        customers = scan(node_id, Relationship.CUSTOMER)
        assert sorted(graph._providers[node_id]) == providers
        assert sorted(graph._customers[node_id]) == customers
        assert graph.providers_of(node_id) == providers
        assert graph.customers_of(node_id) == customers
        assert graph.multihoming_degree(node_id) == len(providers)
        peers = scan(node_id, Relationship.PEER)
        assert sorted(graph._peers.get(node_id, [])) == peers
        assert graph.peers_of(node_id) == peers
        assert graph.peering_degree(node_id) == len(peers)
    ancestors = {
        v: _reachable(v, lambda u: scan(u, Relationship.PROVIDER))
        for v in graph.node_ids
    }
    for node_id, remembered in graph._ancestor_memo.items():
        assert remembered == ancestors[node_id], f"stale ancestor memo at {node_id}"
    for a in graph.node_ids:
        tree = graph.customer_tree(a)
        assert tree == _reachable(a, lambda u: scan(u, Relationship.CUSTOMER))
        for d in graph.node_ids:
            expected = a in ancestors[d]
            assert (d in tree) == expected
            assert graph.is_in_customer_tree(ancestor=a, descendant=d) == expected
    # ... and the queries above filled the memo; it must still be right.
    for node_id, remembered in graph._ancestor_memo.items():
        assert remembered == ancestors[node_id]
    remember_every_ancestor_set(graph)
    assert graph._ancestor_memo == ancestors


_NODE = st.integers(min_value=0, max_value=8)
#: Transit links are what move ancestor sets, so they come up most.
_KIND = st.sampled_from(
    ["transit", "transit", "transit", "peer", "remove", "ask", "reorder"]
)
#: An operation on nodes ``a`` and ``b`` (taken modulo the node count;
#: ``b`` seeds the shuffle of a reorder), and whether every ancestor set
#: is remembered before it (else it runs on the memo as the earlier
#: queries left it).
_STEP = st.tuples(_KIND, _NODE, _NODE, st.booleans())


class TestTransitIndexProperties:
    @given(
        node_count=st.integers(min_value=2, max_value=9),
        steps=st.lists(_STEP, max_size=60),
    )
    # 0 -> 1 -> 2 with only 0's set remembered, then 1 gains provider 3:
    # 0's set goes stale below a node the memo does not hold.
    @example(
        node_count=4,
        steps=[
            ("transit", 0, 1, False),
            ("transit", 1, 2, False),
            ("ask", 2, 0, False),
            ("transit", 1, 3, False),
        ],
    )
    # ... and the same change on a memo that holds every set.
    @example(
        node_count=4,
        steps=[
            ("transit", 0, 1, False),
            ("transit", 1, 2, False),
            ("transit", 1, 3, True),
        ],
    )
    @settings(max_examples=150, deadline=None)
    def test_index_and_memo_track_adjacency(self, node_count, steps):
        graph = ASGraph()
        for node_id in range(node_count):
            graph.add_node(node_id, NodeType.M, [0])
        for kind, a, b, remember_all in steps:
            a, b = a % node_count, b % node_count
            # A change must drop every set it makes stale, whether the memo
            # holds all of them or only what the earlier queries asked for.
            if remember_all:
                remember_every_ancestor_set(graph)
            try:
                if kind == "reorder":
                    order = graph.adjacency_order(a)
                    random.Random(b).shuffle(order)
                    graph.apply_adjacency_order({a: order})
                elif kind == "transit":
                    graph.add_transit_link(a, b)
                elif kind == "peer":
                    graph.add_peering_link(a, b)
                elif kind == "remove":
                    graph.remove_link(a, b)
                else:
                    graph.is_in_customer_tree(ancestor=a, descendant=b)
            except TopologyError:
                pass  # rejected links must leave the index untouched too
            assert_ancestor_memo_fresh(graph)
        assert_transit_index_consistent(graph)
        rebuilt = from_json_dict(to_json_dict(graph))
        assert_transit_index_consistent(rebuilt)
        assert rebuilt._adjacency == graph._adjacency
        assert [rebuilt.adjacency_order(v) for v in rebuilt.node_ids] == [
            graph.adjacency_order(v) for v in graph.node_ids
        ]

    def test_remove_and_re_add_cycle(self, diamond):
        """Failing a transit link and restoring it (the link-event
        extension's cycle) leaves index and memo as they were."""
        assert diamond.is_in_customer_tree(ancestor=1, descendant=4)
        before = {v: diamond.customer_tree(v) for v in diamond.node_ids}
        assert diamond.remove_link(3, 1) is Relationship.PROVIDER
        assert_transit_index_consistent(diamond)
        assert not diamond.is_in_customer_tree(ancestor=1, descendant=4)
        diamond.add_transit_link(3, 1)
        assert_transit_index_consistent(diamond)
        assert {v: diamond.customer_tree(v) for v in diamond.node_ids} == before

    def test_remove_from_the_provider_side(self, diamond):
        assert diamond.remove_link(1, 3) is Relationship.CUSTOMER
        assert diamond.providers_of(3) == [0]
        assert_transit_index_consistent(diamond)

    def test_link_event_experiment_leaves_graph_consistent(self, diamond):
        from repro.core.linkevent import run_link_event_experiment

        order = {v: diamond.adjacency_order(v) for v in diamond.node_ids}
        run_link_event_experiment(diamond, origin=4, num_links=1, seed=1)
        assert {v: diamond.adjacency_order(v) for v in diamond.node_ids} == order
        assert_transit_index_consistent(diamond)
