"""Tests for the decision process."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.decision import better, not_worse, rank, select_best
from repro.bgp.route import (
    LOCAL_ROUTE_PREF,
    Route,
    best_route,
    import_route,
    local_route,
)
from repro.prefix.prefix import host_prefix
from repro.topology.types import LOCAL_PREFERENCE, Relationship

P0 = host_prefix(0)

CUST = Relationship.CUSTOMER
PEER = Relationship.PEER
PROV = Relationship.PROVIDER


class TestSelectBest:
    def test_empty(self):
        assert select_best(0, []) is None

    def test_prefers_customer_over_peer_over_provider(self):
        cust = import_route(P0, (1, 9), CUST)
        peer = import_route(P0, (2, 9), PEER)
        prov = import_route(P0, (3, 9), PROV)
        assert select_best(0, [prov, peer, cust]) == cust
        assert select_best(0, [prov, peer]) == peer

    def test_shortest_path_within_class(self):
        short = import_route(P0, (1, 9), CUST)
        long = import_route(P0, (2, 8, 9), CUST)
        assert select_best(0, [long, short]) == short

    def test_local_route_beats_all(self):
        routes = [local_route(P0), import_route(P0, (1,), CUST)]
        assert select_best(0, routes).is_local

    def test_input_order_irrelevant(self):
        a = import_route(P0, (1, 9), PEER)
        b = import_route(P0, (2, 9), PEER)
        assert select_best(0, [a, b]) == select_best(0, [b, a])


class TestRank:
    def test_rank_is_sorted_by_preference(self):
        routes = [
            import_route(P0, (3, 9), PROV),
            import_route(P0, (1, 9), CUST),
            import_route(P0, (2, 9), PEER),
        ]
        ranked = rank(0, routes)
        assert ranked[0].local_pref > ranked[1].local_pref > ranked[2].local_pref

    def test_rank_head_equals_select_best(self):
        routes = [
            import_route(P0, (3, 9), PROV),
            import_route(P0, (1, 8, 9), PROV),
            import_route(P0, (2, 9), PROV),
        ]
        assert rank(0, routes)[0] == select_best(0, routes)


# ----------------------------------------------------------------------
# better / not_worse: the preference order without a key for every route
# ----------------------------------------------------------------------
#: Few distinct values, so equal preferences, equal lengths and equal
#: paths (full ties) are common.
_PREFS = sorted(set(LOCAL_PREFERENCE.values())) + [LOCAL_ROUTE_PREF]
_routes = st.builds(
    Route,
    prefix=st.just(0),
    path=st.lists(st.integers(min_value=1, max_value=6), max_size=4).map(tuple),
    local_pref=st.sampled_from(_PREFS),
)


class TestPreferenceHelpers:
    @given(a=_routes, b=_routes, receiver=st.integers(min_value=0, max_value=6))
    @settings(max_examples=300, deadline=None)
    def test_helpers_agree_with_key_comparison(self, a, b, receiver):
        key_a, key_b = a.preference_key(receiver), b.preference_key(receiver)
        assert better(a, b, receiver) == (key_a < key_b)
        assert not_worse(a, b, receiver) == (key_a <= key_b)

    @given(route=_routes, receiver=st.integers(min_value=0, max_value=6))
    def test_a_route_ties_with_itself(self, route, receiver):
        twin = Route(route.prefix, route.path, route.local_pref)
        assert not better(route, twin, receiver) and not better(twin, route, receiver)
        assert not_worse(route, twin, receiver) and not_worse(twin, route, receiver)

    @given(
        routes=st.lists(_routes, max_size=8),
        receiver=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_select_best_equals_the_key_based_reference(self, routes, receiver):
        chosen = select_best(receiver, routes)
        reference = best_route(routes, receiver)
        assert chosen is reference  # the same object: first of equals wins
