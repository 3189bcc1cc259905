"""Tests for Adj-RIB-In and Loc-RIB."""

import random

from repro.bgp.rib import AdjRIBIn, LocRIB
from repro.bgp.route import import_route, make_route
from repro.prefix.prefix import host_prefix, make_prefix
from repro.topology.types import Relationship

P0, P1, P2, P3, P7 = map(host_prefix, (0, 1, 2, 3, 7))


def route(prefix, path):
    return import_route(prefix, path, Relationship.CUSTOMER)


class TestAdjRIBIn:
    def test_install_and_lookup(self):
        rib = AdjRIBIn()
        r = route(P0, (5,))
        assert rib.update(P0, 5, r) is None
        assert rib.route_from(P0, 5) == r
        assert len(rib) == 1

    def test_replace_returns_previous(self):
        rib = AdjRIBIn()
        first = route(P0, (5,))
        second = route(P0, (5, 6))
        rib.update(P0, 5, first)
        assert rib.update(P0, 5, second) == first
        assert rib.route_from(P0, 5) == second

    def test_withdrawal_removes(self):
        rib = AdjRIBIn()
        rib.update(P0, 5, route(P0, (5,)))
        previous = rib.update(P0, 5, None)
        assert previous is not None
        assert rib.route_from(P0, 5) is None
        assert len(rib) == 0

    def test_withdrawal_of_absent_is_noop(self):
        rib = AdjRIBIn()
        assert rib.update(P0, 5, None) is None

    def test_candidates_scoped_by_prefix(self):
        rib = AdjRIBIn()
        rib.update(P0, 5, route(P0, (5,)))
        rib.update(P0, 6, route(P0, (6,)))
        rib.update(P1, 5, route(P1, (5,)))
        candidates = dict(rib.candidates(P0))
        assert set(candidates) == {5, 6}
        assert len(rib.candidates(P1)) == 1

    def test_prefixes_iteration(self):
        rib = AdjRIBIn()
        rib.update(P0, 5, route(P0, (5,)))
        rib.update(P1, 5, route(P1, (5,)))
        rib.update(P1, 6, route(P1, (6,)))
        assert sorted(rib.prefixes()) == [P0, P1]

    def test_prefixes_from_neighbor(self):
        rib = AdjRIBIn()
        rib.update(P0, 5, route(P0, (5,)))
        rib.update(P1, 5, route(P1, (5,)))
        rib.update(P2, 6, route(P2, (6,)))
        assert sorted(rib.prefixes_from(5)) == [P0, P1]
        assert rib.prefixes_from(7) == []


class TestLocRIB:
    def test_install_reports_change(self):
        rib = LocRIB()
        r = route(P0, (5,))
        assert rib.install(P0, r) is True
        assert rib.install(P0, r) is False  # unchanged
        assert rib.best(P0) == r

    def test_uninstall(self):
        rib = LocRIB()
        rib.install(P0, route(P0, (5,)))
        assert rib.install(P0, None) is True
        assert rib.best(P0) is None
        assert rib.install(P0, None) is False

    def test_prefix_listing(self):
        rib = LocRIB()
        rib.install(P0, route(P0, (5,)))
        rib.install(P3, route(P3, (5,)))
        assert sorted(rib.prefixes()) == [P0, P3]
        assert len(rib) == 2


# ----------------------------------------------------------------------
# Behaviours the decision process and checkpoints rely on, checked on
# prefixes of several lengths against a plain-dict model.
# ----------------------------------------------------------------------
NEIGHBORS = [2, 3, 5, 8]


def token_pool():
    """Prefixes of several lengths, covering ones and host prefixes."""
    tokens = [make_prefix(index << 16, 16) for index in range(12)]
    low, high = tokens[0].children()
    tokens += [low, high, tokens[0].parent()]
    tokens += [P0, P1, P7]
    return tokens


def random_route(rng, prefix):
    path = tuple(rng.sample(range(100, 140), rng.randint(1, 4)))
    return make_route(prefix, path, rng.choice((0, 100)))


class TestAdjRIBInModel:
    def test_random_sequences_match_the_model(self):
        for seed in range(5):
            rng = random.Random(seed)
            pool = token_pool()
            rib = AdjRIBIn()
            routes = {}  # (prefix, neighbour) -> route, in insertion order
            for _step in range(400):
                prefix = rng.choice(pool)
                neighbor = rng.choice(NEIGHBORS)
                route = None if rng.random() < 0.4 else random_route(rng, prefix)
                previous = routes.get((prefix, neighbor))
                assert rib.update(prefix, neighbor, route) is previous
                if route is None and previous is not None:
                    del routes[(prefix, neighbor)]
                elif route is not None and route is not previous:
                    routes[(prefix, neighbor)] = route
                assert rib.candidates(prefix) == [
                    (nbr, r) for (pfx, nbr), r in routes.items() if pfx == prefix
                ]
            assert rib.entries() == [(p, n, r) for (p, n), r in routes.items()]
            assert list(rib.prefixes()) == list(dict.fromkeys(p for p, _n in routes))
            for neighbor in NEIGHBORS:
                assert rib.prefixes_from(neighbor) == [
                    p for (p, n) in routes if n == neighbor
                ]
            assert len(rib) == len(routes)

    def test_identical_interned_route_is_not_a_change(self):
        rib = AdjRIBIn()
        prefix = make_prefix(0x0A000000, 8)
        route = make_route(prefix, (2,), 0)
        other = make_prefix(0x0B000000, 8)
        rib.update(prefix, 2, route)
        rib.update(other, 2, make_route(other, (2,), 0))
        assert rib.update(prefix, 2, route) is route
        # No delete+reinsert: the entry keeps its slot ahead of ``other``.
        assert [entry[0] for entry in rib.entries()] == [prefix, other]

    def test_withdrawing_absent_entry_is_a_noop(self):
        rib = AdjRIBIn()
        assert rib.update(make_prefix(0, 8), 2, None) is None
        assert rib.update(P7, 2, None) is None
        assert len(rib) == 0
        assert rib.entries() == [] and list(rib.prefixes()) == []


class TestLocRIBModel:
    def test_random_sequences_match_the_model(self):
        rng = random.Random(23)
        pool = token_pool()
        rib, best = LocRIB(), {}
        for _step in range(400):
            prefix = rng.choice(pool)
            route = None if rng.random() < 0.4 else random_route(rng, prefix)
            changed = route != best.get(prefix)
            assert rib.install(prefix, route) is changed
            if changed and route is None:
                del best[prefix]
            elif changed:
                best[prefix] = route
            assert rib.best(prefix) == best.get(prefix)
        assert rib.entries() == list(best.items())
        assert rib.prefixes() == list(best)
        assert len(rib) == len(best)

    def test_reinstalling_equal_route_reports_no_change(self):
        rib = LocRIB()
        prefix = make_prefix(0x0A000000, 8)
        route = make_route(prefix, (2,), 0)
        assert rib.install(prefix, route)
        assert not rib.install(prefix, route)
        assert not rib.install(P7, None)  # removing an absent prefix
