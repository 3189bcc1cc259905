"""Tests for the fast-path kernel: interning, memoized preference keys,
incremental decisions, and supersession of timer events.

These pin the two contracts the optimizations must keep:

* **semantic identity** — the incremental decision process and the
  memoized keys must select exactly what the full scan selects;
* **event economy** — superseded MRAI wakeups and duplicate damping
  reuse checks must leave the heap instead of executing as no-ops.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.config import BGPConfig, DampingConfig, MRAIMode
from repro.bgp.decision import select_best
from repro.bgp.events import DampingReuseCheck, MRAIWakeup
from repro.bgp.node import BGPNode
from repro.bgp.route import (
    Route,
    best_route,
    clear_intern_caches,
    import_route,
    intern_path,
    stable_hash,
)
from repro.prefix.prefix import host_prefix
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType, Relationship

P0, P3, P7 = map(host_prefix, (0, 3, 7))

FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


def _make_node(engine, config=FAST, neighbors=None, sent=None):
    sent = [] if sent is None else sent
    return BGPNode(
        node_id=1,
        node_type=NodeType.C,
        neighbors=neighbors or {2: Relationship.PEER, 3: Relationship.PROVIDER},
        engine=engine,
        config=config,
        rng=random.Random(0),
        transmit=lambda message, at: sent.append(message),
    )


class TestRouteInterning:
    def test_import_route_returns_shared_object(self):
        clear_intern_caches()
        a = import_route(P0, (2, 5, 9), Relationship.PEER)
        b = import_route(P0, (2, 5, 9), Relationship.PEER)
        assert a is b

    def test_paths_are_shared_across_routes(self):
        clear_intern_caches()
        a = Route(prefix=P0, path=(1, 2, 3), local_pref=10)
        b = Route(prefix=P7, path=(1, 2, 3), local_pref=20)
        assert a.path is b.path

    def test_route_is_frozen(self):
        route = Route(prefix=P0, path=(1, 2), local_pref=5)
        with pytest.raises(Exception):
            route.prefix = P7
        with pytest.raises(Exception):
            del route.path

    def test_equality_and_hash_ignore_key_cache(self):
        a = Route(prefix=P0, path=(1, 2), local_pref=5)
        b = Route(prefix=P0, path=(1, 2), local_pref=5)
        a.preference_key(7)  # warm one cache, not the other
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)

    def test_pickle_round_trip_drops_cache(self):
        import pickle

        route = Route(prefix=P3, path=(4, 5), local_pref=90)
        route.preference_key(11)
        clone = pickle.loads(pickle.dumps(route))
        assert clone == route
        assert clone.preference_key(11) == route.preference_key(11)

    def test_intern_cap_clears_instead_of_growing(self):
        from repro.bgp import route as route_mod

        clear_intern_caches()
        original = route_mod._INTERN_CAP
        route_mod._INTERN_CAP = 8
        try:
            for i in range(20):
                intern_path((i, i + 1))
            assert len(route_mod._PATH_INTERN) <= 8
        finally:
            route_mod._INTERN_CAP = original
            clear_intern_caches()


class TestPreferenceKeyMemo:
    @given(
        path=st.lists(st.integers(min_value=0, max_value=2**32), max_size=12),
        receiver=st.integers(min_value=0, max_value=2**32),
        local_pref=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_memoized_key_matches_fresh_computation(self, path, receiver, local_pref):
        route = Route(prefix=P0, path=tuple(path), local_pref=local_pref)
        expected = (-local_pref, len(path), stable_hash(receiver, *path))
        assert route.preference_key(receiver) == expected
        # Second call must serve the memo and stay identical.
        assert route.preference_key(receiver) == expected

    @given(
        path=st.lists(st.integers(min_value=0, max_value=2**16), max_size=8),
        receivers=st.lists(
            st.integers(min_value=0, max_value=2**16), min_size=2, max_size=5
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_per_receiver_caches_are_independent(self, path, receivers):
        route = Route(prefix=P0, path=tuple(path), local_pref=50)
        fresh = Route(prefix=P0, path=tuple(path), local_pref=50)
        for receiver in receivers:
            assert route.preference_key(receiver) == fresh.preference_key(receiver)


class TestIncrementalDecision:
    """The incremental decision must match the full scan event-for-event."""

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=5),  # neighbor
                st.one_of(
                    st.none(),
                    st.lists(
                        st.integers(min_value=6, max_value=12),
                        min_size=1,
                        max_size=4,
                    ),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_scan_over_random_update_sequences(self, ops):
        engine = Engine()
        neighbors = {n: Relationship.PEER for n in range(2, 6)}
        node = _make_node(engine, neighbors=neighbors)
        for neighbor, tail in ops:
            previous = node.adj_rib_in.route_from(P0, neighbor)
            if tail is None:
                route = None
            else:
                route = import_route(P0, (neighbor, *tail), Relationship.PEER)
            node.adj_rib_in.update(P0, neighbor, route)
            node._run_decision_incremental(P0, previous, route, engine.now)
            reference = select_best(node.node_id, node._candidates(P0, engine.now))
            assert node.loc_rib.best(P0) == reference

    def test_replacing_best_with_worse_route_falls_back_to_scan(self):
        engine = Engine()
        node = _make_node(engine)
        good = import_route(P0, (2, 9), Relationship.PEER)
        backup = import_route(P0, (3, 8, 9), Relationship.PROVIDER)
        node.adj_rib_in.update(P0, 2, good)
        node._run_decision_incremental(P0, None, good, 0.0)
        node.adj_rib_in.update(P0, 3, backup)
        node._run_decision_incremental(P0, None, backup, 0.0)
        assert node.loc_rib.best(P0) == good
        # Replace the installed best with a longer (worse) path: the
        # backup route must take over, exactly as a full scan would pick.
        worse = import_route(P0, (2, 7, 8, 9), Relationship.PEER)
        node.adj_rib_in.update(P0, 2, worse)
        node._run_decision_incremental(P0, good, worse, 0.0)
        assert node.loc_rib.best(P0) == select_best(
            node.node_id, node._candidates(P0, 0.0)
        )

    def test_withdrawing_non_best_changes_nothing(self):
        engine = Engine()
        node = _make_node(engine)
        good = import_route(P0, (2, 9), Relationship.PEER)
        backup = import_route(P0, (3, 8, 9), Relationship.PROVIDER)
        node.adj_rib_in.update(P0, 2, good)
        node._run_decision_incremental(P0, None, good, 0.0)
        node.adj_rib_in.update(P0, 3, backup)
        node._run_decision_incremental(P0, None, backup, 0.0)
        changes_before = node.best_change_count.get(P0, 0)
        node.adj_rib_in.update(P0, 3, None)
        node._run_decision_incremental(P0, backup, None, 0.0)
        assert node.loc_rib.best(P0) == good
        assert node.best_change_count.get(P0, 0) == changes_before

    def test_best_route_helper_unchanged_semantics(self):
        routes = [
            import_route(P0, (2, 5), Relationship.PEER),
            import_route(P0, (3, 5), Relationship.PEER),
            import_route(P0, (4, 5), Relationship.CUSTOMER),
        ]
        assert best_route(routes, 1) == select_best(1, routes)


class TestStaleWakeupSupersession:
    def test_pending_events_stay_bounded_within_one_mrai_interval(self):
        """Regression: repeated superseding re-schedules must not bloat
        the heap — exactly one live wakeup per neighbour at any time."""
        engine = Engine()
        node = _make_node(engine, neighbors={2: Relationship.PEER})
        for i in range(100):
            node._schedule_wakeup(2, 50.0 - i * 0.1)
            assert engine.pending_events == 1
        engine.run()
        assert engine.executed_events == 1
        assert engine.cancelled_events == 99

    def test_equal_or_later_wakeup_is_ignored(self):
        engine = Engine()
        node = _make_node(engine, neighbors={2: Relationship.PEER})
        node._schedule_wakeup(2, 10.0)
        node._schedule_wakeup(2, 10.0)
        node._schedule_wakeup(2, 12.0)
        assert engine.pending_events == 1
        assert engine.cancelled_events == 0

    def test_link_down_cancels_pending_wakeup(self):
        engine = Engine()
        node = _make_node(engine, neighbors={2: Relationship.PEER})
        node._schedule_wakeup(2, 10.0)
        node.set_link_down(2)
        assert engine.pending_events == 0
        engine.run()
        assert engine.executed_events == 0

    def test_per_prefix_churn_cancels_instead_of_executing_noops(self):
        """Full-stack: per-prefix WRATE churn produces superseded wakeups,
        and the new kernel cancels them rather than executing no-ops."""
        config = BGPConfig(
            mrai=2.0,
            wrate=True,
            mrai_mode=MRAIMode.PER_PREFIX,
            link_delay=0.001,
            processing_time_max=0.01,
        )
        graph = generate_topology(baseline_params(100), seed=6)
        network = SimNetwork(graph, config, seed=6)
        stubs = [n for n in graph.node_ids if not graph.customers_of(n)]
        for index, origin in enumerate(stubs[:3]):
            network.originate(origin, host_prefix(index))
        network.run_to_convergence()
        for index, origin in enumerate(stubs[:3]):
            network.withdraw(origin, host_prefix(index))
        network.run_to_convergence()
        assert network.engine.cancelled_events > 0
        assert network.engine.pending_events == 0


class TestReuseCheckDedupe:
    # A long half-life keeps penalties from decaying between flap rounds,
    # so every node on the propagation path reliably crosses the
    # suppress threshold (withdrawal 1.0 + readvertisement 0.5 > 1.2).
    DAMPING = BGPConfig(
        mrai=2.0,
        link_delay=0.001,
        processing_time_max=0.01,
        damping=DampingConfig(
            enabled=True,
            suppress_threshold=1.2,
            reuse_threshold=0.5,
            half_life=60.0,
        ),
    )

    def _flap(self, network, origin, times):
        # Bounded windows, NOT run_to_convergence: draining the queue
        # would also execute every chained reuse check, clearing the
        # very suppression state the tests need to observe.
        for _ in range(times):
            network.withdraw(origin, P0)
            network.engine.run(until=network.engine.now + 3.0)
            network.originate(origin, P0)
            network.engine.run(until=network.engine.now + 3.0)

    def test_at_most_one_pending_reuse_check_per_node_and_prefix(self):
        graph = generate_topology(baseline_params(80), seed=8)
        network = SimNetwork(graph, self.DAMPING, seed=8)
        origin = [n for n in graph.node_ids if not graph.customers_of(n)][0]
        network.originate(origin, P0)
        network.run_to_convergence()
        self._flap(network, origin, 3)
        keys = [
            (callback.node.node_id, callback.prefix)
            for _, _, callback in network.engine.dump_pending()
            if isinstance(callback, DampingReuseCheck)
        ]
        assert keys, "scenario never scheduled a reuse check"
        assert len(keys) == len(set(keys)), "duplicate reuse checks queued"

    def test_suppressed_route_recovers_after_flaps_stop(self):
        graph = generate_topology(baseline_params(80), seed=8)
        network = SimNetwork(graph, self.DAMPING, seed=8)
        origin = [n for n in graph.node_ids if not graph.customers_of(n)][0]
        network.originate(origin, P0)
        network.run_to_convergence()
        self._flap(network, origin, 3)
        suppressed_nodes = [
            node
            for node in network.nodes.values()
            if any(record[4] for record in node._damper.dump_state())
        ]
        assert suppressed_nodes, "flapping never suppressed anything"
        # With the origin stable, the chained reuse checks must eventually
        # clear every suppression and restore the route everywhere.
        network.run_to_convergence()
        for node in suppressed_nodes:
            assert not any(record[4] for record in node._damper.dump_state())
            assert node.loc_rib.best(P0) is not None


class TestAdoptedHandles:
    def test_restored_wakeup_entry_is_cancellable(self):
        """After a checkpoint restore the node must regain a live handle
        for its pending wakeup (supersession keeps working)."""
        import json

        from repro.checkpoint import restore_network, snapshot_network

        config = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)
        graph = generate_topology(baseline_params(60), seed=11)
        network = SimNetwork(graph, config, seed=11)
        stub = [n for n in graph.node_ids if not graph.customers_of(n)][-1]
        network.originate(stub, P0)
        for _ in range(150):
            if not network.engine.step():
                break
        payload = json.loads(json.dumps(snapshot_network(network)))
        restored = restore_network(graph, payload)
        adopted = 0
        for node in restored.nodes.values():
            for channel in node._channels.values():
                at = channel.wakeup_at
                if at is None:
                    continue
                entry = channel.wakeup_handle
                assert entry is not None, "pending wakeup has no live handle"
                assert entry[0] == at and isinstance(entry[2], MRAIWakeup)
                adopted += 1
        assert adopted > 0, "scenario left no pending wakeups to adopt"
