"""A node's RNG stream is ``(seed, node_id, draws)`` — and nothing else.

Schema 1.6.0 checkpoints a node's ``random.Random`` as the number of
draws made since seeding (``processed_count + busy + Σ channel.arms``)
plus a fingerprint, and restore replays a freshly seeded generator that
far.  The property: wherever a run is stopped — mid-flood, processors
busy, timers armed, links flapping, damping on — every restored generator's ``getstate()`` equals the
live one, and both continuations end in the same place.  The refusals: a
count or fingerprint that does not match the replayed stream is a
:class:`CheckpointError`, never a quietly different trajectory.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.config import BGPConfig, DampingConfig, MRAIMode
from repro.bgp.node import advance_rng, rng_mark
from repro.checkpoint import restore_network, snapshot_network
from repro.errors import CheckpointError
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params

from tests.checkpoint.test_boundary_record import resume_from_a_tampered_file

P0 = host_prefix(0)

_GRAPH = generate_topology(scenario_params("BASELINE", 40), seed=7)
_STUBS = [n for n in _GRAPH.node_ids if not _GRAPH.customers_of(n)]
#: A transit link to flap: the last stub and its first provider.
_FLAP = (_STUBS[-1], _GRAPH.providers_of(_STUBS[-1])[0])
_DAMPING = DampingConfig(
    enabled=True, suppress_threshold=1.5, reuse_threshold=0.5, half_life=5.0
)


def _config(wrate, mode, damping=True):
    return BGPConfig(
        mrai=2.0,
        wrate=wrate,
        mrai_mode=mode,
        damping=_DAMPING if damping else DampingConfig(),
        link_delay=0.001,
        processing_time_max=0.01,
    )


def _rng_states(network):
    return {nid: node._rng.getstate() for nid, node in network.nodes.items()}


def _step(network, count):
    for _ in range(count):
        if not network.engine.step():
            break


def _set_link(network, up):
    a, b = _FLAP
    for near, far in ((a, b), (b, a)):
        node = network.node(near)
        (node.set_link_up if up else node.set_link_down)(far)


def _flood(network, before_flap, down_for, after_flap):
    """Four announcements, a withdrawal and one link flap, stopped part-way."""
    network.start_counting()
    for index, stub in enumerate((_STUBS[0], _STUBS[-1], _STUBS[1], _STUBS[-2])):
        network.originate(stub, host_prefix(index))
    _step(network, before_flap)
    _set_link(network, up=False)
    _step(network, down_for)
    network.withdraw(_STUBS[0], P0)
    _set_link(network, up=True)
    _step(network, after_flap)


def _assert_same_end(live, restored):
    live.run_to_convergence()
    restored.run_to_convergence()
    assert restored.engine.now == live.engine.now
    assert restored.engine.executed_events == live.engine.executed_events
    assert restored.counter.dump_state() == live.counter.dump_state()
    assert _rng_states(restored) == _rng_states(live)


class TestStreamIsSeedAndDrawCount:
    def test_one_getrandbits_call_equals_that_many_random_calls(self):
        for draws in (0, 1, 311, 312, 313, 5000):
            stepped, jumped = random.Random(99), random.Random(99)
            for _ in range(draws):
                stepped.random()
            advance_rng(jumped, draws)
            assert jumped.getstate() == stepped.getstate()

    def test_a_snapshot_with_every_kind_of_unfinished_business(self):
        live = SimNetwork(_GRAPH, _config(True, MRAIMode.PER_INTERFACE), seed=3)
        _flood(live, 120, 40, 0)
        nodes = live.nodes.values()

        def unfinished():
            return (
                any(node.queue_length > 1 for node in nodes)
                and any(
                    channel.pending_count
                    for node in nodes
                    for channel in node._channels.values()
                )
                and any(
                    channel.wakeup_at is not None
                    for node in nodes
                    for channel in node._channels.values()
                )
            )

        while not unfinished():
            assert live.engine.step(), "flood ended without the wanted state"
        restored = restore_network(
            _GRAPH, json.loads(json.dumps(snapshot_network(live)))
        )
        assert _rng_states(restored) == _rng_states(live)
        _assert_same_end(live, restored)

    @given(
        wrate=st.booleans(),
        mode=st.sampled_from(list(MRAIMode)),
        seed=st.integers(min_value=0, max_value=2**20),
        before_flap=st.integers(min_value=0, max_value=250),
        down_for=st.integers(min_value=0, max_value=100),
        after_flap=st.integers(min_value=0, max_value=250),
    )
    @settings(max_examples=40, deadline=None)
    def test_restored_streams_equal_live_streams(
        self, wrate, mode, seed, before_flap, down_for, after_flap
    ):
        live = SimNetwork(_GRAPH, _config(wrate, mode), seed=seed)
        _flood(live, before_flap, down_for, after_flap)
        payload = json.loads(json.dumps(snapshot_network(live)))
        assert all("rng" not in state for _, state in payload["nodes"])

        restored = restore_network(_GRAPH, payload)
        assert _rng_states(restored) == _rng_states(live)
        assert snapshot_network(restored) == snapshot_network(live)
        _assert_same_end(live, restored)


class TestWrongCountNeverResumes:
    def _payload(self):
        network = SimNetwork(_GRAPH, _config(False, MRAIMode.PER_INTERFACE), seed=3)
        _flood(network, 120, 40, 60)
        return json.loads(json.dumps(snapshot_network(network)))

    def _busiest(self, payload):
        return max(payload["nodes"], key=lambda item: item[1]["rng_draws"])[1]

    @pytest.mark.parametrize("delta", [1, -1, 312, 624])
    def test_tampered_draw_count_is_refused(self, delta):
        payload = self._payload()
        self._busiest(payload)["rng_draws"] += delta
        with pytest.raises(CheckpointError, match="RNG"):
            restore_network(_GRAPH, payload)

    def test_tampered_fingerprint_is_refused(self):
        payload = self._payload()
        self._busiest(payload)["rng_mark"] ^= 1
        with pytest.raises(CheckpointError, match="fingerprint"):
            restore_network(_GRAPH, payload)

    def test_count_that_disagrees_with_the_counters_is_refused(self):
        payload = self._payload()
        state = self._busiest(payload)
        # A consistent stream (count and fingerprint of one more draw) that
        # the node's own counters do not account for.
        probe = SimNetwork(_GRAPH, _config(False, MRAIMode.PER_INTERFACE), seed=3)
        node_id = next(nid for nid, s in payload["nodes"] if s is state)
        stream = probe.node(node_id)._rng
        advance_rng(stream, state["rng_draws"] + 1)
        state["rng_draws"] += 1
        state["rng_mark"] = rng_mark(stream)
        with pytest.raises(CheckpointError, match="account for"):
            restore_network(_GRAPH, payload)

    def test_unit_with_a_wrong_count_is_recomputed_from_scratch(
        self, tmp_path, monkeypatch, capsys
    ):
        # One count off, with a *valid* digest: only the stream check
        # stands between the file and a different trajectory.
        def tamper(payload):
            busiest = max(payload["boundary"]["nodes"], key=lambda row: row[0])
            busiest[0] += 1

        resume_from_a_tampered_file(tmp_path, monkeypatch, capsys, tamper)

    def test_full_snapshot_unit_with_a_wrong_count_is_recomputed_from_scratch(
        self, tmp_path, monkeypatch, capsys
    ):
        def tamper(payload):
            self._busiest(payload["network"])["rng_draws"] += 1

        resume_from_a_tampered_file(tmp_path, monkeypatch, capsys, tamper, full=True)
