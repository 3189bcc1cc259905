"""Byte-identity of network snapshot/restore.

The subsystem's hard guarantee: interrupting a simulation at an arbitrary
event boundary, serializing everything through JSON, restoring onto a
freshly generated copy of the topology and continuing produces *exactly*
the state an uninterrupted run reaches — same clock, same counters, same
RIBs, same RNG streams.
"""

import json

import pytest

from repro.bgp.config import BGPConfig
from repro.checkpoint import restore_network, snapshot_network
from repro.errors import CheckpointError
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params

P0, P1 = host_prefix(0), host_prefix(1)

FAST = dict(link_delay=0.001, processing_time_max=0.01)

#: The acceptance grid: three (scenario, n, config) combinations covering
#: rate limiting on/off, WRATE, and a non-default growth model.
COMBOS = [
    pytest.param("baseline", 60, BGPConfig(mrai=2.0, **FAST), id="baseline-mrai"),
    pytest.param("baseline", 80, BGPConfig(mrai=0.0, **FAST), id="baseline-nolimit"),
    pytest.param(
        "dense-core",
        70,
        BGPConfig(mrai=2.0, wrate=True, **FAST),
        id="dense-core-wrate",
    ),
]


def _build(scenario, n, config, *, seed=11):
    graph = generate_topology(scenario_params(scenario, n), seed=seed)
    return graph, SimNetwork(graph, config, seed=seed + 1)


def _drive(network, *, steps):
    """Originate + withdraw at two stubs and execute ``steps`` events."""
    stubs = [nid for nid in network.graph.node_ids if not network.graph.customers_of(nid)]
    network.start_counting()
    network.originate(stubs[-1], P0)
    network.originate(stubs[0], P1)
    executed = 0
    while executed < steps and network.engine.step():
        executed += 1
    if network.engine.pending_events == 0:
        # Keep some events in flight so the snapshot exercises the heap.
        network.withdraw(stubs[-1], P0)
        for _ in range(min(steps, 10)):
            network.engine.step()


def _full_state(network):
    """Everything the byte-identity contract covers."""
    return {
        "now": network.engine.now,
        "executed": network.engine.executed_events,
        "cancelled": network.engine.cancelled_events,
        "next_sequence": network.engine.next_sequence,
        "delivered": network.delivered_messages,
        "counter": network.counter.dump_state(),
        "nodes": {
            nid: node.checkpoint_state() for nid, node in network.nodes.items()
        },
    }


class TestRoundTrip:
    @pytest.mark.parametrize("scenario, n, config", COMBOS)
    def test_restore_then_run_is_byte_identical(self, scenario, n, config):
        graph, reference = _build(scenario, n, config)
        _drive(reference, steps=200)

        # Snapshot mid-flight, force a real JSON round trip, restore onto
        # a *separately generated* copy of the same topology.
        payload = json.loads(json.dumps(snapshot_network(reference)))
        graph2 = generate_topology(
            scenario_params(scenario, n), seed=11
        )
        restored = restore_network(graph2, payload)
        assert _full_state(restored) == _full_state(reference)

        # The crux: both continue to convergence and stay identical.
        reference.run_to_convergence()
        restored.run_to_convergence()
        assert _full_state(restored) == _full_state(reference)

    @pytest.mark.parametrize("scenario, n, config", COMBOS)
    def test_snapshot_is_pure_json(self, scenario, n, config):
        _, network = _build(scenario, n, config)
        _drive(network, steps=100)
        blob = json.dumps(snapshot_network(network), sort_keys=True)
        assert json.loads(blob) == json.loads(blob)  # round-trips stably

    def test_cancellation_count_survives(self):
        # Restored mid-flight, the run ends on the uninterrupted run's
        # count, not on the cancellations made after the restore.
        graph, reference = _build("baseline", 60, BGPConfig(mrai=2.0, **FAST))
        _drive(reference, steps=200)
        # A failed session cancels its pending MRAI wakeup.
        node, neighbor = next(
            (node, neighbor)
            for node in reference.nodes.values()
            for neighbor in graph.neighbors(node.node_id)
            if node.channel(neighbor).wakeup_at is not None
        )
        node.set_link_down(neighbor)
        reference.node(neighbor).set_link_down(node.node_id)
        cancelled_before = reference.engine.cancelled_events
        assert cancelled_before > 0 and reference.engine.pending_events
        payload = json.loads(json.dumps(snapshot_network(reference)))
        restored = restore_network(graph, payload)
        assert restored.engine.cancelled_events == cancelled_before
        reference.run_to_convergence()
        restored.run_to_convergence()
        assert restored.engine.cancelled_events == reference.engine.cancelled_events

    def test_a_file_without_the_cancellation_count_reads_as_none(self):
        graph, network = _build("baseline", 60, BGPConfig(mrai=2.0, **FAST))
        _drive(network, steps=200)
        payload = json.loads(json.dumps(snapshot_network(network)))
        del payload["engine"]["cancelled_events"]
        assert restore_network(graph, payload).engine.cancelled_events == 0

    def test_final_rib_contents_survive(self):
        graph, network = _build("baseline", 60, BGPConfig(mrai=2.0, **FAST))
        _drive(network, steps=150)
        payload = snapshot_network(network)
        restored = restore_network(graph, payload)
        restored.run_to_convergence()
        network.run_to_convergence()
        for nid in graph.node_ids:
            a, b = network.nodes[nid], restored.nodes[nid]
            assert a.adj_rib_in.entries() == b.adj_rib_in.entries()
            assert a.loc_rib.entries() == b.loc_rib.entries()


class TestTraceAndDamping:
    def test_monitor_trace_survives(self):
        graph, network = _build("baseline", 60, BGPConfig(mrai=2.0, **FAST))
        monitors = graph.node_ids[:3]
        network.attach_monitors(list(monitors))
        _drive(network, steps=150)
        restored = restore_network(graph, snapshot_network(network))
        assert restored.trace is not None
        assert restored.trace.monitors == network.trace.monitors
        assert restored.trace.updates() == network.trace.updates()

    def test_damping_events_round_trip(self):
        from repro.bgp.config import DampingConfig

        config = BGPConfig(
            mrai=2.0,
            damping=DampingConfig(
                enabled=True, suppress_threshold=1.5, reuse_threshold=0.5,
                half_life=5.0,
            ),
            **FAST,
        )
        graph, network = _build("baseline", 60, config)
        stub = [n for n in graph.node_ids if not graph.customers_of(n)][-1]
        network.originate(stub, P0)
        network.run_to_convergence()
        # Flap to build damping penalties and schedule reuse checks.
        for _ in range(3):
            network.withdraw(stub, P0)
            for _ in range(30):
                network.engine.step()
            network.originate(stub, P0)
            for _ in range(30):
                network.engine.step()
        restored = restore_network(graph, snapshot_network(network))
        network.run_to_convergence()
        restored.run_to_convergence()
        assert _full_state(restored) == _full_state(network)


class TestRestoreValidation:
    def test_wrong_topology_rejected(self):
        _, network = _build("baseline", 60, BGPConfig(mrai=2.0, **FAST))
        other = generate_topology(scenario_params("baseline", 60), seed=99)
        with pytest.raises(CheckpointError, match="topology mismatch"):
            restore_network(other, snapshot_network(network))

    def test_opaque_event_refused(self):
        _, network = _build("baseline", 60, BGPConfig(mrai=2.0, **FAST))
        network.engine.schedule(1.0, lambda: None)
        with pytest.raises(CheckpointError, match="opaque event callback"):
            snapshot_network(network)

    def test_unknown_event_kind_refused(self):
        graph, network = _build("baseline", 60, BGPConfig(mrai=2.0, **FAST))
        _drive(network, steps=50)
        payload = snapshot_network(network)
        assert payload["engine"]["pending"], "snapshot should have queued events"
        payload["engine"]["pending"][0][2][0] = "from-the-future"
        with pytest.raises(CheckpointError, match="unknown event kind"):
            restore_network(graph, payload)

    def test_malformed_payload_rejected(self):
        graph, network = _build("baseline", 60, BGPConfig(mrai=2.0, **FAST))
        payload = snapshot_network(network)
        del payload["engine"]
        with pytest.raises(CheckpointError, match="malformed network payload"):
            restore_network(graph, payload)


class TestWakeupConsistency:
    """A restored MRAI wakeup is exactly its channel's timer record."""

    def _payload(self):
        graph, network = _build("baseline", 60, BGPConfig(mrai=2.0, **FAST))
        _drive(network, steps=200)
        payload = json.loads(json.dumps(snapshot_network(network)))
        wakeups = [
            entry
            for entry in payload["engine"]["pending"]
            if entry[2][0] == "mrai-wakeup"
        ]
        assert wakeups, "the snapshot should hold pending MRAI wakeups"
        return graph, payload, wakeups[0]

    def test_consistent_payload_restores(self):
        graph, payload, _wakeup = self._payload()
        restore_network(graph, payload).run_to_convergence()

    def test_wakeup_at_another_time_refused(self):
        graph, payload, wakeup = self._payload()
        wakeup[2][3] += 1.0  # descriptor: [kind, node, neighbor, at]
        with pytest.raises(CheckpointError, match="does not match its timer"):
            restore_network(graph, payload)

    def test_timer_record_without_pending_wakeup_refused(self):
        graph, payload, wakeup = self._payload()
        payload["engine"]["pending"].remove(wakeup)
        with pytest.raises(CheckpointError, match="no wakeup is pending"):
            restore_network(graph, payload)
