"""Checkpoint coverage for prefix tokens (schema 1.3.0).

Two directions:

* a run using :class:`Prefix` tokens must round-trip byte-identically
  (tokens come back as the *same interned objects*);
* the bare-int tokens of a file written by releases 1.3.0-1.6.0 restore
  as host prefixes and continue on the file's trajectory, a malformed
  token is refused, and so is a document without the per-node decision
  counters (the 1.2.0 layout, older than any restorable release).
"""

import json
from pathlib import Path

import pytest

from repro.bgp.config import BGPConfig
from repro.checkpoint import (
    KIND_NETWORK,
    read_checkpoint,
    restore_network,
    snapshot_network,
)
from repro.checkpoint.state import node_state_from_json
from repro.core.prefix_churn import loc_rib_digest
from repro.errors import CheckpointError, SerializationError
from repro.prefix.prefix import Prefix, host_prefix, make_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params
from tests.sim.test_kernel_digests import _digest, counter_state, trajectory_state

FAST = dict(link_delay=0.001, processing_time_max=0.01)

#: A release-1.6.0 ``network`` checkpoint taken mid-flight from a run with
#: bare-int prefix tokens: Baseline n=60 (topology seed 11), WRATE,
#: per-prefix MRAI 2 s, damping on, simulation seed 12; stubs 14, 15, 16
#: originate tokens 0, 1, 2, 300 events run, stub 14 withdraws token 0,
#: 40 more run.  71 events are pending (deliveries, MRAI wakeups).
INT_TOKEN_NETWORK = Path(__file__).parent / "data" / "int_token_network.json"

#: What release 1.6.0 reached when it continued that file to convergence:
#: the kernel-digest trajectory document (measurement plane, engine and
#: per-node work counters) of the continued network.
INT_TOKEN_TRAJECTORY = "cd863a84dcd070cefe765602fa0b0e4b399e8cf53f54aafae310ea32a3d34de3"


def _build(*, seed=11):
    graph = generate_topology(scenario_params("baseline", 60), seed=seed)
    network = SimNetwork(graph, BGPConfig(mrai=2.0, **FAST), seed=seed + 1)
    return graph, network


def _full_state(network):
    return {
        "now": network.engine.now,
        "executed": network.engine.executed_events,
        "nodes": {
            nid: node.checkpoint_state() for nid, node in network.nodes.items()
        },
    }


def _continue_int_token_file():
    graph = generate_topology(scenario_params("baseline", 60), seed=11)
    payload = read_checkpoint(INT_TOKEN_NETWORK, expected_kind=KIND_NETWORK).payload
    network = restore_network(graph, payload)
    network.run_to_convergence()
    return network


def _drive_prefix_run(network, prefixes):
    stubs = [
        nid
        for nid in network.graph.node_ids
        if not network.graph.customers_of(nid)
    ]
    network.start_counting()
    for stub, prefix in zip(stubs, prefixes):
        network.originate(stub, prefix)
    for _ in range(250):
        if not network.engine.step():
            break
    # Keep updates in flight so queued messages carry Prefix tokens too.
    network.withdraw(stubs[0], prefixes[0])
    for _ in range(10):
        network.engine.step()
    return stubs


class TestPrefixTokenRoundTrip:
    PREFIXES = [
        Prefix.parse("10.0.0.0/16"),
        Prefix.parse("10.1.0.0/16"),
        Prefix.parse("192.168.0.0/24"),
    ]

    def test_snapshot_restore_is_byte_identical(self):
        graph, reference = _build()
        _drive_prefix_run(reference, self.PREFIXES)
        payload = json.loads(json.dumps(snapshot_network(reference)))
        restored = restore_network(graph, payload)
        assert _full_state(restored) == _full_state(reference)
        reference.run_to_convergence()
        restored.run_to_convergence()
        assert _full_state(restored) == _full_state(reference)

    def test_restored_tokens_are_interned_prefixes(self):
        graph, network = _build()
        _drive_prefix_run(network, self.PREFIXES)
        restored = restore_network(
            graph, json.loads(json.dumps(snapshot_network(network)))
        )
        restored.run_to_convergence()
        seen = {
            prefix
            for node in restored.nodes.values()
            for prefix, _route in node.loc_rib.entries()
        }
        assert self.PREFIXES[1] in seen
        for prefix in seen:
            # identity, not mere equality: deserialization must intern
            assert prefix is make_prefix(prefix.addr, prefix.length)

    def test_a_named_rib_backend_restores_as_the_one_rib(self):
        # Documents written while a second (radix) RIB backend shipped may
        # carry its name; both values ran the same computation.
        graph, reference = _build()
        _drive_prefix_run(reference, self.PREFIXES)
        payload = json.loads(json.dumps(snapshot_network(reference)))
        legacy = json.loads(json.dumps(payload))
        legacy["config"]["rib_backend"] = "radix"
        restored = restore_network(graph, payload)
        from_legacy = restore_network(graph, legacy)
        restored.run_to_convergence()
        from_legacy.run_to_convergence()
        assert loc_rib_digest(from_legacy) == loc_rib_digest(restored)
        assert _full_state(from_legacy) == _full_state(restored)

    def test_an_unknown_rib_backend_is_refused(self):
        graph, network = _build()
        _drive_prefix_run(network, self.PREFIXES)
        payload = json.loads(json.dumps(snapshot_network(network)))
        payload["config"]["rib_backend"] = "btree"
        with pytest.raises(SerializationError, match="rib_backend"):
            restore_network(graph, payload)


class TestIntPrefixMigration:
    def _int_token_node_document(self):
        """A node state, with learned routes, of the int-token file."""
        payload = read_checkpoint(INT_TOKEN_NETWORK).payload
        document = next(
            state
            for _node_id, state in payload["nodes"]
            if state.get("adj_rib_in") and state.get("loc_rib")
        )
        return json.loads(json.dumps(document))

    @pytest.mark.parametrize("counter", ["decisions_run", "decisions_skipped"])
    def test_counterless_node_document_is_refused(self, counter):
        document = self._int_token_node_document()
        del document[counter]
        with pytest.raises(CheckpointError, match=counter):
            node_state_from_json(document)

    def test_int_tokens_restore_as_host_prefixes(self):
        document = self._int_token_node_document()
        written = [entry[0] for entry in document["adj_rib_in"] + document["loc_rib"]]
        assert written and all(type(token) is int for token in written)
        state = node_state_from_json(document)
        restored = [prefix for prefix, _n, _r in state["adj_rib_in"]]
        restored += [prefix for prefix, _r in state["loc_rib"]]
        assert restored == [host_prefix(token) for token in written]
        assert all(prefix is host_prefix(prefix.addr) for prefix in restored)

    def test_int_token_file_continues_on_its_trajectory(self):
        network = _continue_int_token_file()
        trajectory = {
            "counter": counter_state(network.counter),
            "network": trajectory_state(network),
        }
        assert _digest(trajectory) == INT_TOKEN_TRAJECTORY
        assert all(
            isinstance(prefix, Prefix)
            for node in network.nodes.values()
            for prefix in node.best_change_count
        )

    @pytest.mark.parametrize("token", ["5", 5.7, True, -1, [1.9, 32]], ids=repr)
    def test_a_malformed_token_is_refused(self, token):
        graph = generate_topology(scenario_params("baseline", 60), seed=11)
        payload = read_checkpoint(INT_TOKEN_NETWORK).payload
        state = next(state for _id, state in payload["nodes"] if state.get("loc_rib"))
        state["loc_rib"][0][0] = token
        with pytest.raises(CheckpointError, match="malformed"):
            restore_network(graph, payload)

    def test_network_restore_refuses_a_counterless_payload(self):
        graph, network = _build()
        stub = [
            nid for nid in graph.node_ids if not graph.customers_of(nid)
        ][0]
        network.originate(stub, host_prefix(0))
        for _ in range(120):
            network.engine.step()
        payload = json.loads(json.dumps(snapshot_network(network)))
        del payload["nodes"][0][1]["decisions_run"]
        with pytest.raises(CheckpointError, match="malformed node state"):
            restore_network(graph, payload)
