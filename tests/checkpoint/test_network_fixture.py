"""A release-1.6.0 ``network`` checkpoint with every kind of session state.

``data/per_interface_network.json`` was written mid-flight by release
1.6.0 from a Baseline n=60 run (topology seed 11, simulation seed 13)
under per-interface MRAI 2 s, NO-WRATE, link delay 1 ms and service
times up to 50 ms: stubs 14, 15 and 16 originate host prefixes 0, 1 and
2, 300 events run, the link 14–1 goes down at both ends, stub 15
withdraws prefix 1 and 40 more events run.  The file holds a failed
link, pending MRAI wakeups on many sessions and nodes with messages
waiting behind the one in service.

The node documents of that file are what a node's per-neighbour records
are read from and written back to, so the file must restore, snapshot
to the same node documents and measurement plane, and continue to the
trajectory release 1.6.0 reached.
"""

from pathlib import Path

from repro.bgp.events import MRAIWakeup
from repro.checkpoint import (
    KIND_NETWORK,
    read_checkpoint,
    restore_network,
    snapshot_network,
)
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params
from tests.sim.test_kernel_digests import _digest, counter_state, trajectory_state

PER_INTERFACE_NETWORK = Path(__file__).parent / "data" / "per_interface_network.json"

#: The kernel-digest trajectory document (measurement plane, engine and
#: per-node work counters) release 1.6.0 reached when it continued the
#: file to convergence.
PER_INTERFACE_TRAJECTORY = "97d1063463caeae6298b1dbe529b5f8d2cb7e08955bb691c7f753e25601217a8"

_DOWN_LINK = (14, 1)


def _graph():
    return generate_topology(scenario_params("baseline", 60), seed=11)


def _payload():
    return read_checkpoint(PER_INTERFACE_NETWORK, expected_kind=KIND_NETWORK).payload


def test_the_file_holds_every_kind_of_session_state():
    network = restore_network(_graph(), _payload())
    a, b = _DOWN_LINK
    assert network.node(a).channel(b).down and network.node(b).channel(a).down
    assert any(node.queue_length > 1 for node in network.nodes.values())
    assert any(
        isinstance(callback, MRAIWakeup)
        for _time, _sequence, callback in network.engine.dump_pending()
    )


def test_the_restored_network_writes_the_same_node_documents():
    payload = _payload()
    snapshot = snapshot_network(restore_network(_graph(), payload))
    assert snapshot["nodes"] == payload["nodes"]
    assert snapshot["counter"] == payload["counter"]
    assert snapshot["engine"]["pending"] == payload["engine"]["pending"]


def test_the_file_continues_to_the_recorded_trajectory():
    network = restore_network(_graph(), _payload())
    network.run_to_convergence()
    trajectory = {
        "counter": counter_state(network.counter),
        "network": trajectory_state(network),
    }
    assert _digest(trajectory) == PER_INTERFACE_TRAJECTORY
