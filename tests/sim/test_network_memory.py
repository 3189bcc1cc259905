"""What a simulated node holds: one record per neighbour, nothing idle.

A network of n ASes holds n nodes, so every structure a node keeps for
nothing is paid n times by every sweep unit.  A node keeps one
``OutputChannel`` per neighbour as its only session record, a queue only
while messages wait behind the one in service, and no damping or
per-prefix MRAI state when the config turns those off.
"""

import gc
import tracemalloc

from repro.bgp.config import BGPConfig, DampingConfig, MRAIMode
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params

#: Traced bytes per node of a built Baseline n=400 network, 2.5 kB of it
#: the Mersenne-Twister state: 4 859 / 4 717 / 4 700 B on CPython 3.10.13 /
#: 3.11.2 / 3.12.1, against 7 064 / 7 216 / 7 183 B before the node kept one
#: record per neighbour.  The bound sits about halfway between, so object
#: sizes may move with the interpreter and every removed structure is
#: still caught.
BYTES_PER_NODE_BOUND = 6_000

_GRAPH = generate_topology(baseline_params(400), seed=3)


def _flood(network):
    """Three stubs announce at once, so queues build up, then converge."""
    stubs = [n for n in _GRAPH.node_ids if not _GRAPH.customers_of(n)]
    for index, stub in enumerate(stubs[:3]):
        network.originate(stub, host_prefix(index))
    network.run_to_convergence()


def test_a_built_node_stays_under_the_bound():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        network = SimNetwork(_GRAPH, BGPConfig(), seed=3)
        per_node = (tracemalloc.get_traced_memory()[0] - before) / len(network.nodes)
    finally:
        tracemalloc.stop()
    assert per_node < BYTES_PER_NODE_BOUND, f"{per_node:.0f} B per node"


def test_a_converged_network_holds_no_in_queue_buffer():
    network = SimNetwork(_GRAPH, BGPConfig(), seed=3)
    _flood(network)
    assert max(node.max_queue_length for node in network.nodes.values()) > 1
    for node in network.nodes.values():
        assert node.queue_length == 0
        assert node._in_service is None and node._waiting is None


def test_damping_off_holds_no_damper_state():
    network = SimNetwork(_GRAPH, BGPConfig(), seed=3)
    _flood(network)
    for node in network.nodes.values():
        assert node._damper is None and node._reuse_pending is None
    damped = SimNetwork(_GRAPH, BGPConfig(damping=DampingConfig(enabled=True)), seed=3)
    assert all(node._damper is not None for node in damped.nodes.values())


def test_per_interface_mrai_holds_no_per_prefix_gates():
    per_interface = SimNetwork(_GRAPH, BGPConfig(), seed=3)
    assert per_interface.config.mrai_mode is MRAIMode.PER_INTERFACE
    per_prefix = SimNetwork(
        _GRAPH, BGPConfig(mrai_mode=MRAIMode.PER_PREFIX), seed=3
    )
    for network, gates_expected in ((per_interface, False), (per_prefix, True)):
        for node in network.nodes.values():
            for neighbor in _GRAPH.neighbors(node.node_id):
                gates = node.channel(neighbor)._prefix_gates
                assert (gates is not None) is gates_expected
