"""Whole-network snapshot and restore.

:func:`snapshot_network` captures everything a :class:`SimNetwork`
needs to continue a run — the engine clock and pending event heap, every
node's BGP state and RNG stream, and the measurement plane — as a pure
JSON payload.  :func:`restore_network` rebuilds a live network from the
payload onto the *same* topology (checked by content digest), with the
hard guarantee that the restored network's subsequent execution is
byte-identical to the uninterrupted original.

Checkpoints deliberately do not embed the topology itself: graphs are
regenerated deterministically from ``(scenario, n, seed)`` by the growth
models, so storing them would only bloat the files.  The digest in the
payload makes the "same graph" precondition checkable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.bgp.config import BGPConfig
from repro.bgp.events import build_event, describe_event
from repro.checkpoint.format import gc_paused
from repro.checkpoint.state import (
    counter_state_from_json,
    counter_state_to_json,
    node_state_from_json,
    node_state_to_json,
    topology_digest,
)
from repro.errors import CheckpointError
from repro.sim.network import SimNetwork
from repro.sim.trace import MonitorTrace, TracedUpdate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.graph import ASGraph


@gc_paused()
def snapshot_network(network: SimNetwork) -> dict:
    """Capture a :class:`SimNetwork`'s complete state as a JSON payload.

    Raises :class:`~repro.errors.CheckpointError` if the event heap
    contains a callback outside the describable event vocabulary
    (:mod:`repro.bgp.events`).
    """
    engine = network.engine
    pending = sorted(
        (time, sequence, describe_event(callback))
        for time, sequence, callback in engine.dump_pending()
    )
    if network.topology_digest is None:
        network.topology_digest = topology_digest(network.graph)
    trace = None
    if network.trace is not None:
        trace = {
            "monitors": sorted(network.trace.monitors),
            "updates": [
                [u.time, u.receiver, u.sender, u.is_withdrawal]
                for u in network.trace.updates()
            ],
        }
    return {
        "seed": network.seed,
        "config": network.config.to_dict(),
        "topology": {
            "scenario": network.graph.scenario,
            "n": len(network.graph),
            "digest": network.topology_digest,
        },
        "engine": {
            "now": engine.now,
            "next_sequence": engine.next_sequence,
            "executed_events": engine.executed_events,
            "cancelled_events": engine.cancelled_events,
            "pending": [
                [time, sequence, descriptor]
                for time, sequence, descriptor in pending
            ],
        },
        "delivered_messages": network.delivered_messages,
        "counter": counter_state_to_json(network.counter.dump_state()),
        "trace": trace,
        "nodes": [
            [node_id, node_state_to_json(network.nodes[node_id].checkpoint_state())]
            for node_id in sorted(network.nodes)
        ],
    }


@gc_paused()
def restore_network(graph: "ASGraph", payload: dict) -> SimNetwork:
    """Rebuild a live network from :func:`snapshot_network` output.

    ``graph`` must be the same topology the snapshot was taken from
    (same scenario, size, and structure); a digest mismatch raises
    :class:`~repro.errors.CheckpointError` before any state is touched.
    So does a payload whose pending MRAI wakeups and per-node timer
    records disagree in either direction.
    """
    try:
        topology = payload["topology"]
        engine_state = payload["engine"]
        node_states = payload["nodes"]
        seed = int(payload["seed"])
        config_data = payload["config"]
        delivered = int(payload["delivered_messages"])
        counter_data = payload["counter"]
        trace_data = payload["trace"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed network payload: {exc}") from exc

    digest = topology_digest(graph)
    if digest != topology.get("digest"):
        raise CheckpointError(
            "topology mismatch: checkpoint was taken on "
            f"{topology.get('scenario')!r} n={topology.get('n')} "
            f"(digest {str(topology.get('digest'))[:12]}…), the supplied graph "
            f"is {graph.scenario!r} n={len(graph)} (digest {digest[:12]}…)"
        )

    network = SimNetwork(graph, BGPConfig.from_dict(config_data), seed=seed)
    network.topology_digest = digest

    restored_ids = [node_id for node_id, _ in node_states]
    if restored_ids != graph.node_ids:
        raise CheckpointError(
            "checkpoint node set does not match the topology "
            f"({len(restored_ids)} checkpointed vs {len(graph)} expected)"
        )
    for node_id, state in node_states:
        network.nodes[int(node_id)].restore_state(node_state_from_json(state))

    # Build mutable heap entries so they double as live cancellation
    # handles: the engine adopts these exact list objects, and each node
    # re-attaches the ones that implement its pending timers.
    pending = [
        [float(time), int(sequence), build_event(network, descriptor)]
        for time, sequence, descriptor in engine_state["pending"]
    ]
    network.engine.restore_state(
        now=float(engine_state["now"]),
        next_sequence=int(engine_state["next_sequence"]),
        executed_events=int(engine_state["executed_events"]),
        # Files written before the count was kept read as none cancelled.
        cancelled_events=int(engine_state.get("cancelled_events", 0)),
        pending=pending,
    )
    for entry in pending:
        node = getattr(entry[2], "node", None)
        if node is not None:
            node.adopt_pending_event(entry)
    for node in network.nodes.values():
        node.check_wakeups_adopted()

    network.delivered_messages = delivered
    network.counter.load_state(counter_state_from_json(counter_data))
    network.trace = _restore_trace(trace_data)
    return network


def _restore_trace(trace_data: Optional[dict]) -> Optional[MonitorTrace]:
    if trace_data is None:
        return None
    trace = MonitorTrace(int(m) for m in trace_data["monitors"])
    for time, receiver, sender, is_withdrawal in trace_data["updates"]:
        trace.record(
            float(time),
            int(receiver),
            int(sender),
            is_withdrawal=bool(is_withdrawal),
        )
    return trace
