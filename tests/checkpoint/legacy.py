"""Writers of old checkpoint layouts, kept to test that they still resume.

The 1.3.0–1.5.0 node encoder (1.1.0 and 1.2.0 wrote it too): those releases stored every node's full
``random.Random`` state (625 words) under ``rng`` and wrote every field,
construction defaults and ``None`` wakeups included; channels had no
``arms`` count.  The body of :func:`legacy_node_state_to_json` is the
1.5.0 ``node_state_to_json``.

The full-snapshot sweep-unit layout: every release up to the boundary
record wrote a unit checkpoint as factor sums plus a whole
:func:`snapshot_network` payload (:func:`write_full_snapshot_units`).
"""

import repro.checkpoint.batch as batch_module
from repro.checkpoint.network import snapshot_network
from repro.checkpoint.state import (
    message_to_json,
    path_to_json,
    rng_state_to_json,
    route_to_json,
)
from repro.prefix.prefix import prefix_to_json


def legacy_node_state_to_json(node) -> dict:
    state = node.checkpoint_state()
    return {
        "rng": rng_state_to_json(node._rng.getstate()),
        "busy": state["busy"],
        "in_queue": [message_to_json(m) for m in state["in_queue"]],
        "adj_rib_in": [
            [prefix_to_json(prefix), neighbor, route_to_json(route)]
            for prefix, neighbor, route in state["adj_rib_in"]
        ],
        "loc_rib": [
            [prefix_to_json(prefix), route_to_json(route)]
            for prefix, route in state["loc_rib"]
        ],
        "local_prefixes": [prefix_to_json(p) for p in state["local_prefixes"]],
        "channels": [
            [
                neighbor,
                {
                    "sent": [
                        [prefix_to_json(prefix), path_to_json(target)]
                        for prefix, target in channel["sent"].items()
                    ],
                    "pending": [
                        [prefix_to_json(prefix), path_to_json(target)]
                        for prefix, target in channel["pending"].items()
                    ],
                    "interface_gate": channel["interface_gate"],
                    "prefix_gates": list(
                        [prefix_to_json(prefix), gate]
                        for prefix, gate in channel["prefix_gates"].items()
                    ),
                },
            ]
            for neighbor, channel in state["channels"].items()
        ],
        "wakeup_at": [[n, at] for n, at in state["wakeup_at"].items()],
        "down_neighbors": list(state["down_neighbors"]),
        "damper": [
            [neighbor, prefix_to_json(prefix), penalty, last, suppressed]
            for neighbor, prefix, penalty, last, suppressed in state["damper"]
        ],
        "processed_count": state["processed_count"],
        "busy_time": state["busy_time"],
        "service_delay": state["service_delay"],
        "max_queue_length": state["max_queue_length"],
        "best_change_count": [
            [prefix_to_json(prefix), count]
            for prefix, count in state["best_change_count"].items()
        ],
        "decisions_run": state["decisions_run"],
        "decisions_skipped": state["decisions_skipped"],
    }


def legacy_snapshot_network(network) -> dict:
    """:func:`snapshot_network` as 1.5.0 wrote it (drop-in for monkeypatching)."""
    payload = snapshot_network(network)
    payload["nodes"] = [
        [node_id, legacy_node_state_to_json(network.nodes[node_id])]
        for node_id in sorted(network.nodes)
    ]
    return payload


def write_full_snapshot_units(monkeypatch, snapshot=snapshot_network) -> None:
    """Make sweep units checkpoint as the full-snapshot layout.

    Every network then looks like one the boundary record cannot
    express, so the writer falls back to ``raw`` + ``network`` — the
    layout 1.6.0 wrote for every unit — with ``snapshot`` as the network
    encoder (:func:`legacy_snapshot_network` for a 1.5.0 file).
    """
    monkeypatch.setattr(batch_module, "boundary_record", lambda network: None)
    monkeypatch.setattr(batch_module, "snapshot_network", snapshot)
