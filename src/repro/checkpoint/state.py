"""Converters between live simulator state and JSON-primitive payloads.

:mod:`repro.bgp.node` and friends expose their mutable state as live
Python objects (routes, messages) via
``checkpoint_state``/``restore_state``; this module maps those to and
from pure JSON primitives for the on-disk format.  Every dict is
serialized as a list of pairs *in insertion order* — the simulator's
float summations and decision tie-breaks iterate dicts, so a restored
run must replay the exact insertion history, not just the same
key/value sets.

Schema 1.6.0 writes a node's RNG stream as ``rng_draws``/``rng_mark``
(a count and a fingerprint, not 625 state words) and leaves out every
field that still holds its construction default, so a snapshot taken at
a quiescent C-event boundary is mostly RIB, gate and counter data.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from repro.bgp.messages import UpdateMessage
from repro.bgp.route import Route, intern_path, make_route
from repro.errors import CheckpointError
from repro.files import sha256
from repro.prefix.prefix import prefix_from_json, prefix_to_json
from repro.topology.graph import ASGraph
from repro.topology.types import Relationship


# ----------------------------------------------------------------------
# Scalars and small records
# ----------------------------------------------------------------------
#: The ``random.Random`` state version the full-state layout was written
#: with; its third field (the cached ``gauss`` value) is always null, as
#: no node draws ``gauss()``.
_RNG_STATE_VERSION = 3


def rng_state_to_json(words: tuple) -> list:
    """A Mersenne-Twister state (``_random.Random.getstate()``: 624 words
    and the position) → the JSON list ``random.Random.getstate()`` maps to."""
    return [_RNG_STATE_VERSION, list(words), None]


def rng_state_from_json(data: list) -> tuple:
    """Inverse of :func:`rng_state_to_json` (exact ``_random.Random.setstate``
    input); raises ``ValueError`` for a state version it cannot read."""
    version, internal, _gauss_next = data
    if version != _RNG_STATE_VERSION:
        raise ValueError(f"RNG state version {version!r} is not {_RNG_STATE_VERSION}")
    return tuple(int(word) for word in internal)


def path_to_json(path: Optional[Tuple[int, ...]]) -> Optional[list]:
    return list(path) if path is not None else None


def path_from_json(data: Optional[list]) -> Optional[Tuple[int, ...]]:
    return intern_path(tuple(int(hop) for hop in data)) if data is not None else None


def message_to_json(message: UpdateMessage) -> list:
    return [
        message.sender,
        message.receiver,
        prefix_to_json(message.prefix),
        path_to_json(message.path),
    ]


def message_from_json(data: list) -> UpdateMessage:
    sender, receiver, prefix, path = data
    return UpdateMessage(
        sender=int(sender),
        receiver=int(receiver),
        prefix=prefix_from_json(prefix),
        path=path_from_json(path),
    )


def route_to_json(route: Route) -> list:
    return [prefix_to_json(route.prefix), list(route.path), route.local_pref]


def route_from_json(data: list) -> Route:
    prefix, path, local_pref = data
    # Restored routes go through the intern table so the live network
    # regains the sharing (and warmed preference-key caches) it had
    # before the snapshot.
    return make_route(
        prefix_from_json(prefix), tuple(int(hop) for hop in path), int(local_pref)
    )


# ----------------------------------------------------------------------
# Per-node state
# ----------------------------------------------------------------------
#: Construction defaults of a node's JSON fields: a field equal to its
#: default is left out of the document and filled back in on read.
_NODE_DEFAULTS = {
    "busy": False,
    "in_queue": [],
    "adj_rib_in": [],
    "loc_rib": [],
    "local_prefixes": [],
    "wakeup_at": [],
    "down_neighbors": [],
    "damper": [],
    "best_change_count": [],
}

#: Likewise for one output channel.
_CHANNEL_DEFAULTS = {
    "sent": [],
    "pending": [],
    "interface_gate": 0.0,
    "prefix_gates": [],
    "arms": 0,
}


def _without_defaults(document: dict, defaults: dict) -> dict:
    return {
        key: value
        for key, value in document.items()
        if key not in defaults or value != defaults[key]
    }


def _channel_state_to_json(channel: dict) -> dict:
    return _without_defaults(
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
            "prefix_gates": [
                [prefix_to_json(prefix), gate]
                for prefix, gate in channel["prefix_gates"].items()
            ],
            "arms": channel["arms"],
        },
        _CHANNEL_DEFAULTS,
    )


def _channel_state_from_json(data: dict) -> dict:
    # ``arms`` is also absent from every pre-1.6 channel; those nodes
    # restore from a full RNG state and never read it.
    channel = {**_CHANNEL_DEFAULTS, **data}
    return {
        "sent": {
            prefix_from_json(prefix): path_from_json(target)
            for prefix, target in channel["sent"]
        },
        "pending": {
            prefix_from_json(prefix): path_from_json(target)
            for prefix, target in channel["pending"]
        },
        "interface_gate": float(channel["interface_gate"]),
        "prefix_gates": {
            prefix_from_json(prefix): float(gate)
            for prefix, gate in channel["prefix_gates"]
        },
        "arms": int(channel["arms"]),
    }


def node_state_to_json(state: dict) -> dict:
    """Serialize one :meth:`BGPNode.checkpoint_state` result."""
    if "rng_state" in state:
        stream = {"rng": rng_state_to_json(state["rng_state"])}
    else:
        stream = {"rng_draws": state["rng_draws"], "rng_mark": state["rng_mark"]}
    document = {
        **stream,
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
            [neighbor, _channel_state_to_json(channel)]
            for neighbor, channel in state["channels"].items()
        ],
        # Restore starts every neighbour at "no wakeup", in neighbour order.
        "wakeup_at": [
            [n, at] for n, at in state["wakeup_at"].items() if at is not None
        ],
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
    return _without_defaults(document, _NODE_DEFAULTS)


def node_state_from_json(data: dict) -> dict:
    """Inverse of :func:`node_state_to_json` (``restore_state`` input).

    Pre-1.6 documents carry the full generator state under ``rng`` and
    no per-channel ``arms``; they restore to a node that keeps writing
    full states (its draw count is unknown).
    """
    try:
        data = {**_NODE_DEFAULTS, **data}
        if "rng" in data:
            stream = {"rng_state": rng_state_from_json(data["rng"])}
        else:
            stream = {
                "rng_draws": int(data["rng_draws"]),
                "rng_mark": int(data["rng_mark"]),
            }
        return {
            **stream,
            "busy": bool(data["busy"]),
            "in_queue": [message_from_json(m) for m in data["in_queue"]],
            "adj_rib_in": [
                (prefix_from_json(prefix), int(neighbor), route_from_json(route))
                for prefix, neighbor, route in data["adj_rib_in"]
            ],
            "loc_rib": [
                (prefix_from_json(prefix), route_from_json(route))
                for prefix, route in data["loc_rib"]
            ],
            "local_prefixes": [prefix_from_json(p) for p in data["local_prefixes"]],
            "channels": {
                int(neighbor): _channel_state_from_json(channel)
                for neighbor, channel in data["channels"]
            },
            "wakeup_at": {
                int(neighbor): (float(at) if at is not None else None)
                for neighbor, at in data["wakeup_at"]
            },
            "down_neighbors": [int(n) for n in data["down_neighbors"]],
            "damper": [
                [
                    int(neighbor),
                    prefix_from_json(prefix),
                    float(penalty),
                    float(last),
                    bool(sup),
                ]
                for neighbor, prefix, penalty, last, sup in data["damper"]
            ],
            "processed_count": int(data["processed_count"]),
            "busy_time": float(data["busy_time"]),
            "service_delay": float(data["service_delay"]),
            "max_queue_length": int(data["max_queue_length"]),
            "best_change_count": {
                prefix_from_json(prefix): int(count)
                for prefix, count in data["best_change_count"]
            },
            "decisions_run": int(data["decisions_run"]),
            "decisions_skipped": int(data["decisions_skipped"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed node state in checkpoint: {exc}") from exc


# ----------------------------------------------------------------------
# Measurement plane
# ----------------------------------------------------------------------
def counter_state_to_json(state: dict) -> dict:
    """Serialize one :meth:`UpdateCounter.dump_state` result."""
    return {
        "enabled": state["enabled"],
        "received": [list(pair) for pair in state["received"]],
        "received_by_relationship": [
            [receiver, relationship.value, count]
            for receiver, relationship, count in state["received_by_relationship"]
        ],
        "received_by_pair": [list(row) for row in state["received_by_pair"]],
        "announcements": [list(pair) for pair in state["announcements"]],
        "withdrawals": [list(pair) for pair in state["withdrawals"]],
        "total": state["total"],
    }


def counter_state_from_json(data: dict) -> dict:
    """Inverse of :func:`counter_state_to_json` (``load_state`` input)."""
    try:
        return {
            "enabled": bool(data["enabled"]),
            "received": [
                (int(node), int(count)) for node, count in data["received"]
            ],
            "received_by_relationship": [
                (int(receiver), Relationship(relationship), int(count))
                for receiver, relationship, count in (
                    data["received_by_relationship"]
                )
            ],
            "received_by_pair": [
                (int(receiver), int(sender), int(count))
                for receiver, sender, count in data["received_by_pair"]
            ],
            "announcements": [
                (int(node), int(count)) for node, count in data["announcements"]
            ],
            "withdrawals": [
                (int(node), int(count)) for node, count in data["withdrawals"]
            ],
            "total": int(data["total"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed counter state in checkpoint: {exc}") from exc


# ----------------------------------------------------------------------
# Topology identity
# ----------------------------------------------------------------------
def topology_digest(graph: ASGraph) -> str:
    """Content hash of a topology's structure.

    A network snapshot is only restorable onto the graph it was captured
    from; the digest catches scenario/seed mix-ups before they turn into
    silently wrong simulations.
    """
    canon = [
        graph.scenario,
        [
            [
                node.node_id,
                node.node_type.value,
                sorted(
                    [neighbor, relationship.value]
                    for neighbor, relationship in graph.neighbors(
                        node.node_id
                    ).items()
                ),
            ]
            for node in graph.nodes()
        ],
    ]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8"))
