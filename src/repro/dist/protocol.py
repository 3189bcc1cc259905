"""The coordinator/worker wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length prefix followed by that many
bytes of canonical JSON (sorted keys, no whitespace, UTF-8).  Every
message is a JSON *object* carrying two mandatory envelope fields::

    {"v": 2, "type": "lease", ...}

``v`` is the protocol version — a peer speaking a different version is
rejected at the first frame, never half-understood — and ``type`` is one
of the six message kinds below.  Anything else (truncated prefix or
body, oversized or zero length, non-JSON bytes, a non-object payload, a
missing/foreign version, an unknown type) raises
:class:`~repro.errors.ProtocolError` from a *bounded* read: the decoder
either returns a valid message, returns end-of-stream, or fails — it
never hangs waiting for bytes a malformed prefix promised but a correct
peer would never send beyond the declared length.  A read that breaks
off mid-frame raises the subclass
:class:`~repro.errors.ConnectionLostError`, so a peer can tell a lost
connection from a frame it cannot use.

Message kinds
-------------
``register``   worker → coordinator once per connection; the reply (same
               type) assigns a worker id and the heartbeat interval.
``lease``      worker → coordinator to request work; coordinator →
               worker to grant a unit (with a lease id and deadline) or
               to answer "no work right now, retry later" (``unit``
               null).
``heartbeat``  worker → coordinator while executing, renewing the lease
               deadline; acked with the same type.
``result``     worker → coordinator: the finished unit's
               :class:`~repro.core.cevent.CEventBatchResult` plus the
               worker's telemetry counters; acked with the same type.
``nack``       worker → coordinator: the unit raised a (deterministic)
               simulation error that a retry cannot fix.
``shutdown``   coordinator → worker: the campaign is over, exit cleanly.

Version compatibility is exact-match.  Version 2 added three kinds for
a socket-distributed partition mode (``partition``, ``pcmd``,
``preport``); that mode has been removed and the kinds are retired —
decoding one raises :class:`~repro.errors.ProtocolError` — but the
version stays 2, because the lease frames are unchanged and a v2 peer
from before the removal still interoperates.  See ``docs/PROTOCOL.md``
for the full frame reference and the lease state machine.

The sweep-unit and batch-result codecs live here too: they restrict
themselves to JSON primitives (Python's ``json`` round-trips floats
exactly), which is what preserves the distributed layer's bit-identity
guarantee across the wire.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, List, Optional

from repro.bgp.config import BGPConfig
from repro.core.cevent import CEventBatchResult
from repro.core.factors import GraphSummary, RawFactorSums
from repro.core.sweep import SweepUnit
from repro.errors import ConnectionLostError, ProtocolError
from repro.topology.types import RELATIONSHIP_ORDER, NodeType

#: Bump on any incompatible schema change; peers must match exactly.
#: v2 added three partition-mode kinds, since retired (:data:`RETIRED_TYPES`).
PROTOCOL_VERSION = 2

#: Hard ceiling on one frame's payload; a length prefix above this is
#: rejected before any allocation (fuzz/abuse resistance).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")

#: The relationship classes in factor-sum column order.
_REL_VALUES = tuple(rel.value for rel in RELATIONSHIP_ORDER)

MSG_REGISTER = "register"
MSG_LEASE = "lease"
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_NACK = "nack"
MSG_SHUTDOWN = "shutdown"

KNOWN_TYPES = frozenset(
    (
        MSG_REGISTER,
        MSG_LEASE,
        MSG_HEARTBEAT,
        MSG_RESULT,
        MSG_NACK,
        MSG_SHUTDOWN,
    )
)

#: Kinds version 2 defined for the removed socket-distributed partition
#: mode; a peer built before the removal may still send them.
RETIRED_TYPES = frozenset(("partition", "pcmd", "preport"))


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, object]) -> bytes:
    """One wire frame (length prefix + canonical JSON) for ``message``.

    The ``v`` envelope field is stamped here; ``message`` must carry a
    known ``type``.
    """
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a dict, got {type(message).__name__}")
    kind = message.get("type")
    if kind not in KNOWN_TYPES:
        raise ProtocolError(f"unknown message type {kind!r}")
    payload = dict(message)
    payload["v"] = PROTOCOL_VERSION
    try:
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(blob)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(blob)) + blob


def decode_frame_payload(blob: bytes) -> Dict[str, object]:
    """Strictly decode one frame *body* (the bytes after the prefix)."""
    try:
        message = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer sent {version!r}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )
    kind = message.get("type")
    if kind in RETIRED_TYPES:
        raise ProtocolError(
            f"message type {kind!r} belongs to the socket-distributed "
            "partition mode, which was removed; 'repro-bgp simulate "
            "--partitions K' still runs a partitioned simulation in-process"
        )
    if kind not in KNOWN_TYPES:
        raise ProtocolError(f"unknown message type {kind!r}")
    return message


class FrameStream:
    """Framed message I/O over one connected socket.

    Thread-safety is the *caller's* concern (the worker serializes
    request/response pairs under a lock); this class only guarantees that
    a single :meth:`recv` either returns one complete valid message,
    returns ``None`` on a clean end-of-stream, or raises
    :class:`~repro.errors.ProtocolError` — it never blocks for more bytes
    than the declared frame length.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def send(self, message: Dict[str, object]) -> None:
        """Encode and transmit one message."""
        self._sock.sendall(encode_frame(message))

    def recv(self) -> Optional[Dict[str, object]]:
        """Read one message; ``None`` when the peer closed cleanly."""
        prefix = self._read_exactly(_LENGTH.size, allow_eof=True)
        if prefix is None:
            return None
        (length,) = _LENGTH.unpack(prefix)
        if length == 0:
            raise ProtocolError("zero-length frame")
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"declared frame length {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        body = self._read_exactly(length, allow_eof=False)
        assert body is not None  # allow_eof=False raises instead
        return decode_frame_payload(body)

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def _read_exactly(self, count: int, *, allow_eof: bool) -> Optional[bytes]:
        """``count`` bytes, or None on EOF *before any byte* if allowed.

        EOF or a socket error mid-read is always a
        :class:`~repro.errors.ConnectionLostError`: the peer promised more
        bytes than it sent (truncated frame).
        """
        chunks = []
        got = 0
        while got < count:
            try:
                chunk = self._sock.recv(min(65536, count - got))
            except OSError as exc:
                raise ConnectionLostError(
                    f"connection error mid-frame: {exc}"
                ) from exc
            if not chunk:
                if got == 0 and allow_eof:
                    return None
                raise ConnectionLostError(
                    f"truncated frame: peer closed after {got} of {count} bytes"
                )
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)


# ----------------------------------------------------------------------
# Sweep-unit codec
# ----------------------------------------------------------------------
def _check_kwarg_value(key: str, value: object) -> object:
    """Scenario-kwarg values must survive a JSON round trip unchanged."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_check_kwarg_value(key, item) for item in value]
    raise ProtocolError(
        f"scenario kwarg {key!r} has non-JSON value of type "
        f"{type(value).__name__}; distributed units require JSON-primitive "
        "kwargs"
    )


def unit_to_wire(unit: SweepUnit) -> Dict[str, object]:
    """JSON-ready dict for one :class:`SweepUnit`."""
    return {
        "scenario": unit.scenario,
        "n": unit.n,
        "num_origins": unit.num_origins,
        "batch_index": unit.batch_index,
        "num_batches": unit.num_batches,
        "seed": unit.seed,
        "config": unit.config.to_dict(),
        "scenario_kwargs": [
            [key, _check_kwarg_value(key, value)]
            for key, value in unit.scenario_kwargs
        ],
    }


def unit_from_wire(data: Dict[str, object]) -> SweepUnit:
    """Rebuild a :class:`SweepUnit` from :func:`unit_to_wire` output."""
    try:
        return SweepUnit(
            scenario=str(data["scenario"]),
            n=int(data["n"]),
            num_origins=int(data["num_origins"]),
            batch_index=int(data["batch_index"]),
            num_batches=int(data["num_batches"]),
            seed=int(data["seed"]),
            config=BGPConfig.from_dict(data["config"]),
            scenario_kwargs=tuple(
                (str(key), value) for key, value in data["scenario_kwargs"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed sweep unit on the wire: {exc}") from exc


# ----------------------------------------------------------------------
# Batch-result codec
# ----------------------------------------------------------------------
def relationship_rows(node_ids, columns) -> list:
    """Per-class columns as rows in node order.

    A row is ``[node_id, [[class, count], ...]]`` with the classes in
    column order (customer, peer, provider): how result frames store
    per-node, per-relationship counts.
    """
    return [
        [node_id, [[value, count] for value, count in zip(_REL_VALUES, counts)]]
        for node_id, *counts in zip(node_ids, *columns)
    ]


def relationship_columns(rows, node_ids) -> List[List[int]]:
    """Inverse of :func:`relationship_rows`.

    Raises :class:`~repro.errors.ProtocolError` unless the rows list
    ``node_ids`` in order and each covers the classes in column order.
    """
    if [int(node_id) for node_id, _per_rel in rows] != list(node_ids):
        raise ProtocolError("per-relationship rows do not follow the node order")
    columns: List[List[int]] = [[] for _ in _REL_VALUES]
    for _node_id, per_rel in rows:
        if [rel for rel, _count in per_rel] != list(_REL_VALUES):
            raise ProtocolError(
                "per-relationship rows must list customer, peer, provider"
            )
        for column, (_rel, count) in zip(columns, per_rel):
            column.append(int(count))
    return columns


def raw_sums_to_json(raw: RawFactorSums) -> dict:
    """Serialize :class:`RawFactorSums` as rows in node order.

    The ``raw`` field of a result frame.
    """
    return {
        "events": raw.events,
        "updates": relationship_rows(raw.node_ids, raw.updates),
        "active": relationship_rows(raw.node_ids, raw.active),
        "total_updates": [
            [node_id, count] for node_id, count in zip(raw.node_ids, raw.total_updates)
        ],
    }


def raw_sums_from_json(data: dict) -> RawFactorSums:
    """Inverse of :func:`raw_sums_to_json`."""
    try:
        node_ids = [int(node_id) for node_id, _count in data["total_updates"]]
        return RawFactorSums(
            events=int(data["events"]),
            node_ids=tuple(node_ids),
            updates=relationship_columns(data["updates"], node_ids),
            active=relationship_columns(data["active"], node_ids),
            total_updates=[int(count) for _node_id, count in data["total_updates"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed factor sums in checkpoint: {exc}") from exc


def _summary_to_wire(summary: GraphSummary) -> Dict[str, object]:
    return {
        "scenario": summary.scenario,
        "node_ids": list(summary.node_ids),
        "node_types": [
            [node_id, node_type.value]
            for node_id, node_type in zip(summary.node_ids, summary.node_types)
        ],
        "m": relationship_rows(summary.node_ids, summary.m),
    }


def _summary_from_wire(data: Dict[str, object]) -> GraphSummary:
    node_ids = tuple(int(node_id) for node_id in data["node_ids"])
    rows = [(int(node_id), NodeType(value)) for node_id, value in data["node_types"]]
    if [node_id for node_id, _type in rows] != list(node_ids):
        raise ValueError("summary node types do not follow the node order")
    return GraphSummary(
        scenario=str(data["scenario"]),
        node_ids=node_ids,
        node_types=tuple(node_type for _node_id, node_type in rows),
        m=tuple(tuple(column) for column in relationship_columns(data["m"], node_ids)),
    )


def batch_result_to_wire(result: CEventBatchResult) -> Dict[str, object]:
    """JSON-ready dict for one unit's :class:`CEventBatchResult`."""
    return {
        "summary": _summary_to_wire(result.summary),
        "config": result.config.to_dict(),
        "seed": result.seed,
        "origins": list(result.origins),
        "raw": raw_sums_to_json(result.raw),
        "down_totals": [
            [node_type.value, total] for node_type, total in result.down_totals.items()
        ],
        "up_totals": [
            [node_type.value, total] for node_type, total in result.up_totals.items()
        ],
        "down_convergence": result.down_convergence,
        "up_convergence": result.up_convergence,
        "measured_messages": result.measured_messages,
        "wall_clock_seconds": result.wall_clock_seconds,
    }


def batch_result_from_wire(data: Dict[str, object]) -> CEventBatchResult:
    """Rebuild a batch result from :func:`batch_result_to_wire` output.

    The round trip is exact (JSON floats are shortest-round-trip), so a
    result that crossed the wire merges into numbers bit-identical to a
    locally computed one.
    """
    try:
        return CEventBatchResult(
            summary=_summary_from_wire(data["summary"]),
            config=BGPConfig.from_dict(data["config"]),
            seed=int(data["seed"]),
            origins=[int(origin) for origin in data["origins"]],
            raw=raw_sums_from_json(data["raw"]),
            down_totals={
                NodeType(value): float(total)
                for value, total in data["down_totals"]
            },
            up_totals={
                NodeType(value): float(total) for value, total in data["up_totals"]
            },
            down_convergence=float(data["down_convergence"]),
            up_convergence=float(data["up_convergence"]),
            measured_messages=int(data["measured_messages"]),
            wall_clock_seconds=float(data["wall_clock_seconds"]),
        )
    except (KeyError, TypeError, ValueError, ProtocolError) as exc:
        raise ProtocolError(f"malformed batch result on the wire: {exc}") from exc
