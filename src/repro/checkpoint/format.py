"""The on-disk checkpoint envelope: versioned, content-hashed JSON.

Every checkpoint file — a raw network snapshot, a sweep-unit progress
record, or a campaign state — shares one envelope::

    {
      "format": "repro-checkpoint",
      "format_version": 1,
      "code_version": "<repro __version__ that wrote it>",
      "kind": "network" | "sweep-unit" | "campaign",
      "sha256": "<hex digest of the canonical payload JSON>",
      "payload": { ... kind-specific ... }
    }

The digest covers the *canonical* payload serialization (sorted keys,
no whitespace), so ``repro-bgp checkpoint verify`` detects truncation
and bit-rot independent of how the file was formatted.  Files are
written atomically (tmp + rename): a crash mid-write never leaves a
half-checkpoint that a resume could trip over.

A ``sweep-unit`` payload has one layout, the *boundary record*
(``boundary`` + ``sums``: per-node draw counts, last draws and counters,
the factor sums as columns; what a C-event boundary leaves).  A unit
file of another build (such as ``raw`` + ``network``, the full snapshot
earlier builds wrote, which ``inspect`` still describes) is discarded
and recomputed, never resumed.  Inside a ``network`` payload a node
carries either ``rng_draws``/``rng_mark`` (1.6.0) or a full ``rng``
state (1.5.0 and earlier).

Which files a build restores is decided here alone: a document whose
``code_version`` is an ``X.Y.Z`` release from :data:`OLDEST_RESTORABLE`
up to this build's own version (:func:`restorable`), so each release
restores the previous release's files with no list to edit.  Across
releases the state *schema* is read, but execution trajectories may
differ, so a restored run is deterministic without being byte-comparable
to runs of the writing version.  A sweep unit's file name and key hash
the code version, so a unit only ever reads its own release's file.
``verify`` and ``inspect`` read files of any version.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import re
from pathlib import Path
from typing import Optional, Tuple, Union

from repro._version import __version__
from repro.errors import CheckpointError
from repro.files import atomic_writer, sha256

FORMAT_NAME = "repro-checkpoint"
FORMAT_VERSION = 1

#: The oldest release whose checkpoints this build restores: 1.3.0 was
#: the first to write prefixes as ``[addr, length]`` pairs and the
#: per-node decision counters.  Every release from it up to this build's
#: own restores (:func:`restorable`); the envelope's ``format_version``
#: stays the layout gate.  Inside that range the readers still take the
#: older node form: 1.5.0 and earlier store a node's full ``rng`` state
#: and no per-channel ``arms`` count, and restore to nodes that keep
#: writing full states, since their draw counts are unknown.
OLDEST_RESTORABLE = "1.3.0"

_RELEASE = re.compile(r"(\d+)\.(\d+)\.(\d+)", re.ASCII)


def _release(version: str) -> Optional[Tuple[int, ...]]:
    """``X.Y.Z`` as a comparable triple; None for anything else."""
    match = _RELEASE.fullmatch(version)
    return tuple(map(int, match.groups())) if match else None


def restorable(code_version: str) -> bool:
    """Whether a checkpoint written by ``code_version`` restores here:
    an ``X.Y.Z`` release in ``[OLDEST_RESTORABLE, __version__]``."""
    release = _release(code_version)
    return (
        release is not None
        and _release(OLDEST_RESTORABLE) <= release <= _release(__version__)
    )


#: Recognised checkpoint kinds (the envelope's ``kind`` field).
KIND_NETWORK = "network"
KIND_SWEEP_UNIT = "sweep-unit"
KIND_CAMPAIGN = "campaign"
KNOWN_KINDS = (KIND_NETWORK, KIND_SWEEP_UNIT, KIND_CAMPAIGN)
#: Kinds whose payloads never depend on JSON object order (simulator
#: state stores every ordered mapping as a list of pairs), so the file
#: can carry the very bytes the digest covers.  A campaign state embeds
#: experiment results that are re-rendered from the dicts as parsed.
_ORDER_FREE_KINDS = frozenset({KIND_NETWORK, KIND_SWEEP_UNIT})


@contextlib.contextmanager
def gc_paused():
    """Keep the cyclic collector out of building or parsing a payload.

    A payload is tens of thousands of short-lived, acyclic lists made
    next to a large long-lived network: the allocation counters trip the
    collector again and again, it walks the network and frees nothing
    (measured at n=400: a third of snapshot, read and restore time).
    Reference counting frees the payload as soon as it is dropped.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: Sorted keys, no whitespace, ASCII.  Payloads are trees this package
#: builds, so the encoder's per-container cycle bookkeeping (a third of
#: its time) is off; a cyclic payload ends in ``RecursionError``.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def _canonical_bytes(payload: dict) -> bytes:
    """The canonical serialization the digest covers."""
    with gc_paused():
        return _CANONICAL.encode(payload).encode("ascii")


def payload_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON serialization of ``payload``."""
    return sha256(_canonical_bytes(payload))


@dataclasses.dataclass(frozen=True)
class CheckpointDocument:
    """One parsed checkpoint file."""

    kind: str
    format_version: int
    code_version: str
    sha256: str
    payload: dict

    @property
    def digest_ok(self) -> bool:
        """Whether the stored digest matches the payload."""
        return payload_digest(self.payload) == self.sha256


def write_checkpoint(path: Union[str, Path], kind: str, payload: dict) -> None:
    """Atomically write one checkpoint file."""
    if kind not in KNOWN_KINDS:
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")
    target = Path(path)
    # Simulator state is serialized once: the bytes that are hashed are
    # the bytes spliced into the envelope.
    blob = _canonical_bytes(payload)
    digest = sha256(blob)
    if kind not in _ORDER_FREE_KINDS:
        blob = json.dumps(payload, separators=(",", ":")).encode("ascii")
    header = json.dumps(
        {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "code_version": __version__,
            "kind": kind,
            "sha256": digest,
        },
        separators=(",", ":"),
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    with atomic_writer(target, "wb") as handle:
        handle.write(header[:-1].encode("ascii") + b',"payload":' + blob + b"}")


def read_checkpoint(
    path: Union[str, Path],
    *,
    expected_kind: Optional[str] = None,
    verify_digest: bool = True,
    require_code_version: bool = True,
) -> CheckpointDocument:
    """Parse and validate one checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` on unreadable files,
    foreign formats, digest mismatches, kind mismatches, and (by
    default) checkpoints of a version outside :func:`restorable`.
    """
    target = Path(path)
    try:
        with gc_paused():
            data = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{target} is not a {FORMAT_NAME} file")
    try:
        document = CheckpointDocument(
            kind=str(data["kind"]),
            format_version=int(data["format_version"]),
            code_version=str(data["code_version"]),
            sha256=str(data["sha256"]),
            payload=data["payload"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint envelope in {target}: {exc}") from exc
    if document.format_version != FORMAT_VERSION:
        raise CheckpointError(
            f"{target}: unsupported checkpoint format version "
            f"{document.format_version} (this build reads {FORMAT_VERSION})"
        )
    if not isinstance(document.payload, dict):
        raise CheckpointError(f"{target}: checkpoint payload must be an object")
    if expected_kind is not None and document.kind != expected_kind:
        raise CheckpointError(
            f"{target}: expected a {expected_kind!r} checkpoint, found "
            f"{document.kind!r}"
        )
    if verify_digest and not document.digest_ok:
        raise CheckpointError(
            f"{target}: payload digest mismatch (file is corrupt or was edited)"
        )
    if require_code_version and not restorable(document.code_version):
        raise CheckpointError(
            f"{target}: written by repro {document.code_version}, outside the "
            f"releases {OLDEST_RESTORABLE} to {__version__} this build restores; "
            "refusing to restore"
        )
    return document


def verify_checkpoint(path: Union[str, Path]) -> CheckpointDocument:
    """Full integrity check (digest included), ignoring the code version.

    Verification answers "is this file intact", which is meaningful for
    checkpoints of any version; only *restoring* is version-bound.
    """
    return read_checkpoint(path, verify_digest=True, require_code_version=False)


def inspect_checkpoint(path: Union[str, Path]) -> dict:
    """A human-oriented summary of one checkpoint file (kind-aware)."""
    document = read_checkpoint(
        path, verify_digest=False, require_code_version=False
    )
    summary = {
        "kind": document.kind,
        "format_version": document.format_version,
        "code_version": document.code_version,
        "sha256": document.sha256[:16] + "…",
        "digest_ok": document.digest_ok,
    }
    payload = document.payload
    if document.kind == KIND_NETWORK:
        summary.update(_network_summary(payload))
        summary.update(_size_summary([payload]))
    elif document.kind == KIND_SWEEP_UNIT:
        unit = payload.get("unit", {})
        summary.update(
            {
                "scenario": unit.get("scenario"),
                "n": unit.get("n"),
                "batch": f"{unit.get('batch_index')}/{unit.get('num_batches')}",
                "seed": unit.get("seed"),
                "events_measured": payload.get("next_index"),
                "events_total": len(payload.get("origins", [])),
            }
        )
        if "boundary" in payload:
            summary.update(_boundary_summary(payload["boundary"]))
        else:
            network = payload.get("network", {})
            summary["layout"] = "full snapshot"
            summary.update(_network_summary(network))
            summary.update(_size_summary([network]))
    elif document.kind == KIND_CAMPAIGN:
        summary.update(
            {
                "scale": payload.get("scale"),
                "seed": payload.get("seed"),
                "completed_experiments": ", ".join(
                    item.get("experiment_id", "?")
                    for item in payload.get("completed", [])
                )
                or "(none)",
            }
        )
    return summary


def _network_summary(payload: dict) -> dict:
    engine = payload.get("engine", {})
    topology = payload.get("topology", {})
    return {
        "scenario": topology.get("scenario"),
        "n": topology.get("n"),
        "sim_time": engine.get("now"),
        "executed_events": engine.get("executed_events"),
        "cancelled_events": engine.get("cancelled_events", 0),
        "pending_events": len(engine.get("pending", [])),
        "delivered_messages": payload.get("delivered_messages"),
    }


def _boundary_summary(record: dict) -> dict:
    """The network part of a sweep unit's boundary record."""
    rows = record.get("nodes", [])
    draws = sum(row[0] for row in rows if isinstance(row, list) and row)
    return {
        "layout": "boundary record",
        "n": len(rows),
        "sim_time": record.get("now"),
        "executed_events": record.get("executed_events"),
        "cancelled_events": record.get("cancelled_events", 0),
        "pending_events": 0,
        "delivered_messages": record.get("delivered_messages"),
        "rng_encoding": f"draw counts + last draws ({draws:,} total)",
        "prefix_gates": len(record.get("prefix_gates", [])),
        "network_bytes": f"{len(_CANONICAL.encode(record)):,}",
    }


#: Which size row of ``checkpoint inspect`` a node field is counted in
#: (fields not named here are per-node counters).
_NODE_FIELD_SECTIONS = {
    "rng": "rng",
    "rng_draws": "rng",
    "rng_mark": "rng",
    "adj_rib_in": "ribs",
    "loc_rib": "ribs",
    "local_prefixes": "ribs",
    "channels": "channels",
    "wakeup_at": "channels",
    "down_neighbors": "channels",
}

#: Likewise for the top-level fields of a network payload.
_NETWORK_FIELD_SECTIONS = {
    "engine": "engine",
    "counter": "counters",
    "trace": "counters",
    "delivered_messages": "counters",
}


def network_section_bytes(payload: dict) -> dict:
    """Canonical-JSON bytes of a network payload, by section.

    ``rng`` / ``ribs`` / ``channels`` / ``counters`` / ``engine`` hold
    ``"key":value`` bytes of the fields counted there; ``other`` is the
    rest (seed, config, topology identity, brackets and node ids), so
    the values add up to the payload's canonical size.
    """
    sizes = dict.fromkeys(("rng", "ribs", "channels", "counters", "engine"), 0)

    def count(section: str, key: str, value: object) -> None:
        # "key":value plus the comma that separates it from the next field
        sizes[section] += len(key) + 4 + len(_CANONICAL.encode(value))

    for key, value in payload.items():
        if key in _NETWORK_FIELD_SECTIONS:
            count(_NETWORK_FIELD_SECTIONS[key], key, value)
    for _node_id, state in payload.get("nodes", []):
        for key, value in state.items():
            count(_NODE_FIELD_SECTIONS.get(key, "counters"), key, value)
    sizes["other"] = len(_CANONICAL.encode(payload)) - sum(sizes.values())
    return sizes


def _size_summary(networks: list) -> dict:
    """RNG encoding and bytes per section over one or more network payloads."""
    states = [
        state for payload in networks for _node_id, state in payload.get("nodes", [])
    ]
    if not states:
        return {}
    full = sum(1 for state in states if "rng" in state)
    if full == 0:
        draws = sum(state.get("rng_draws", 0) for state in states)
        encoding = f"draw counts ({draws:,} total)"
    elif full == len(states):
        encoding = "full states"
    else:
        encoding = f"mixed ({full} of {len(states)} nodes carry full states)"
    sizes: dict = {}
    for payload in networks:
        for section, size in network_section_bytes(payload).items():
            sizes[section] = sizes.get(section, 0) + size
    total = sum(sizes.values())
    summary = {"rng_encoding": encoding, "network_bytes": f"{total:,}"}
    for section, size in sizes.items():
        summary[f"bytes_{section}"] = f"{size:,} ({100.0 * size / total:.1f} %)"
    return summary
