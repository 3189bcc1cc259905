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

Restores refuse checkpoints written by a different code version — the
simulator's event vocabulary and state layout are only guaranteed
stable within one version, and the byte-identity contract would be
meaningless across versions anyway.  The one exception is the explicit
migration allow-list :data:`COMPATIBLE_CODE_VERSIONS`: versions whose
payload layout this build still reads (the state *schema* is unchanged
even though execution trajectories may differ across the versions, so
restored runs are deterministic but not byte-comparable to runs of the
writing version).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from repro._version import __version__
from repro.errors import CheckpointError

FORMAT_NAME = "repro-checkpoint"
FORMAT_VERSION = 1

#: Older code versions whose checkpoints this build can still restore.
#: 1.1.0 wrote the same state layout (the 1.2.0 kernel changed in-memory
#: representations — slotted/interned routes, cancellable heap entries —
#: but not the serialized schema); its heaps may carry stale superseded
#: wakeups, which the node-level execution guards neutralize.  1.2.0
#: documents are a strict subset of the 1.3.0 schema: prefixes are bare
#: ints (1.3.0 additionally writes ``[addr, length]`` pairs for real
#: prefixes) and the per-node decision counters are absent (they restore
#: as zero).  1.3.0 documents read unchanged under 1.4.0 — the 1.4.0
#: schema only *adds* the ``partition`` kind (per-member network
#: snapshots plus in-flight border events); the pre-existing kinds'
#: layouts are untouched.  1.5.0 (measured-topology import, long-memory
#: analysis) did not touch ``repro.checkpoint`` at all, so 1.4.0
#: documents — every partition checkpoint among them — read unchanged.
COMPATIBLE_CODE_VERSIONS = frozenset({"1.1.0", "1.2.0", "1.3.0", "1.4.0"})

#: Recognised checkpoint kinds (the envelope's ``kind`` field).
KIND_NETWORK = "network"
KIND_SWEEP_UNIT = "sweep-unit"
KIND_CAMPAIGN = "campaign"
#: Schema 1.4.0: one graph-partitioned run — K member network snapshots,
#: the lockstep runner's clock/stats, and the border events in flight.
KIND_PARTITION = "partition"
KNOWN_KINDS = (KIND_NETWORK, KIND_SWEEP_UNIT, KIND_CAMPAIGN, KIND_PARTITION)


def payload_digest(payload: dict) -> str:
    """SHA-256 over the canonical JSON serialization of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
    document = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "code_version": __version__,
        "kind": kind,
        "sha256": payload_digest(payload),
        "payload": payload,
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(document, separators=(",", ":"))
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(blob, encoding="utf-8")
    tmp.replace(target)


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
    default) checkpoints written by a different library version.
    """
    target = Path(path)
    try:
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
    if (
        require_code_version
        and document.code_version != __version__
        and document.code_version not in COMPATIBLE_CODE_VERSIONS
    ):
        raise CheckpointError(
            f"{target}: written by repro {document.code_version}, this build is "
            f"{__version__}; refusing to restore across versions"
        )
    return document


def verify_checkpoint(path: Union[str, Path]) -> CheckpointDocument:
    """Full integrity check (digest included), ignoring the code version.

    Verification answers "is this file intact", which is meaningful for
    checkpoints from older builds too; only *restoring* is version-bound.
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
        summary.update(_network_summary(payload.get("network", {})))
    elif document.kind == KIND_PARTITION:
        parts = payload.get("parts", [])
        summary.update(
            {
                "num_parts": payload.get("num_parts"),
                "sim_time": payload.get("now"),
                "windows": payload.get("windows"),
                "border_events_total": payload.get("border_events"),
                "border_events_in_flight": len(payload.get("pending", [])),
                "part_sizes": ", ".join(
                    str(len(part.get("nodes", []))) for part in parts
                ),
            }
        )
        if parts:
            summary.update(_network_summary(parts[0]))
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
        "pending_events": len(engine.get("pending", [])),
        "delivered_messages": payload.get("delivered_messages"),
    }
