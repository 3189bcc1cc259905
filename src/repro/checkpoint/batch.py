"""Checkpointed execution of one sweep unit.

A :class:`~repro.core.sweep.SweepUnit` is the unit of work the parallel
sweep executor ships to worker processes; this module wraps its
execution with periodic on-disk checkpoints so a unit killed mid-flight
(worker crash, OOM, Ctrl-C) resumes from its last completed C-event
instead of starting over.

Checkpoints are written at origin boundaries — after each measured
C-event but the last, every ``checkpoint_every`` events — where the
engine's event heap is empty and the network is in a steady state.  The
snapshot still records the full network (RIBs, MRAI gates, RNG streams,
counters), so the resumed batch is byte-identical to an uninterrupted
one.  Nothing is written after the last event: the unit's result is
returned (and the file removed) on the next line, and a crash in between
resumes from the previous checkpoint to the same result.

Each unit's checkpoint file is named after a content hash of the unit's
inputs: a stale file from a different sweep, seed, or code version can
never be resumed by accident.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Optional, Union

from repro._version import __version__
from repro.checkpoint.format import (
    KIND_SWEEP_UNIT,
    gc_paused,
    read_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.network import restore_network, snapshot_network
from repro.core.cevent import (
    BatchCursor,
    CEventBatchResult,
    pick_origins,
    run_c_event_batch,
)
from repro.core.factors import FactorAccumulator, RawFactorSums
from repro.core.sweep import SweepUnit, maybe_inject_fault, split_origins
from repro.errors import CheckpointError
from repro.obs.telemetry import current_telemetry
from repro.sim.rng import origin_batch_seed, sweep_point_seeds
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params
from repro.topology.types import NodeType, Relationship

_RELS = (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)


# ----------------------------------------------------------------------
# Unit identity
# ----------------------------------------------------------------------
def unit_checkpoint_key(unit: SweepUnit) -> str:
    """Content hash identifying one sweep unit's inputs.

    Includes the code version: a checkpoint written by a different build
    must never be resumed (the byte-identity guarantee only holds within
    one version).
    """
    payload = {
        "code_version": __version__,
        "scenario": unit.scenario.upper(),
        "n": unit.n,
        "num_origins": unit.num_origins,
        "batch_index": unit.batch_index,
        "num_batches": unit.num_batches,
        "seed": unit.seed,
        "config": unit.config.to_dict(),
        "scenario_kwargs": [[str(k), repr(v)] for k, v in unit.scenario_kwargs],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def unit_checkpoint_path(checkpoint_dir: Union[str, Path], unit: SweepUnit) -> Path:
    """Where ``unit``'s in-progress checkpoint lives under ``checkpoint_dir``."""
    return Path(checkpoint_dir) / f"unit-{unit_checkpoint_key(unit)[:32]}.json"


# ----------------------------------------------------------------------
# Raw factor sums codec
# ----------------------------------------------------------------------
def raw_sums_to_json(raw: RawFactorSums) -> dict:
    """Serialize :class:`RawFactorSums` (insertion order preserved)."""
    return {
        "events": raw.events,
        "updates": [
            [node_id, [[rel.value, count] for rel, count in per_rel.items()]]
            for node_id, per_rel in raw.updates.items()
        ],
        "active": [
            [node_id, [[rel.value, count] for rel, count in per_rel.items()]]
            for node_id, per_rel in raw.active.items()
        ],
        "total_updates": [
            [node_id, count] for node_id, count in raw.total_updates.items()
        ],
    }


def raw_sums_from_json(data: dict) -> RawFactorSums:
    """Inverse of :func:`raw_sums_to_json`."""
    try:
        return RawFactorSums(
            events=int(data["events"]),
            updates={
                int(node_id): {
                    Relationship(rel): int(count) for rel, count in per_rel
                }
                for node_id, per_rel in data["updates"]
            },
            active={
                int(node_id): {
                    Relationship(rel): int(count) for rel, count in per_rel
                }
                for node_id, per_rel in data["active"]
            },
            total_updates={
                int(node_id): int(count)
                for node_id, count in data["total_updates"]
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed factor sums in checkpoint: {exc}") from exc


# ----------------------------------------------------------------------
# Checkpointed unit execution
# ----------------------------------------------------------------------
def _cursor_payload(unit: SweepUnit, key: str, origins, cursor: BatchCursor) -> dict:
    return {
        "unit": {
            "scenario": unit.scenario,
            "n": unit.n,
            "num_origins": unit.num_origins,
            "batch_index": unit.batch_index,
            "num_batches": unit.num_batches,
            "seed": unit.seed,
        },
        "unit_key": key,
        "origins": list(origins),
        "next_index": cursor.next_index,
        "raw": raw_sums_to_json(cursor.accumulator.raw_sums()),
        "down_totals": [
            [node_type.value, cursor.down_totals[node_type]]
            for node_type in NodeType
        ],
        "up_totals": [
            [node_type.value, cursor.up_totals[node_type]] for node_type in NodeType
        ],
        "down_convergence": cursor.down_convergence,
        "up_convergence": cursor.up_convergence,
        "measured_messages": cursor.measured_messages,
        "wall_clock_seconds": cursor.elapsed(),
        "network": snapshot_network(cursor.network),
    }


def _cursor_from_payload(payload: dict, *, key: str, graph, origins) -> BatchCursor:
    if payload.get("unit_key") != key:
        raise CheckpointError(
            "checkpoint belongs to a different sweep unit (key mismatch)"
        )
    if payload.get("origins") != list(origins):
        raise CheckpointError(
            "checkpoint origin list does not match this unit's origins"
        )
    next_index = int(payload["next_index"])
    if not 0 <= next_index <= len(origins):
        raise CheckpointError(
            f"checkpoint event index {next_index} outside 0..{len(origins)}"
        )
    accumulator = FactorAccumulator(graph)
    accumulator.load_raw_sums(raw_sums_from_json(payload["raw"]))
    return BatchCursor(
        network=restore_network(graph, payload["network"]),
        accumulator=accumulator,
        next_index=next_index,
        down_totals={
            NodeType(value): float(total) for value, total in payload["down_totals"]
        },
        up_totals={
            NodeType(value): float(total) for value, total in payload["up_totals"]
        },
        down_convergence=float(payload["down_convergence"]),
        up_convergence=float(payload["up_convergence"]),
        measured_messages=int(payload["measured_messages"]),
        prior_wall_clock=float(payload["wall_clock_seconds"]),
    )


def load_unit_cursor(
    path: Union[str, Path], unit: SweepUnit, graph, origins
) -> BatchCursor:
    """Rebuild a batch cursor from a unit checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` if the file is corrupt,
    was written by another code version, or belongs to a different unit.
    """
    document = read_checkpoint(path, expected_kind=KIND_SWEEP_UNIT)
    return _cursor_from_payload(
        document.payload,
        key=unit_checkpoint_key(unit),
        graph=graph,
        origins=origins,
    )


def execute_sweep_unit_checkpointed(
    unit: SweepUnit,
    checkpoint_dir: Union[str, Path],
    *,
    checkpoint_every: int = 1,
    resume: bool = True,
) -> CEventBatchResult:
    """Run one sweep unit with periodic checkpoints under ``checkpoint_dir``.

    Resumes from an existing valid checkpoint of the same unit (unless
    ``resume=False``); an invalid or foreign checkpoint file is reported
    on stderr, counted (``checkpoint.discarded``) and the unit restarts
    from scratch.  On success the checkpoint file is removed — a
    populated checkpoint directory always means interrupted work.

    Under a telemetry session the cost shows up as the ``checkpoint``
    phase (snapshot + write) and the ``checkpoint.writes`` / ``.bytes``
    / ``.resumes`` / ``.discarded`` counters.

    The returned result is byte-identical to
    :func:`~repro.core.sweep.execute_sweep_unit` for the same unit,
    whether or not the execution was interrupted and resumed.
    """
    if checkpoint_every < 1:
        raise CheckpointError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    params = scenario_params(unit.scenario, unit.n, **dict(unit.scenario_kwargs))
    topo_seed, sim_seed = sweep_point_seeds(unit.seed, unit.n)
    graph = generate_topology(params, seed=topo_seed)
    origin_list = pick_origins(graph, unit.num_origins, sim_seed)
    batch = split_origins(origin_list, unit.num_batches)[unit.batch_index]

    obs = current_telemetry()
    key = unit_checkpoint_key(unit)
    path = unit_checkpoint_path(checkpoint_dir, unit)
    cursor: Optional[BatchCursor] = None
    if resume and path.exists():
        try:
            cursor = load_unit_cursor(path, unit, graph, batch)
            obs.inc("checkpoint.resumes")
        except CheckpointError as exc:
            # Unusable checkpoint: recompute from scratch, but say so.
            obs.inc("checkpoint.discarded")
            print(
                f"repro: discarding checkpoint {path.name} of {unit.scenario} "
                f"n={unit.n} batch {unit.batch_index}/{unit.num_batches}, "
                f"recomputing the unit from scratch: {exc}",
                file=sys.stderr,
            )

    maybe_inject_fault(unit, cursor.next_index if cursor is not None else 0)

    def after_event(live: BatchCursor) -> None:
        if live.next_index < len(batch) and live.next_index % checkpoint_every == 0:
            # One pause over the payload's whole life: built, written and
            # dropped before the collector gets to look at it.
            with obs.phase("checkpoint"), gc_paused():
                write_checkpoint(
                    path, KIND_SWEEP_UNIT, _cursor_payload(unit, key, batch, live)
                )
            if obs.enabled:
                obs.inc("checkpoint.writes")
                obs.inc("checkpoint.bytes", path.stat().st_size)
        maybe_inject_fault(unit, live.next_index)

    result = run_c_event_batch(
        graph,
        unit.config,
        origins=batch,
        seed=origin_batch_seed(sim_seed, unit.batch_index, unit.num_batches),
        cursor=cursor,
        after_event=after_event,
    )
    path.unlink(missing_ok=True)
    return result
