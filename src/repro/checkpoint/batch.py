"""Checkpointed execution of one sweep unit.

A :class:`~repro.core.sweep.SweepUnit` is the unit of work the parallel
sweep executor ships to worker processes; this module wraps its
execution with periodic on-disk checkpoints so a unit killed mid-flight
(worker crash, OOM, Ctrl-C) resumes from its last completed C-event
instead of starting over.

Checkpoints are written at origin boundaries — after every measured
C-event but the last, so a crash loses at most one C-event per unit.
This module alone decides that cadence; no caller sets it.  There the
event heap is empty and the event's prefix is retired, so no node holds
a route: the checkpoint is a *boundary record* — the engine clock, one
row of counters per node (its RNG stream as a draw count plus the value
drawn last), the channels' timers, and the factor sums as columns — from
which a fresh network is rebuilt byte-identical to the live one.  A
network the record cannot express (one that still holds routes, or a
node restored from a pre-1.6 full RNG state) is written as a full
:func:`~repro.checkpoint.network.snapshot_network` payload instead, and
the reader tells the two layouts apart by shape.  Nothing is written
after the last event: the unit's result is returned (and the file
removed) on the next line, and a crash in between resumes from the
previous checkpoint to the same result.

Each unit's checkpoint file is named after a content hash of the unit's
inputs: a stale file from a different sweep, seed, or code version can
never be resumed by accident.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Union

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
from repro.errors import CheckpointError, SimulationError
from repro.files import sha256
from repro.obs.telemetry import current_telemetry
from repro.prefix.prefix import prefix_from_json, prefix_to_json
from repro.sim.network import SimNetwork
from repro.sim.rng import origin_batch_seed, sweep_point_seeds
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params
from repro.topology.types import RELATIONSHIP_ORDER, NodeType

#: The relationship classes in factor-sum column order.
_REL_VALUES = tuple(rel.value for rel in RELATIONSHIP_ORDER)


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
    return sha256(blob.encode("utf-8"))


def unit_checkpoint_path(checkpoint_dir: Union[str, Path], unit: SweepUnit) -> Path:
    """Where ``unit``'s in-progress checkpoint lives under ``checkpoint_dir``."""
    return Path(checkpoint_dir) / f"unit-{unit_checkpoint_key(unit)[:32]}.json"


# ----------------------------------------------------------------------
# Raw factor sums codec
# ----------------------------------------------------------------------
def relationship_rows(node_ids, columns) -> list:
    """Per-class columns as rows in node order.

    A row is ``[node_id, [[class, count], ...]]`` with the classes in
    column order (customer, peer, provider): how files and frames store
    per-node, per-relationship counts.
    """
    return [
        [node_id, [[value, count] for value, count in zip(_REL_VALUES, counts)]]
        for node_id, *counts in zip(node_ids, *columns)
    ]


def relationship_columns(rows, node_ids) -> List[List[int]]:
    """Inverse of :func:`relationship_rows`.

    Raises :class:`~repro.errors.CheckpointError` unless the rows list
    ``node_ids`` in order and each covers the classes in column order.
    """
    if [int(node_id) for node_id, _per_rel in rows] != list(node_ids):
        raise CheckpointError("per-relationship rows do not follow the node order")
    columns: List[List[int]] = [[] for _ in _REL_VALUES]
    for _node_id, per_rel in rows:
        if [rel for rel, _count in per_rel] != list(_REL_VALUES):
            raise CheckpointError(
                "per-relationship rows must list customer, peer, provider"
            )
        for column, (_rel, count) in zip(columns, per_rel):
            column.append(int(count))
    return columns


def raw_sums_to_json(raw: RawFactorSums) -> dict:
    """Serialize :class:`RawFactorSums` as rows in node order.

    The ``raw`` layout of a full-snapshot checkpoint and of a result
    frame.
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
        raise CheckpointError(f"malformed factor sums in checkpoint: {exc}") from exc


# ----------------------------------------------------------------------
# The boundary record
# ----------------------------------------------------------------------
def boundary_record(network: SimNetwork) -> Optional[dict]:
    """``network`` at a C-event boundary as a positional record, or None.

    After a C-event has converged and its prefix is retired, the event
    heap is empty and every node holds only counters, timers and its RNG
    stream (see :meth:`BGPNode.boundary_state`).  The record keeps the
    engine clock, one row per node in node order and the per-prefix MRAI
    gates that outlive the retirement.  The update counter is left out:
    the next measured phase starts by clearing it.  None when the network
    holds anything more (a pending event, a route, a monitor trace, a
    node restored from a full RNG state): only a full snapshot captures
    that.
    """
    engine = network.engine
    if engine.pending_events or network.trace is not None:
        return None
    rows = []
    prefix_gates = []
    for node_id, node in network.nodes.items():
        state = node.boundary_state()
        if state is None:
            return None
        row, gates = state
        rows.append(row)
        for neighbor, prefix, gate in gates:
            prefix_gates.append([node_id, neighbor, prefix_to_json(prefix), gate])
    return {
        "now": engine.now,
        "next_sequence": engine.next_sequence,
        "executed_events": engine.executed_events,
        "cancelled_events": engine.cancelled_events,
        "delivered_messages": network.delivered_messages,
        "nodes": rows,
        "prefix_gates": prefix_gates,
    }


def restore_boundary(graph, config, seed: int, record: dict) -> SimNetwork:
    """Rebuild the network a :func:`boundary_record` was taken from.

    A fresh network of ``graph``, ``config`` and ``seed`` (the unit's)
    replays every node's stream to its recorded count and takes its
    counters and timers back.  Raises
    :class:`~repro.errors.CheckpointError` on a malformed record or a
    stream that does not end on the recorded last draw.
    """
    network = SimNetwork(graph, config, seed=seed)
    rows = record["nodes"]
    if len(rows) != len(network.nodes):
        raise CheckpointError(
            f"boundary record has {len(rows)} nodes, the topology {len(graph)}"
        )
    gates_by_node: dict = {}
    for node_id, neighbor, prefix, gate in record["prefix_gates"]:
        entry = (
            _count(neighbor, "neighbour id"),
            prefix_from_json(prefix),
            _amount(gate, "gate"),
        )
        gates_by_node.setdefault(_count(node_id, "node id"), []).append(entry)
    for node, row in zip(network.nodes.values(), rows):
        node.restore_boundary(_boundary_row(row), gates_by_node.pop(node.node_id, ()))
    if gates_by_node:
        raise CheckpointError(
            f"boundary record has gates of unknown nodes {sorted(gates_by_node)}"
        )
    network.engine.restore_state(
        now=_amount(record["now"], "clock"),
        next_sequence=_count(record["next_sequence"], "event sequence"),
        executed_events=_count(record["executed_events"], "executed events"),
        cancelled_events=_count(
            record.get("cancelled_events", 0), "cancelled events"
        ),
        pending=[],
    )
    network.delivered_messages = _count(
        record["delivered_messages"], "delivered messages"
    )
    network.stop_counting()
    return network


def _boundary_row(row: list) -> list:
    """One record row, every field type-checked (see ``boundary_state``)."""
    (
        draws,
        last_draw,
        processed,
        busy_time,
        service_delay,
        max_queue,
        decisions_run,
        decisions_skipped,
        arms,
        gates,
    ) = row
    return [
        _count(draws, "draw count"),
        None if last_draw is None else _amount(last_draw, "last draw"),
        _count(processed, "processed count"),
        _amount(busy_time, "busy time"),
        _amount(service_delay, "service delay"),
        _count(max_queue, "queue length"),
        _count(decisions_run, "decision count"),
        _count(decisions_skipped, "decision count"),
        [_count(count, "timer count") for count in arms],
        [_amount(gate, "gate") for gate in gates],
    ]


def _count(value, what: str) -> int:
    """A non-negative integer read from a checkpoint."""
    if type(value) is not int or value < 0:
        raise CheckpointError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _amount(value, what: str) -> float:
    """A finite non-negative number read from a checkpoint."""
    if type(value) not in (int, float) or not 0.0 <= value < math.inf:
        raise CheckpointError(f"{what} must be a finite number >= 0, got {value!r}")
    return float(value)


# ----------------------------------------------------------------------
# Checkpointed unit execution
# ----------------------------------------------------------------------
def _cursor_payload(unit: SweepUnit, key: str, origins, cursor: BatchCursor) -> dict:
    payload = {
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
    }
    record = boundary_record(cursor.network)
    if record is not None:
        payload["boundary"] = record
        payload["sums"] = cursor.accumulator.sum_columns()
    else:
        payload["raw"] = raw_sums_to_json(cursor.accumulator.raw_sums())
        payload["network"] = snapshot_network(cursor.network)
    return payload


def _type_totals(pairs, what: str) -> dict:
    totals = {NodeType(value): _amount(total, what) for value, total in pairs}
    if len(totals) != len(pairs) or set(totals) != set(NodeType):
        raise CheckpointError(f"{what} must cover every node type exactly once")
    return totals


def _checked_sums(raw: RawFactorSums, node_ids, events: int) -> RawFactorSums:
    """``raw`` if it is a complete set of non-negative integer sums."""
    if raw.events != events:
        raise CheckpointError(
            f"factor sums cover {raw.events} events, the cursor {events}"
        )
    if raw.node_ids != tuple(node_ids):
        raise CheckpointError("factor sums do not cover this topology's nodes")
    for column in raw.updates + raw.active + [raw.total_updates]:
        for count in column:
            _count(count, "factor sum")
    return raw


def _cursor_from_payload(
    payload: dict, *, key: str, graph, origins, config, seed: int
) -> BatchCursor:
    """One reader for both layouts, told apart by shape.

    A payload with ``boundary`` is a record (the network rebuilt from
    draw counts and last draws, the sums stored as columns); one with
    ``network`` is a full snapshot: the only layout written before
    boundary records, and still the one for a network the record cannot
    express.
    Every field is type- and range-checked: a malformed or inconsistent
    file is a :class:`~repro.errors.CheckpointError`, never a crash or a
    resumed batch with wrong sums.
    """
    try:
        if payload.get("unit_key") != key:
            raise CheckpointError(
                "checkpoint belongs to a different sweep unit (key mismatch)"
            )
        if payload.get("origins") != list(origins):
            raise CheckpointError(
                "checkpoint origin list does not match this unit's origins"
            )
        next_index = _count(payload["next_index"], "event index")
        if next_index > len(origins):
            raise CheckpointError(
                f"checkpoint event index {next_index} outside 0..{len(origins)}"
            )
        down_totals = _type_totals(payload["down_totals"], "down totals")
        up_totals = _type_totals(payload["up_totals"], "up totals")
        down_convergence = _amount(payload["down_convergence"], "convergence time")
        up_convergence = _amount(payload["up_convergence"], "convergence time")
        measured_messages = _count(payload["measured_messages"], "message count")
        wall_clock = _amount(payload["wall_clock_seconds"], "wall clock")
        node_ids = graph.node_ids
        if "boundary" in payload:
            raw = RawFactorSums.from_columns(node_ids, payload["sums"])
            network = restore_boundary(graph, config, seed, payload["boundary"])
        else:
            raw = raw_sums_from_json(payload["raw"])
            network = restore_network(graph, payload["network"])
        accumulator = FactorAccumulator(graph)
        accumulator.load_raw_sums(_checked_sums(raw, node_ids, next_index))
    except (KeyError, TypeError, ValueError, SimulationError) as exc:
        raise CheckpointError(f"malformed sweep-unit checkpoint: {exc}") from exc
    return BatchCursor(
        network=network,
        accumulator=accumulator,
        next_index=next_index,
        down_totals=down_totals,
        up_totals=up_totals,
        down_convergence=down_convergence,
        up_convergence=up_convergence,
        measured_messages=measured_messages,
        prior_wall_clock=wall_clock,
    )


def load_unit_cursor(
    path: Union[str, Path], unit: SweepUnit, graph, origins
) -> BatchCursor:
    """Rebuild a batch cursor from a unit checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` if the file is corrupt,
    malformed, was written by another code version, or belongs to a
    different unit.
    """
    document = read_checkpoint(path, expected_kind=KIND_SWEEP_UNIT)
    _topo_seed, sim_seed = sweep_point_seeds(unit.seed, unit.n)
    return _cursor_from_payload(
        document.payload,
        key=unit_checkpoint_key(unit),
        graph=graph,
        origins=origins,
        config=unit.config,
        seed=origin_batch_seed(sim_seed, unit.batch_index, unit.num_batches),
    )


def execute_sweep_unit_checkpointed(
    unit: SweepUnit,
    checkpoint_dir: Union[str, Path],
) -> CEventBatchResult:
    """Run one sweep unit with a checkpoint after every C-event but the last.

    Resumes from an existing valid checkpoint of the same unit; an
    invalid or foreign checkpoint file is reported on stderr, counted
    (``checkpoint.discarded``) and the unit restarts from scratch.  On success the checkpoint file is removed — a
    populated checkpoint directory always means interrupted work.

    Under a telemetry session the cost shows up as the ``checkpoint``
    phase (record or snapshot, and write) and the ``checkpoint.writes``
    / ``.bytes`` / ``.resumes`` / ``.discarded`` counters.

    The returned result is byte-identical to
    :func:`~repro.core.sweep.execute_sweep_unit` for the same unit,
    whether or not the execution was interrupted and resumed.
    """
    params = scenario_params(unit.scenario, unit.n, **dict(unit.scenario_kwargs))
    topo_seed, sim_seed = sweep_point_seeds(unit.seed, unit.n)
    graph = generate_topology(params, seed=topo_seed)
    origin_list = pick_origins(graph, unit.num_origins, sim_seed)
    batch = split_origins(origin_list, unit.num_batches)[unit.batch_index]

    obs = current_telemetry()
    key = unit_checkpoint_key(unit)
    path = unit_checkpoint_path(checkpoint_dir, unit)
    cursor: Optional[BatchCursor] = None
    if path.exists():
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
        if live.next_index < len(batch):
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
