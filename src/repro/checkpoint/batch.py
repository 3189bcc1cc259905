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
a route: a unit checkpoint has one layout, the *boundary record* — the
engine clock, one row of counters per node (its RNG stream as a draw
count plus the value drawn last), the channels' timers, and the factor
sums as columns — from which a fresh network is rebuilt byte-identical
to the live one.  A network the record cannot express at a boundary is
a kernel fault (:class:`~repro.errors.SimulationError`), and a payload
without a record (the full-snapshot unit files of earlier builds) is
discarded and the unit recomputed, never resumed.  Nothing is written
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
from typing import Optional, Union

from repro._version import __version__
from repro.checkpoint.format import (
    KIND_SWEEP_UNIT,
    gc_paused,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.cevent import BatchCursor, CEventBatchResult, run_c_event_batch
from repro.core.factors import FactorAccumulator, RawFactorSums
from repro.core.sweep import SweepUnit, unit_inputs
from repro.errors import CheckpointError, SimulationError
from repro.files import sha256
from repro.obs.telemetry import current_telemetry
from repro.prefix.prefix import prefix_from_json, prefix_to_json
from repro.sim.network import SimNetwork
from repro.topology.types import NodeType


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
    node restored from a full RNG state): at a sweep unit's C-event
    boundary that is a kernel fault.
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
    if record is None:
        raise SimulationError(
            f"sweep unit {unit.scenario} n={unit.n} batch {unit.batch_index}/"
            f"{unit.num_batches}: the network after C-event {cursor.next_index} "
            "holds more than a boundary record (a route, a pending event or a trace)"
        )
    payload["boundary"] = record
    payload["sums"] = cursor.accumulator.sum_columns()
    return payload


def _type_totals(pairs, what: str) -> dict:
    totals = {NodeType(value): _amount(total, what) for value, total in pairs}
    if len(totals) != len(pairs) or set(totals) != set(NodeType):
        raise CheckpointError(f"{what} must cover every node type exactly once")
    return totals


def _checked_sums(raw: RawFactorSums, events: int) -> RawFactorSums:
    """``raw`` if it is a complete set of non-negative integer sums."""
    if raw.events != events:
        raise CheckpointError(
            f"factor sums cover {raw.events} events, the cursor {events}"
        )
    for column in raw.updates + raw.active + [raw.total_updates]:
        for count in column:
            _count(count, "factor sum")
    return raw


def _cursor_from_payload(
    payload: dict, *, key: str, graph, origins, config, seed: int
) -> BatchCursor:
    """The batch cursor a boundary-record payload holds.

    The network is rebuilt from draw counts and last draws, the sums
    come from columns.  A payload without ``boundary`` (the full-snapshot
    layout of earlier builds) is refused like any other unusable file.
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
        if "boundary" not in payload:
            raise CheckpointError(
                "not a boundary record: a full-snapshot unit file of an "
                "earlier build is recomputed, never resumed"
            )
        raw = RawFactorSums.from_columns(graph.node_ids, payload["sums"])
        network = restore_boundary(graph, config, seed, payload["boundary"])
        accumulator = FactorAccumulator(graph)
        accumulator.load_raw_sums(_checked_sums(raw, next_index))
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
    phase (record and write) and the ``checkpoint.writes``
    / ``.bytes`` / ``.resumes`` / ``.discarded`` counters.

    The returned result is byte-identical to
    :func:`~repro.core.sweep.execute_sweep_unit` for the same unit,
    whether or not the execution was interrupted and resumed.
    """
    graph, batch, seed = unit_inputs(unit)
    obs = current_telemetry()
    key = unit_checkpoint_key(unit)
    path = unit_checkpoint_path(checkpoint_dir, unit)
    cursor: Optional[BatchCursor] = None
    if path.exists():
        try:
            cursor = _cursor_from_payload(
                read_checkpoint(path, expected_kind=KIND_SWEEP_UNIT).payload,
                key=key,
                graph=graph,
                origins=batch,
                config=unit.config,
                seed=seed,
            )
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

    result = run_c_event_batch(
        graph,
        unit.config,
        origins=batch,
        seed=seed,
        cursor=cursor,
        after_event=after_event,
    )
    path.unlink(missing_ok=True)
    return result
