"""Pinned measurement-plane files: two sweep-unit checkpoints and a result frame.

Recorded by release 1.6.0 from one smoke sweep unit: Baseline n=60,
sweep seed 17, 4 origins in one batch, MRAI 2 s, link delay 1 ms and
service times up to 10 ms (``FAST`` and ``_unit`` in ``test_batch.py``).

* ``sweep_unit_record.json`` is the unit's checkpoint after 2 of its 4
  C-events, written as a boundary record (``boundary`` + ``sums``).
* ``sweep_unit_snapshot.json`` is the same point as a full snapshot
  (``raw`` + ``network``), written with the record switched off
  (:func:`tests.checkpoint.legacy.write_full_snapshot_units`).
* ``result_frame.json`` is the body of the worker's ``result`` frame for
  the finished unit (the frame minus its 4-byte length prefix).

However the factor sums are held in memory, each file must read into the
same merged :class:`~repro.core.cevent.CEventStats` as a fresh run of the
unit, and write back byte for byte.  The two release-1.6.0 network files
must also re-dump their update-counter state unchanged.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import repro.checkpoint.batch as batch_module
import repro.checkpoint.format as format_module
from repro.checkpoint import KIND_NETWORK, restore_network, snapshot_network
from repro.checkpoint.format import KIND_SWEEP_UNIT, read_checkpoint, write_checkpoint
from repro.core.cevent import merge_c_event_batches, pick_origins, run_c_event_batch
from repro.core.sweep import execute_sweep_unit
from repro.dist.protocol import (
    batch_result_from_wire,
    batch_result_to_wire,
    decode_frame_payload,
    encode_frame,
)
from repro.experiments.results_io import cevent_stats_to_dict
from repro.sim.rng import origin_batch_seed, sweep_point_seeds
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params

from tests.checkpoint.legacy import write_full_snapshot_units
from tests.checkpoint.test_batch import FAST, _unit

DATA = Path(__file__).parent / "data"
CHECKPOINTS = ["sweep_unit_record.json", "sweep_unit_snapshot.json"]
RESULT_FRAME = DATA / "result_frame.json"

#: SHA-256 of the unit's merged statistics (``cevent_stats_to_dict``,
#: wall clock zeroed, sorted keys) as release 1.6.0 computed them.
EXPECTED_STATS = "46cffcc7941e3a0cc35b5bc60d3af9f9446aee852be7a4db4488eea61368e75c"

UNIT = _unit("baseline", 60, FAST)


def _stats_digest(stats) -> str:
    data = cevent_stats_to_dict(dataclasses.replace(stats, wall_clock_seconds=0.0))
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _unit_inputs():
    """The unit's topology, origins and batch seed, as the sweep derives them."""
    topo_seed, sim_seed = sweep_point_seeds(UNIT.seed, UNIT.n)
    graph = generate_topology(scenario_params(UNIT.scenario, UNIT.n), seed=topo_seed)
    origins = pick_origins(graph, UNIT.num_origins, sim_seed)
    seed = origin_batch_seed(sim_seed, UNIT.batch_index, UNIT.num_batches)
    return graph, origins, seed


def _cursor(payload):
    """The batch cursor a checkpoint payload holds, under the file's own key."""
    graph, origins, seed = _unit_inputs()
    cursor = batch_module._cursor_from_payload(
        payload,
        key=payload["unit_key"],
        graph=graph,
        origins=origins,
        config=FAST,
        seed=seed,
    )
    return graph, origins, seed, cursor


def test_a_fresh_run_merges_to_the_pinned_statistics():
    stats = merge_c_event_batches([execute_sweep_unit(UNIT)])
    assert _stats_digest(stats) == EXPECTED_STATS


@pytest.mark.parametrize("name", CHECKPOINTS)
def test_a_checkpoint_resumes_to_the_pinned_statistics(name):
    payload = read_checkpoint(DATA / name, expected_kind=KIND_SWEEP_UNIT).payload
    graph, origins, seed, cursor = _cursor(payload)
    assert cursor.next_index == 2
    result = run_c_event_batch(graph, FAST, origins=origins, seed=seed, cursor=cursor)
    assert _stats_digest(merge_c_event_batches([result])) == EXPECTED_STATS


@pytest.mark.parametrize("name", CHECKPOINTS)
def test_a_checkpoint_is_written_back_byte_for_byte(name, tmp_path, monkeypatch):
    fixture = DATA / name
    document = read_checkpoint(fixture, expected_kind=KIND_SWEEP_UNIT)
    if "network" in document.payload:
        write_full_snapshot_units(monkeypatch)
    _graph, origins, _seed, cursor = _cursor(document.payload)
    payload = batch_module._cursor_payload(
        UNIT, document.payload["unit_key"], origins, cursor
    )
    # A restored cursor's clock restarts; the file keeps the elapsed time.
    payload["wall_clock_seconds"] = cursor.prior_wall_clock
    monkeypatch.setattr(format_module, "__version__", document.code_version)
    written = tmp_path / name
    write_checkpoint(written, KIND_SWEEP_UNIT, payload)
    assert written.read_bytes() == fixture.read_bytes()


def test_the_result_frame_merges_to_the_pinned_statistics():
    message = decode_frame_payload(RESULT_FRAME.read_bytes())
    result = batch_result_from_wire(message["result"])
    assert result.origins == _unit_inputs()[1]
    assert _stats_digest(merge_c_event_batches([result])) == EXPECTED_STATS


def test_the_result_frame_is_written_back_byte_for_byte():
    blob = RESULT_FRAME.read_bytes()
    message = decode_frame_payload(blob)
    del message["v"]
    message["result"] = batch_result_to_wire(batch_result_from_wire(message["result"]))
    frame = encode_frame(message)
    assert frame[4:] == blob
    assert int.from_bytes(frame[:4], "big") == len(blob)


@pytest.mark.parametrize(
    "name", ["int_token_network.json", "per_interface_network.json"]
)
def test_a_network_file_re_dumps_its_counter_state(name):
    payload = read_checkpoint(DATA / name, expected_kind=KIND_NETWORK).payload
    graph = generate_topology(scenario_params("baseline", 60), seed=11)
    snapshot = snapshot_network(restore_network(graph, payload))
    assert snapshot["counter"] == payload["counter"]
