"""Sweep units checkpoint as a C-event boundary record.

After a measured C-event converges and its prefix is retired, a network
holds no route, queue or pending event: a record of per-node counters,
channel timers and RNG streams (draw count plus the value drawn last)
rebuilds it exactly.  Covered here: the rebuilt network equals the live
one and a resumed unit equals an uninterrupted one under every MRAI
variant; a stream whose count is off is refused; a network with more
state is no boundary; and a malformed or inconsistent unit file — a
record, or the full snapshot (``raw`` + ``network``) an earlier build
wrote — is discarded, never resumed.
"""

import json
import math
from pathlib import Path

import pytest

import repro.checkpoint.batch as batch_module
from repro.bgp.config import DampingConfig, MRAIMode
from repro.checkpoint import snapshot_network
from repro.checkpoint.batch import (
    boundary_record,
    execute_sweep_unit_checkpointed,
    restore_boundary,
    unit_checkpoint_path,
)
from repro.checkpoint.format import KIND_SWEEP_UNIT, read_checkpoint, write_checkpoint
from repro.core.cevent import pick_origins, run_c_event_batch
from repro.core.sweep import execute_sweep_unit
from repro.errors import CheckpointError
from repro.obs import telemetry_session
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params

from tests.checkpoint.test_batch import (
    FAST,
    Interrupt,
    _assert_identical,
    _interrupt_after,
    _unit,
)

P0 = host_prefix(0)

_GRAPH = generate_topology(scenario_params("BASELINE", 60), seed=7)
_SEED = 5
_DAMPING = DampingConfig(
    enabled=True, suppress_threshold=1.5, reuse_threshold=0.5, half_life=5.0
)

CONFIGS = [
    pytest.param(
        FAST.replace(
            wrate=wrate,
            mrai_mode=mode,
            damping=_DAMPING if damping else DampingConfig(),
        ),
        id=f"{'wrate' if wrate else 'no-wrate'}/{mode.value}/"
        f"{'damping' if damping else 'plain'}",
    )
    for wrate in (False, True)
    for mode in MRAIMode
    for damping in (False, True)
]


def _without_counter(payload):
    """A full snapshot minus the update counter, which a record leaves out."""
    return {key: value for key, value in payload.items() if key != "counter"}


def _records(config, events=3):
    """(live network, JSON round-tripped record) after every measured event."""
    taken = []

    def after_event(cursor):
        record = boundary_record(cursor.network)
        assert record is not None, "a C-event boundary must be expressible"
        live = _without_counter(snapshot_network(cursor.network))
        taken.append((live, json.loads(json.dumps(record))))

    origins = pick_origins(_GRAPH, events, _SEED)
    run_c_event_batch(
        _GRAPH, config, origins=origins, seed=_SEED, after_event=after_event
    )
    return taken


class TestRecordRebuildsTheNetwork:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_rebuilt_network_equals_the_live_one(self, config):
        for live, record in _records(config):
            restored = restore_boundary(_GRAPH, config, _SEED, record)
            assert _without_counter(snapshot_network(restored)) == live

    def test_per_prefix_gates_outlive_retirement(self):
        config = FAST.replace(wrate=True, mrai_mode=MRAIMode.PER_PREFIX)
        assert any(record["prefix_gates"] for _live, record in _records(config))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_resumed_unit_is_byte_identical(self, tmp_path, monkeypatch, config):
        unit = _unit("baseline", 60, config)
        plain = execute_sweep_unit(unit)
        _interrupt_after(monkeypatch, events=2)
        with pytest.raises(Interrupt):
            execute_sweep_unit_checkpointed(unit, tmp_path)
        monkeypatch.undo()
        payload = read_checkpoint(unit_checkpoint_path(tmp_path, unit)).payload
        assert "boundary" in payload and "network" not in payload

        with telemetry_session() as hub:
            resumed = execute_sweep_unit_checkpointed(unit, tmp_path)
        assert hub.counters["checkpoint.resumes"] == 1
        _assert_identical(plain, resumed)

    def test_a_network_mid_flood_is_not_a_boundary(self):
        network = SimNetwork(_GRAPH, FAST, seed=_SEED)
        network.originate(pick_origins(_GRAPH, 1, _SEED)[0], P0)
        for _ in range(50):
            network.engine.step()
        assert boundary_record(network) is None
        network.run_to_convergence()
        assert boundary_record(network) is None  # still holds the routes
        network.retire(P0)
        assert boundary_record(network) is not None


class TestWrongStreamIsRefused:
    def _record(self):
        return _records(FAST)[-1][1]

    @pytest.mark.parametrize("delta", [1, 312, 624])
    def test_draw_count_off_by_delta(self, delta):
        record = self._record()
        row = max(record["nodes"], key=lambda row: row[0])
        # Counters moved along, so they account for the count: only the
        # last-draw fingerprint tells the streams apart.
        row[0] += delta
        row[2] += delta
        with pytest.raises(CheckpointError, match="last draw"):
            restore_boundary(_GRAPH, FAST, _SEED, record)

    def test_tampered_last_draw(self):
        record = self._record()
        row = max(record["nodes"], key=lambda row: row[0])
        row[1] = math.nextafter(row[1], 1.0)
        with pytest.raises(CheckpointError, match="last draw"):
            restore_boundary(_GRAPH, FAST, _SEED, record)

    def test_count_the_counters_do_not_account_for(self):
        record = self._record()
        row = max(record["nodes"], key=lambda row: row[0])
        network = SimNetwork(_GRAPH, FAST, seed=_SEED)
        node = network.node(_GRAPH.node_ids[record["nodes"].index(row)])
        node._replay_stream(row[0] + 1)
        row[0] += 1
        row[1] = node._last_draw
        with pytest.raises(CheckpointError, match="account for"):
            restore_boundary(_GRAPH, FAST, _SEED, record)

    def test_wrong_seed(self):
        with pytest.raises(CheckpointError, match="last draw"):
            restore_boundary(_GRAPH, FAST, _SEED + 1, self._record())


# ----------------------------------------------------------------------
# Malformed and inconsistent unit files
# ----------------------------------------------------------------------
def _set(*keys, value):
    def edit(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return edit


def _drop_type(field, node_type="M"):
    def edit(payload):
        payload[field] = [pair for pair in payload[field] if pair[0] != node_type]

    return edit


#: Edits of the cursor fields around the record.
CURSOR_EDITS = [
    pytest.param(_set("down_convergence", value="abc"), id="convergence-not-a-number"),
    pytest.param(_set("up_convergence", value=-1.0), id="negative-convergence"),
    pytest.param(_drop_type("down_totals"), id="totals-without-M"),
    pytest.param(_set("up_totals", value=[["M", 1.0]] * 5), id="totals-repeated"),
    pytest.param(_set("measured_messages", value=-3), id="negative-messages"),
    pytest.param(_set("measured_messages", value=2.5), id="fractional-messages"),
    pytest.param(_set("wall_clock_seconds", value=-5.0), id="negative-wall-clock"),
    pytest.param(_set("wall_clock_seconds", value=math.nan), id="nan-wall-clock"),
    pytest.param(_set("next_index", value=3), id="index-ahead-of-sums"),
    pytest.param(_set("next_index", value=True), id="index-not-an-int"),
]

RECORD_EDITS = [
    pytest.param(_set("sums", "events", value=99), id="events-99"),
    pytest.param(_set("sums", "events", value=-1), id="events-negative"),
    pytest.param(
        lambda payload: payload["sums"]["total_updates"].__setitem__(0, -2),
        id="negative-sum",
    ),
    pytest.param(
        lambda payload: payload["sums"]["active"].pop(), id="missing-relationship"
    ),
    pytest.param(
        lambda payload: payload["boundary"]["nodes"].pop(), id="missing-node-row"
    ),
    pytest.param(
        lambda payload: payload["boundary"]["nodes"][0].pop(), id="short-node-row"
    ),
    pytest.param(_set("boundary", "now", value="later"), id="clock-not-a-number"),
    pytest.param(_set("sums", value=None), id="sums-not-an-object"),
]

SNAPSHOT_EDITS = [
    pytest.param(_set("raw", "events", value=99), id="events-99"),
    pytest.param(_set("raw", "events", value=-1), id="events-negative"),
    pytest.param(
        lambda payload: payload["raw"]["total_updates"][0].__setitem__(1, -7),
        id="negative-sum",
    ),
    pytest.param(
        lambda payload: payload["raw"]["updates"][0][1].pop(),
        id="missing-relationship",
    ),
]

#: The unit's checkpoint after event 2 as an earlier build wrote it.
FULL_SNAPSHOT = Path(__file__).parent / "data" / "sweep_unit_snapshot.json"


def resume_from_a_tampered_file(tmp_path, monkeypatch, capsys, edit, full=False):
    """Checkpoint a unit at event 2 (or take :data:`FULL_SNAPSHOT` if
    ``full``), ``edit`` the payload and re-write it with a valid digest,
    resume: the unit must be recomputed from scratch, reported and
    counted."""
    unit = _unit("baseline", 60, FAST)
    path = unit_checkpoint_path(tmp_path, unit)
    if full:
        payload = read_checkpoint(FULL_SNAPSHOT).payload
    else:
        _interrupt_after(monkeypatch, events=2)
        with pytest.raises(Interrupt):
            execute_sweep_unit_checkpointed(unit, tmp_path)
        monkeypatch.undo()
        payload = read_checkpoint(path).payload
    edit(payload)
    write_checkpoint(path, KIND_SWEEP_UNIT, payload)  # with a valid digest

    run_batch = batch_module.run_c_event_batch
    starts = []

    def recording(*args, **kwargs):
        starts.append(kwargs["cursor"])
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(batch_module, "run_c_event_batch", recording)
    with telemetry_session() as hub:
        result = execute_sweep_unit_checkpointed(unit, tmp_path)
    assert starts == [None], "an inconsistent checkpoint must not be resumed"
    assert hub.counters["checkpoint.discarded"] == 1
    assert "discarding checkpoint" in capsys.readouterr().err
    _assert_identical(execute_sweep_unit(unit), result)
    assert 0.0 <= result.wall_clock_seconds < math.inf


@pytest.mark.parametrize("edit", CURSOR_EDITS + RECORD_EDITS)
def test_a_malformed_record_is_recomputed(tmp_path, monkeypatch, capsys, edit):
    resume_from_a_tampered_file(tmp_path, monkeypatch, capsys, edit)


@pytest.mark.parametrize("edit", CURSOR_EDITS + SNAPSHOT_EDITS)
def test_a_malformed_full_snapshot_is_recomputed(tmp_path, monkeypatch, capsys, edit):
    resume_from_a_tampered_file(tmp_path, monkeypatch, capsys, edit, full=True)


@pytest.mark.parametrize("full", [False, True], ids=["record", "full-snapshot"])
def test_inspect_names_the_layout(tmp_path, monkeypatch, full):
    """``inspect`` describes a unit file of either layout; the full
    snapshot is the pinned file of an earlier build."""
    from repro.checkpoint import inspect_checkpoint

    if full:
        path = FULL_SNAPSHOT
    else:
        unit = _unit("baseline", 60, FAST)
        _interrupt_after(monkeypatch, events=2)
        with pytest.raises(Interrupt):
            execute_sweep_unit_checkpointed(unit, tmp_path)
        path = unit_checkpoint_path(tmp_path, unit)
    summary = inspect_checkpoint(path)
    assert summary["events_measured"] == 2
    assert summary["n"] == 60 and summary["pending_events"] == 0
    if full:
        assert summary["layout"] == "full snapshot"
        assert summary["rng_encoding"].startswith("draw counts (")
    else:
        assert summary["layout"] == "boundary record"
        assert summary["rng_encoding"].startswith("draw counts + last draws (")
