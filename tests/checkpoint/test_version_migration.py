"""Checkpoints written by earlier releases restore under this one.

A document whose envelope is stamped 1.4.0 must pass the restore gate
*and* produce the same continuation as a document stamped with the
running version — for every kind that is restored from disk:
``network`` and ``sweep-unit``.

1.6.0 changed the node layout (RNG streams as draw counts, sparse
defaults).  The second half writes 1.5.0 documents the way 1.5.0 did —
full ``rng`` states, every field present (``tests/checkpoint/legacy.py``)
— and requires the same of them, plus that the restored network, which
no longer knows its draw counts, snapshots and restores again.  Sweep
units now checkpoint as boundary records; the full-snapshot unit files
1.5.0 and 1.6.0 wrote still resume.
"""

import json

import pytest

import repro.checkpoint.batch as batch_module
from repro._version import __version__
from repro.bgp.config import BGPConfig
from repro.checkpoint import restore_network, snapshot_network
from repro.checkpoint.batch import (
    execute_sweep_unit_checkpointed,
    unit_checkpoint_path,
)
from repro.checkpoint.format import KIND_NETWORK, read_checkpoint, write_checkpoint
from repro.core.sweep import SweepUnit, execute_sweep_unit
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params

from tests.checkpoint.legacy import legacy_snapshot_network, write_full_snapshot_units
from tests.checkpoint.test_batch import (
    Interrupt,
    _assert_identical,
    _interrupt_after,
    _unit,
)

P0 = host_prefix(0)

PREVIOUS_RELEASE = "1.4.0"
#: The last release of the full-RNG-state node layout.
FULL_STATE_RELEASE = "1.5.0"
FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


def _stamp(path, code_version):
    """Rewrite the envelope's code version (the digest covers the payload)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["code_version"] == __version__
    data["code_version"] = code_version
    path.write_text(json.dumps(data), encoding="utf-8")


def test_network_checkpoint_from_previous_release_restores(tmp_path):
    graph = generate_topology(scenario_params("baseline", 60), seed=11)
    network = SimNetwork(graph, FAST, seed=12)
    network.start_counting()
    network.originate(graph.node_ids[-1], P0)
    for _ in range(150):
        network.engine.step()
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, KIND_NETWORK, snapshot_network(network))
    _stamp(path, PREVIOUS_RELEASE)

    document = read_checkpoint(path, expected_kind=KIND_NETWORK)
    assert document.code_version == PREVIOUS_RELEASE
    restored = restore_network(graph, document.payload)
    network.run_to_convergence()
    restored.run_to_convergence()
    assert restored.engine.now == network.engine.now
    assert restored.engine.executed_events == network.engine.executed_events
    assert restored.counter.dump_state() == network.counter.dump_state()


def test_sweep_unit_checkpoint_from_previous_release_resumes(tmp_path, monkeypatch):
    unit = SweepUnit(
        scenario="baseline",
        n=60,
        num_origins=4,
        batch_index=0,
        num_batches=1,
        seed=17,
        config=FAST,
        scenario_kwargs=(),
    )
    plain = execute_sweep_unit(unit)
    run_batch = batch_module.run_c_event_batch

    class Interrupt(Exception):
        pass

    def dying(*args, **kwargs):
        write = kwargs["after_event"]

        def hook(cursor):
            write(cursor)
            if cursor.next_index == 2:
                raise Interrupt

        kwargs["after_event"] = hook
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(batch_module, "run_c_event_batch", dying)
    with pytest.raises(Interrupt):
        execute_sweep_unit_checkpointed(unit, tmp_path)
    _stamp(unit_checkpoint_path(tmp_path, unit), PREVIOUS_RELEASE)

    resumed_from = []

    def recording(*args, **kwargs):
        cursor = kwargs["cursor"]
        resumed_from.append(None if cursor is None else cursor.next_index)
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(batch_module, "run_c_event_batch", recording)
    resumed = execute_sweep_unit_checkpointed(unit, tmp_path)
    assert resumed_from == [2], "1.4.0 checkpoint was discarded, not resumed"
    assert resumed.raw.updates == plain.raw.updates
    assert resumed.raw.total_updates == plain.raw.total_updates
    assert resumed.down_totals == plain.down_totals
    assert resumed.up_totals == plain.up_totals
    assert resumed.measured_messages == plain.measured_messages


# ----------------------------------------------------------------------
# 1.5.0 documents: the pre-1.6 node layout, full RNG states included
# ----------------------------------------------------------------------
def _rng_states(network):
    return {nid: node._rng.getstate() for nid, node in network.nodes.items()}


def _mid_flood_network():
    graph = generate_topology(scenario_params("baseline", 60), seed=11)
    network = SimNetwork(graph, FAST, seed=12)
    network.start_counting()
    network.originate(graph.node_ids[-1], P0)
    for _ in range(150):
        network.engine.step()
    assert network.engine.pending_events, "snapshot point must be mid-flood"
    return graph, network


def test_full_state_network_checkpoint_restores_and_round_trips(tmp_path):
    graph, network = _mid_flood_network()
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, KIND_NETWORK, legacy_snapshot_network(network))
    _stamp(path, FULL_STATE_RELEASE)

    document = read_checkpoint(path, expected_kind=KIND_NETWORK)
    assert document.code_version == FULL_STATE_RELEASE
    first_node = document.payload["nodes"][0][1]
    assert len(first_node["rng"][1]) == 625 and "rng_draws" not in first_node
    restored = restore_network(graph, document.payload)
    assert _rng_states(restored) == _rng_states(network)

    # The restored nodes cannot know their draw counts: a re-snapshot
    # carries full states again, and restores to the same streams.
    again_path = tmp_path / "again.ckpt"
    write_checkpoint(again_path, KIND_NETWORK, snapshot_network(restored))
    again_payload = read_checkpoint(again_path).payload
    assert all("rng" in state for _, state in again_payload["nodes"])
    again = restore_network(graph, again_payload)
    assert _rng_states(again) == _rng_states(network)

    for continued in (network, restored, again):
        continued.run_to_convergence()
    for continued in (restored, again):
        assert continued.engine.now == network.engine.now
        assert continued.engine.executed_events == network.engine.executed_events
        assert continued.counter.dump_state() == network.counter.dump_state()
        assert _rng_states(continued) == _rng_states(network)


def test_full_state_sweep_unit_checkpoint_resumes(tmp_path, monkeypatch):
    unit = _unit("baseline", 60, FAST)
    plain = execute_sweep_unit(unit)
    run_batch = batch_module.run_c_event_batch

    _interrupt_after(monkeypatch, events=2)
    write_full_snapshot_units(monkeypatch, legacy_snapshot_network)
    with pytest.raises(Interrupt):
        execute_sweep_unit_checkpointed(unit, tmp_path)
    monkeypatch.undo()
    path = unit_checkpoint_path(tmp_path, unit)
    _stamp(path, FULL_STATE_RELEASE)
    assert "rng" in read_checkpoint(path).payload["network"]["nodes"][0][1]

    resumed_from = []
    rewritten = []
    write = batch_module.write_checkpoint

    def recording(*args, **kwargs):
        cursor = kwargs["cursor"]
        resumed_from.append(None if cursor is None else cursor.next_index)
        return run_batch(*args, **kwargs)

    def keeping(path, kind, payload):
        rewritten.append(payload)
        return write(path, kind, payload)

    monkeypatch.setattr(batch_module, "run_c_event_batch", recording)
    monkeypatch.setattr(batch_module, "write_checkpoint", keeping)
    resumed = execute_sweep_unit_checkpointed(unit, tmp_path)
    assert resumed_from == [2], "1.5.0 checkpoint was discarded, not resumed"
    # The checkpoint after event 3 comes from nodes of unknown draw count:
    # a full snapshot again, never a boundary record.
    assert [payload["next_index"] for payload in rewritten] == [3]
    assert "boundary" not in rewritten[0]
    assert all("rng" in state for _, state in rewritten[0]["network"]["nodes"])
    _assert_identical(plain, resumed)


def test_draw_count_sweep_unit_checkpoint_resumes_to_boundary_records(
    tmp_path, monkeypatch
):
    """A 1.6.0 unit file (a full snapshot with draw counts) resumes, and
    the replay recovers every stream's last draw: the next checkpoint is
    a boundary record."""
    unit = _unit("baseline", 60, FAST)
    plain = execute_sweep_unit(unit)
    run_batch = batch_module.run_c_event_batch

    _interrupt_after(monkeypatch, events=2)
    write_full_snapshot_units(monkeypatch)
    with pytest.raises(Interrupt):
        execute_sweep_unit_checkpointed(unit, tmp_path)
    monkeypatch.undo()
    written = read_checkpoint(unit_checkpoint_path(tmp_path, unit)).payload
    assert "rng_mark" in written["network"]["nodes"][0][1]

    resumed_from = []
    rewritten = []
    write = batch_module.write_checkpoint

    def recording(*args, **kwargs):
        cursor = kwargs["cursor"]
        resumed_from.append(None if cursor is None else cursor.next_index)
        return run_batch(*args, **kwargs)

    def keeping(path, kind, payload):
        rewritten.append(payload)
        return write(path, kind, payload)

    monkeypatch.setattr(batch_module, "run_c_event_batch", recording)
    monkeypatch.setattr(batch_module, "write_checkpoint", keeping)
    resumed = execute_sweep_unit_checkpointed(unit, tmp_path)
    assert resumed_from == [2], "1.6.0 checkpoint was discarded, not resumed"
    assert [payload["next_index"] for payload in rewritten] == [3]
    assert "network" not in rewritten[0] and "boundary" in rewritten[0]
    _assert_identical(plain, resumed)
