"""Retiring a measured C-event prefix changes what a network keeps, never
what it does.

Once an origin's UP phase has converged, :func:`run_c_event_batch` drops
every node's state for its prefix (:meth:`SimNetwork.retire`).  The
oracle here is the same batch with :meth:`BGPNode.retire` turned into a
no-op, i.e. the kernel that keeps every measured prefix: per event, the
measurement plane, the engine's counters, every node's RNG draws and
work counters, and the hub's counters (``mrai.prefix_gates`` included)
must be equal, and so must the batch result.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import pytest

import repro.bgp.route as route_module
import repro.checkpoint.batch as batch_module
import repro.core.cevent as cevent_module
from repro.bgp.config import BGPConfig, DampingConfig, MRAIMode, SendDiscipline
from repro.bgp.node import BGPNode
from repro.checkpoint.batch import execute_sweep_unit_checkpointed, unit_checkpoint_path
from repro.checkpoint.format import read_checkpoint
from repro.core.cevent import pick_origins, run_c_event_batch
from repro.core.sweep import SweepUnit, execute_sweep_unit, run_growth_sweep
from repro.errors import SimulationError
from repro.obs import Telemetry, telemetry_session
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params

from tests.checkpoint.legacy import legacy_snapshot_network, write_full_snapshot_units

_N = 150
_ORIGINS = 4
_TOPOLOGY_SEED = 42
_SIM_SEED = 9

CONFIGS = [
    pytest.param(
        BGPConfig(wrate=wrate, mrai_mode=mode, discipline=discipline),
        id=f"{'wrate' if wrate else 'no-wrate'}/{mode.value}/{discipline.value}",
    )
    for wrate in (False, True)
    for mode in MRAIMode
    for discipline in SendDiscipline
] + [
    pytest.param(
        BGPConfig(
            damping=DampingConfig(
                enabled=True, suppress_threshold=2.0, reuse_threshold=0.75, half_life=60.0
            )
        ),
        id="damping",
    ),
]


@pytest.fixture(scope="module")
def graph():
    return generate_topology(baseline_params(_N), seed=_TOPOLOGY_SEED)


def _keep_every_prefix(monkeypatch):
    """The oracle kernel: nothing is ever retired."""
    monkeypatch.setattr(BGPNode, "retire", lambda self, prefix: None)


def _observe(network) -> dict:
    """What the kernel did so far: everything but the state it keeps."""
    engine = network.engine
    counter = network.counter
    return {
        "received": dict(counter.received),
        "announcements": dict(counter.announcements),
        "withdrawals": dict(counter.withdrawals),
        "received_by_pair": dict(counter.received_by_pair),
        "engine": (
            engine.executed_events,
            engine.cancelled_events,
            engine.next_sequence,
            engine.pending_events,
            engine.now,
        ),
        "nodes": [
            (
                node.rng_draws,
                node.busy_time,
                node.processed_count,
                node.max_queue_length,
                node.decisions_run,
            )
            for _node_id, node in sorted(network.nodes.items())
        ],
    }


def _measured(result):
    """A batch result without its wall-clock time."""
    return dataclasses.replace(result, wall_clock_seconds=0.0)


def _run(graph, config, check=None):
    """One batch under a live hub: (result, per-event trajectory, hub counters)."""
    origins = pick_origins(graph, _ORIGINS, _SIM_SEED)
    per_event = []

    def after_event(cursor):
        per_event.append(_observe(cursor.network))
        if check is not None:
            check(cursor.network, origins, cursor.next_index)

    with telemetry_session(Telemetry()) as hub:
        result = run_c_event_batch(
            graph, config, origins=origins, seed=_SIM_SEED, after_event=after_event
        )
        counters = dict(hub.counters)
        counters["mrai.prefix_gates"] = hub.gauges.get("mrai.prefix_gates")
    return _measured(result), per_event, counters


def _held_prefixes(node, now) -> dict:
    """Every prefix ``node`` keeps state for, by where it is kept.

    MRAI gates still in the future are left out: they are what a
    retirement keeps on purpose (the next wakeup prunes them).
    """
    channels = list(node._channels.values())
    rib = node.adj_rib_in
    held = {
        "local routes": set(node._local_routes),
        "adj-rib-in": {prefix for prefix, _neighbor, _route in rib.entries()},
        "loc-rib": set(node.loc_rib.prefixes()),
        "best changes": set(node.best_change_count),
        "damper": (
            {row[1] for row in node._damper.dump_state()}
            if node._damper is not None
            else set()
        ),
        "reuse checks": set(node._reuse_pending or ()),
        "sent": {prefix for channel in channels for prefix in channel._sent},
        "pending": {prefix for channel in channels for prefix in channel._pending},
        "expired gates": {
            prefix
            for channel in channels
            for prefix, gate in (channel._prefix_gates or {}).items()
            if gate <= now
        },
        "live gates": {
            prefix for channel in channels for prefix in (channel._prefix_gates or ())
        },
    }
    return held


def _assert_nothing_retired_is_held(network, origins, measured):
    """After event ``measured``: no node keeps anything for a measured
    prefix but the last one's unexpired MRAI gates, and the intern
    tables are empty."""
    now = network.engine.now
    last = host_prefix(measured - 1)
    earlier = {host_prefix(index) for index in range(measured - 1)}
    for node_id, node in network.nodes.items():
        for where, prefixes in _held_prefixes(node, now).items():
            allowed = {last} if where == "live gates" else set()
            stale = prefixes & (earlier | {last}) - allowed
            assert not stale, f"node {node_id} keeps {sorted(stale)} in its {where}"
    assert not route_module._ROUTE_INTERN
    assert not route_module._PATH_INTERN


@pytest.mark.parametrize("config", CONFIGS)
def test_retirement_changes_no_count_draw_or_result(graph, config, monkeypatch):
    with monkeypatch.context() as patch:
        _keep_every_prefix(patch)
        kept, kept_events, kept_counters = _run(graph, config)
    retired, retired_events, retired_counters = _run(
        graph, config, check=_assert_nothing_retired_is_held
    )
    assert len(retired_events) == _ORIGINS
    for index, (want, got) in enumerate(zip(kept_events, retired_events)):
        assert got == want, f"trajectory differs after event {index + 1}"
    assert retired_counters == kept_counters
    assert retired == kept


def test_the_oracle_keeps_what_retirement_drops(graph, monkeypatch):
    """Guard against a vacuous equivalence: without retirement, earlier
    prefixes really are still held after the last event."""
    _keep_every_prefix(monkeypatch)
    held = []
    _run(
        graph,
        BGPConfig(),
        check=lambda network, _origins, measured: held.append(
            max(len(node.loc_rib) for node in network.nodes.values())
        ),
    )
    assert held == list(range(1, _ORIGINS + 1))


def test_retire_refuses_a_prefix_still_queued(graph):
    network = SimNetwork(graph, BGPConfig(discipline=SendDiscipline.DELAY_FIRST), seed=1)
    origin = pick_origins(graph, 1, _SIM_SEED)[0]
    prefix = host_prefix(0)
    network.originate(origin, prefix)  # delay-first: every export waits
    with pytest.raises(SimulationError, match="still queued"):
        network.retire(prefix)
    network.run_to_convergence()
    network.retire(prefix)
    assert network.nodes_with_route(prefix) == []


# ----------------------------------------------------------------------
# Checkpoints written before retirement existed
# ----------------------------------------------------------------------
class _Interrupt(Exception):
    """Stand-in for a crash between two measured events."""


def _resume_a_keeping_checkpoint(tmp_path, monkeypatch, encoder=None):
    """Checkpoint a unit at event 2 on the keeping kernel, resume it under
    retirement; returns the payloads written (the first before the
    resume) and the resumed result, which must equal the retiring run's."""
    unit = SweepUnit(
        scenario="baseline", n=120, num_origins=4, batch_index=0, num_batches=1,
        seed=17, config=BGPConfig(wrate=True, mrai_mode=MRAIMode.PER_PREFIX),
        scenario_kwargs=(),
    )
    retiring = _measured(execute_sweep_unit(unit))
    written = []
    write = batch_module.write_checkpoint

    def keeping(path, kind, payload):
        written.append(payload)
        return write(path, kind, payload)

    monkeypatch.setattr(batch_module, "write_checkpoint", keeping)
    with monkeypatch.context() as patch:
        _keep_every_prefix(patch)
        if encoder is not None:
            write_full_snapshot_units(patch, encoder)
        original = batch_module.run_c_event_batch

        def dying(*args, **kwargs):
            inner = kwargs["after_event"]

            def hook(cursor):
                inner(cursor)
                if cursor.next_index == 2:
                    raise _Interrupt

            kwargs["after_event"] = hook
            return original(*args, **kwargs)

        patch.setattr(batch_module, "run_c_event_batch", dying)
        with pytest.raises(_Interrupt):
            execute_sweep_unit_checkpointed(unit, tmp_path)

    path = unit_checkpoint_path(tmp_path, unit)
    network = read_checkpoint(path).payload["network"]
    assert max(len(state["loc_rib"]) for _node_id, state in network["nodes"]) == 2

    with telemetry_session(Telemetry()) as hub:
        resumed = _measured(execute_sweep_unit_checkpointed(unit, tmp_path))
    assert hub.counters["checkpoint.resumes"] == 1
    assert resumed == retiring
    return [payload for payload in written if payload["next_index"] == 2] + [
        payload for payload in written if payload["next_index"] == 3
    ]


def test_a_keeping_checkpoint_resumes_under_retirement(tmp_path, monkeypatch):
    """Routes of kept prefixes are more than a boundary record holds: the
    writer falls back to a full snapshot, before the resume and after it
    (the restored network still holds the two kept prefixes)."""
    written = _resume_a_keeping_checkpoint(tmp_path, monkeypatch)
    assert [payload["next_index"] for payload in written] == [2, 3]
    for payload in written:
        assert "boundary" not in payload and "network" in payload


def test_a_keeping_full_state_checkpoint_resumes_under_retirement(
    tmp_path, monkeypatch
):
    """The same file as 1.5.0 wrote it: full RNG states."""
    written = _resume_a_keeping_checkpoint(
        tmp_path, monkeypatch, encoder=legacy_snapshot_network
    )
    assert "rng" in written[0]["network"]["nodes"][0][1]


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def test_batch_memory_is_flat_in_its_origin_count():
    """At n=400 the traced heap after the 8th C-event is within 5 % of
    the heap after the 1st (+0.9 %; keeping every prefix made it +48 %)."""
    graph = generate_topology(baseline_params(400), seed=3)
    origins = pick_origins(graph, 8, 5)
    sizes = []

    def after_event(_cursor):
        gc.collect()
        sizes.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        run_c_event_batch(graph, BGPConfig(), origins=origins, seed=5, after_event=after_event)
    finally:
        tracemalloc.stop()
    assert len(sizes) == 8
    assert sizes[-1] <= 1.05 * sizes[0], sizes


def test_serial_sweep_frees_each_unit_before_the_next(monkeypatch):
    networks = []
    alive_at_start = []
    original = cevent_module.SimNetwork

    def recording(*args, **kwargs):
        alive_at_start.append([ref() is not None for ref in networks])
        network = original(*args, **kwargs)
        networks.append(weakref.ref(network))
        return network

    monkeypatch.setattr(cevent_module, "SimNetwork", recording)
    run_growth_sweep(
        "BASELINE",
        sizes=(60, 80),
        config=BGPConfig(mrai=1.0, link_delay=0.001, processing_time_max=0.01),
        num_origins=2,
        seed=3,
    )
    assert alive_at_start == [[], [False]]
