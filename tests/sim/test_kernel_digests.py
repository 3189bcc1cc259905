"""Golden digests of the event kernel's trajectory and retained state.

``data/kernel_digests.json`` pins, for a Baseline n = 200 topology and
fixed seeds, two sha256 digests per case:

* the **trajectory** — what the kernel *did*: the measurement plane
  after every C-event (per-node received / announcements / withdrawals,
  per-pair counts), the engine's ``executed_events`` /
  ``cancelled_events`` / ``next_sequence`` / final clock, and per node
  its RNG draw count, busy time, processing and decision counters;
* the **retained state** — what the kernel *keeps* once it is done:
  per node the Loc-RIB, ``decisions_skipped`` (which reads the Loc-RIB's
  size) and the per-prefix ``best_change_count``.

One case per corner of the protocol model: NO-WRATE/WRATE x
PER_INTERFACE/PER_PREFIX x DELAY_FIRST/SEND_FIRST C-events, a flap storm
under damping, ``mrai=0``, link down/up events, the path-exploration and
load-probe drivers, a multi-prefix churn run and a Poisson C-event
workload with flap storms (whose trajectory also holds the monitors'
arrival trace).

The kernel may get cheaper per event; it may not execute a different
event, draw a different random number or count a different update, so
a trajectory digest never moves.  A retained-state digest moves only
when the kernel is meant to keep something different — as the C-event
ones did when each measured prefix began to be retired once its UP
phase converged: their Loc-RIBs and best-change counts now end empty,
and ``decisions_skipped`` reads 0 (no other prefix is installed while
one is measured), while every trajectory digest stayed.  The retained
digests of the flap storm, link events, exploration and load probe moved
once more when those drivers traded bare-int prefix tokens for host
prefixes: the Loc-RIBs hold the same routes, keyed ``[addr, 32]`` instead
of the int.

Re-record (only when the trajectory or the retained state is *meant* to
change, saying which and why) with
``PYTHONPATH=src python tests/sim/test_kernel_digests.py``.
"""

import contextlib
import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.bgp.config import BGPConfig, DampingConfig, MRAIMode, SendDiscipline
from repro.core import exploration, linkevent, load, prefix_churn, workload
from repro.core.cevent import new_batch_cursor, pick_origins, run_c_event_batch
from repro.prefix.prefix import host_prefix, prefix_to_json
from repro.prefix.workload import PrefixChurnSpec
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params

DIGESTS_PATH = Path(__file__).parent / "data" / "kernel_digests.json"

_N = 200
_TOPOLOGY_SEED = 11
_SIM_SEED = 23
_ORIGINS = 3


def _graph():
    return generate_topology(baseline_params(_N), seed=_TOPOLOGY_SEED)


def counter_state(counter) -> dict:
    """The measurement plane, order-free."""
    return {
        "total": counter.total,
        "received": sorted(counter.received.items()),
        "announcements": sorted(counter.announcements.items()),
        "withdrawals": sorted(counter.withdrawals.items()),
        "received_by_pair": sorted(
            [receiver, sender, count]
            for (receiver, sender), count in counter.received_by_pair.items()
        ),
    }


def trajectory_state(network: SimNetwork) -> dict:
    """What the kernel did: engine counters and per-node work counters."""
    engine = network.engine
    return {
        "executed_events": engine.executed_events,
        "cancelled_events": engine.cancelled_events,
        "next_sequence": engine.next_sequence,
        "pending_events": engine.pending_events,
        "now": engine.now.hex(),
        "delivered_messages": network.delivered_messages,
        "nodes": [
            [
                node_id,
                node.rng_draws,
                node.busy_time.hex(),
                node.processed_count,
                node.max_queue_length,
                node.decisions_run,
            ]
            for node_id, node in sorted(network.nodes.items())
        ],
    }


def retained_state(network: SimNetwork) -> list:
    """What the kernel keeps: per node its Loc-RIB and what reads it."""
    nodes = []
    for node_id, node in sorted(network.nodes.items()):
        loc_rib = [
            [prefix_to_json(prefix), list(route.path), route.local_pref]
            for prefix, route in sorted(node.loc_rib.entries(), key=lambda entry: entry[0])
        ]
        nodes.append(
            [
                node_id,
                node.decisions_skipped,
                sorted(
                    ([prefix_to_json(p), c] for p, c in node.best_change_count.items()),
                    key=repr,
                ),
                loc_rib,
            ]
        )
    return nodes


def _digest(document) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _digests(trajectory, retained) -> dict:
    return {"trajectory": _digest(trajectory), "retained": _digest(retained)}


@contextlib.contextmanager
def _capture_networks(module):
    """Record every ``SimNetwork`` a driver module builds."""
    built = []
    original = module.SimNetwork

    def recording(*args, **kwargs):
        network = original(*args, **kwargs)
        built.append(network)
        return network

    module.SimNetwork = recording
    try:
        yield built
    finally:
        module.SimNetwork = original


def _c_event_case(config: BGPConfig):
    def run() -> dict:
        graph = _graph()
        origins = pick_origins(graph, _ORIGINS, _SIM_SEED)
        cursor = new_batch_cursor(graph, config, origins=origins, seed=_SIM_SEED)
        per_event = []
        run_c_event_batch(
            graph,
            config,
            origins=origins,
            seed=_SIM_SEED,
            cursor=cursor,
            after_event=lambda c: per_event.append(counter_state(c.network.counter)),
        )
        return _digests(
            {"events": per_event, "network": trajectory_state(cursor.network)},
            retained_state(cursor.network),
        )

    return run


def _flap_storm(config: BGPConfig):
    """One stub flapping a host prefix; counters read mid-flight."""

    def run() -> dict:
        graph = _graph()
        origin = pick_origins(graph, 1, _SIM_SEED)[0]
        network = SimNetwork(graph, config, seed=_SIM_SEED)
        prefix = host_prefix(0)
        network.originate(origin, prefix)
        network.run_to_convergence()
        network.start_counting()
        start = network.engine.now
        for k in range(6):
            network.engine.schedule_at(
                start + 20.0 * k, lambda: network.withdraw(origin, prefix)
            )
            network.engine.schedule_at(
                start + 20.0 * k + 10.0, lambda: network.originate(origin, prefix)
            )
        network.engine.run(until=start + 150.0)
        halted = {
            "counter": counter_state(network.counter),
            "network": trajectory_state(network),
        }
        halted_retained = retained_state(network)
        network.run_to_convergence()
        return _digests(
            {
                "halted": halted,
                "counter": counter_state(network.counter),
                "network": trajectory_state(network),
            },
            {"halted": halted_retained, "network": retained_state(network)},
        )

    return run


def _link_events() -> dict:
    graph = _graph()
    origin = pick_origins(graph, 1, _SIM_SEED)[0]
    with _capture_networks(linkevent) as built:
        stats = linkevent.run_link_event_experiment(
            graph, BGPConfig(wrate=True), origin=origin, num_links=2, seed=_SIM_SEED
        )
    (network,) = built
    return _digests(
        {
            "links": stats.links,
            "down": stats.mean_down_convergence.hex(),
            "up": stats.mean_up_convergence.hex(),
            "counter": counter_state(network.counter),
            "network": trajectory_state(network),
        },
        retained_state(network),
    )


def _exploration() -> dict:
    graph = _graph()
    with _capture_networks(exploration) as built:
        stats = exploration.measure_path_exploration(
            graph, BGPConfig(wrate=True), num_origins=_ORIGINS, seed=_SIM_SEED
        )
    (network,) = built
    return _digests(
        {
            "changes": sorted(
                [node_type.value, changes.hex()]
                for node_type, changes in stats.changes_per_type.items()
            ),
            "counter": counter_state(network.counter),
            "network": trajectory_state(network),
        },
        retained_state(network),
    )


def _load_probe() -> dict:
    graph = _graph()
    with _capture_networks(load) as built:
        report = load.run_load_probe(
            graph, BGPConfig(), num_origins=_ORIGINS, seed=_SIM_SEED
        )
    (network,) = built
    return _digests(
        {
            "per_type": sorted(
                [
                    node_type.value,
                    row.mean_processed.hex(),
                    row.mean_busy_time.hex(),
                    row.max_queue_length,
                    row.busiest_node,
                ]
                for node_type, row in report.per_type.items()
            ),
            "network": trajectory_state(network),
        },
        retained_state(network),
    )


def _prefix_churn() -> dict:
    graph = _graph()
    allocation = prefix_churn.build_allocation(graph, 24, num_origins=6, seed=_SIM_SEED)
    spec = PrefixChurnSpec(
        duration=200.0, event_rate=0.1, mean_downtime=30.0, deaggregation_probability=0.3
    )
    config = BGPConfig(mrai_mode=MRAIMode.PER_PREFIX, wrate=True)
    with _capture_networks(prefix_churn) as built:
        result = prefix_churn.run_prefix_churn(graph, allocation, spec, config, seed=_SIM_SEED)
    (network,) = built
    return _digests(
        {
            "executed": result.events_executed,
            "absorbed": result.events_absorbed,
            "counter": counter_state(network.counter),
            "network": trajectory_state(network),
        },
        {"loc_rib_digest": result.loc_rib_digest, "nodes": retained_state(network)},
    )


def _workload() -> dict:
    graph = _graph()
    spec = workload.WorkloadSpec(
        duration=300.0,
        event_rate=0.1,
        mean_downtime=20.0,
        storm_probability=0.4,
        storm_size_mean=4.0,
        storm_gap=20.0,
    )
    with _capture_networks(workload) as built:
        result = workload.run_workload(graph, spec, BGPConfig(), seed=_SIM_SEED)
    (network,) = built
    return _digests(
        {
            "monitors": result.monitors,
            "executed": result.events_executed,
            "skipped": result.events_skipped,
            "total": result.total_updates,
            "duration": result.measured_duration.hex(),
            "trace": [
                [update.time.hex(), update.receiver, update.sender, update.is_withdrawal]
                for update in result.trace.updates()
            ],
            "counter": counter_state(network.counter),
            "network": trajectory_state(network),
        },
        retained_state(network),
    )


CASES = {
    f"c-event/{'wrate' if wrate else 'no-wrate'}/{mode.value}/{discipline.value}": _c_event_case(
        BGPConfig(wrate=wrate, mrai_mode=mode, discipline=discipline)
    )
    for wrate in (False, True)
    for mode in MRAIMode
    for discipline in SendDiscipline
}
CASES.update(
    {
        "c-event/mrai=0": _c_event_case(BGPConfig(mrai=0.0)),
        "c-event/damping": _c_event_case(
            BGPConfig(damping=DampingConfig(enabled=True))
        ),
        "flap-storm/damping": _flap_storm(
            # NO-WRATE: under WRATE the 10 s re-announce cancels the still
            # queued withdrawal and the storm never leaves the origin.
            BGPConfig(
                damping=DampingConfig(
                    enabled=True, suppress_threshold=2.0, reuse_threshold=0.75, half_life=60.0
                )
            )
        ),
        "link-events/wrate": _link_events,
        "exploration/wrate": _exploration,
        "load-probe": _load_probe,
        "prefix-churn": _prefix_churn,
        "workload": _workload,
    }
)


@functools.lru_cache(maxsize=None)
def _run_case(case: str) -> dict:
    """Both digests of ``case``, computed once per test session."""
    return CASES[case]()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_trajectory_is_pinned(case, recorded):
    assert _run_case(case)["trajectory"] == recorded[case]["trajectory"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_retained_state_is_pinned(case, recorded):
    assert _run_case(case)["retained"] == recorded[case]["retained"]


if __name__ == "__main__":
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(
        json.dumps({case: run() for case, run in sorted(CASES.items())}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(CASES)} digest pairs in {DIGESTS_PATH}")
