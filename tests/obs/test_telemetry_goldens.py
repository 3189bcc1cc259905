"""Golden values of the hub's kernel counters.

``data/telemetry_goldens.json`` pins the exact counter names and values
(and the ``mrai.prefix_gates`` gauge) a live hub reports for fixed-seed
runs: a serial C-event experiment (NO-WRATE per-interface and WRATE
per-prefix), a ``LockstepRunner`` K = 2 run of the same experiment, and
a link failed while updates were in flight over it (``network.drops``).
However the kernel gets its counts to the hub, a reader of
``Telemetry.counters`` / ``snapshot()`` / ``telemetry.jsonl`` must find
the same names with the same values.  Recorded on the commit *before*
the per-message hooks were replaced by kernel counts.

Re-record (only when the counted quantities are *meant* to change) with
``PYTHONPATH=src python tests/obs/test_telemetry_goldens.py``.
"""

import json
from pathlib import Path

import pytest

from repro.bgp.config import BGPConfig, MRAIMode
from repro.bgp.events import Delivery
from repro.core.cevent import pick_origins, run_c_event_experiment
from repro.obs.telemetry import telemetry_session
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.sim.partition import run_partitioned_c_event_experiment
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params

P0 = host_prefix(0)

GOLDENS_PATH = Path(__file__).parent / "data" / "telemetry_goldens.json"

_SEED = 17


def _graph():
    return generate_topology(baseline_params(200), seed=31)


def _readout(hub) -> dict:
    """What a reader of the hub sees, through every read path."""
    counters = hub.counters
    snapshot = hub.snapshot()
    assert snapshot["counters"] == dict(counters)
    gauge = hub.gauges.get("mrai.prefix_gates")
    assert snapshot["gauges"].get("mrai.prefix_gates") == gauge
    return {
        "counters": {name: counters[name] for name in sorted(counters)},
        "mrai.prefix_gates": gauge,
        "engine_events": hub.engine_events,
    }


def _serial(config: BGPConfig):
    def run() -> dict:
        with telemetry_session() as hub:
            run_c_event_experiment(_graph(), config, num_origins=3, seed=_SEED)
        return _readout(hub)

    return run


def _lockstep() -> dict:
    with telemetry_session() as hub:
        run_partitioned_c_event_experiment(
            _graph(), BGPConfig(wrate=True), num_parts=2, num_origins=3, seed=_SEED
        )
    return _readout(hub)


def _step_until_in_flight(network):
    """Execute events until an update is on the wire; returns it."""
    while network.engine.step():
        in_flight = sorted(
            (time, sequence, event.message)
            for time, sequence, event in network.engine.dump_pending()
            if isinstance(event, Delivery)
        )
        if in_flight:
            return in_flight[0][2]
    return None


def _link_failure() -> dict:
    graph = _graph()
    origin = pick_origins(graph, 1, _SEED)[0]
    with telemetry_session() as hub:
        network = SimNetwork(graph, BGPConfig(), seed=_SEED)
        network.originate(origin, P0)
        # Fail a link while an update is in flight over it: the receiver
        # drops the delivery.  Repeat a few times along the announce wave.
        failed = []
        for _ in range(4):
            message = _step_until_in_flight(network)
            if message is None:
                break
            network.node(message.sender).set_link_down(message.receiver)
            network.node(message.receiver).set_link_down(message.sender)
            failed.append((message.sender, message.receiver))
        network.run_to_convergence()
        for a, b in failed:
            network.node(a).set_link_up(b)
            network.node(b).set_link_up(a)
        network.run_to_convergence()
    readout = _readout(hub)
    assert readout["counters"]["network.drops"] > 0
    return readout


CASES = {
    "serial/no-wrate": _serial(BGPConfig()),
    "serial/wrate-per-prefix": _serial(
        BGPConfig(wrate=True, mrai_mode=MRAIMode.PER_PREFIX)
    ),
    "lockstep-k2/wrate": _lockstep,
    "link-failure/drops": _link_failure,
}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_hub_readout_is_pinned(case, recorded):
    assert CASES[case]() == recorded[case]


if __name__ == "__main__":
    GOLDENS_PATH.parent.mkdir(exist_ok=True)
    GOLDENS_PATH.write_text(
        json.dumps({case: run() for case, run in sorted(CASES.items())}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"recorded {len(CASES)} readouts in {GOLDENS_PATH}")
