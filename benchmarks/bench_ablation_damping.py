"""Ablation: route-flap damping (the paper's future-work mechanism).

A stub prefix flaps every 20 s (a genuine flap storm — flaps must arrive
faster than the RFC 2439 penalty decays).  With damping enabled, upstream
neighbours suppress the flapping route after a couple of cycles, cutting
the updates that reach the rest of the network; with damping off, every
flap propagates globally.
"""

import pytest

from repro.bgp.config import BGPConfig, DampingConfig
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType

P0 = host_prefix(0)

FLAPS = 8
FLAP_PERIOD = 20.0


def flap_storm(damping_enabled: bool) -> int:
    """Updates delivered network-wide during the storm window."""
    graph = generate_topology(baseline_params(250), seed=7)
    origin = graph.nodes_of_type(NodeType.C)[0]
    damping = DampingConfig(
        enabled=damping_enabled,
        suppress_threshold=2.0,
        reuse_threshold=0.75,
        half_life=600.0,
    )
    config = BGPConfig(
        mrai=2.0, link_delay=0.001, processing_time_max=0.01, damping=damping
    )
    network = SimNetwork(graph, config, seed=7)
    network.originate(origin, P0)
    network.run_to_convergence()
    network.start_counting()
    start = network.engine.now
    for k in range(FLAPS):
        network.engine.schedule_at(
            start + k * FLAP_PERIOD, lambda: network.withdraw(origin, P0)
        )
        network.engine.schedule_at(
            start + k * FLAP_PERIOD + FLAP_PERIOD / 2,
            lambda: network.originate(origin, P0),
        )
    network.engine.run(until=start + FLAPS * FLAP_PERIOD + 60.0)
    return network.counter.total


@pytest.mark.parametrize("enabled", [False, True], ids=["off", "on"])
def test_damping_flap_storm(benchmark, enabled):
    total = benchmark.pedantic(
        lambda: flap_storm(enabled), rounds=1, iterations=1
    )
    print(
        f"\n[damping={'on' if enabled else 'off'}] updates during "
        f"{FLAPS}-flap storm: {total}"
    )
    assert total > 0


def test_damping_reduces_flap_churn():
    """Suppression must cut the update volume of a flap storm hard."""
    damped = flap_storm(True)
    undamped = flap_storm(False)
    assert damped < 0.8 * undamped
