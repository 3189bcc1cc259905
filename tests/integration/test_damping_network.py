"""Network-level route-flap-damping behaviour (extension).

Flaps are *scheduled* at short intervals (a real flap storm) rather than
converge-then-flap: running to full convergence between flaps would also
drain the damper's reuse timers, silently advancing the clock by whole
suppression periods and letting penalties decay between flaps.
"""

import pytest

from repro.bgp.config import BGPConfig, DampingConfig
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.topology.types import NodeType

P0 = host_prefix(0)

FLAP_PERIOD = 20.0


def storm_network(diamond, *, enabled, flaps=5):
    """Flap C4's prefix every FLAP_PERIOD seconds; returns the network
    with the clock parked just after the last flap (reuse timers still
    pending)."""
    damping = DampingConfig(
        enabled=enabled,
        suppress_threshold=2.0,
        reuse_threshold=0.75,
        half_life=600.0,
    )
    config = BGPConfig(
        mrai=1.0, link_delay=0.001, processing_time_max=0.005, damping=damping
    )
    network = SimNetwork(diamond, config, seed=9)
    network.originate(4, P0)
    network.run_to_convergence()
    network.start_counting()
    start = network.engine.now
    for k in range(flaps):
        network.engine.schedule_at(
            start + k * FLAP_PERIOD, lambda: network.withdraw(4, P0)
        )
        network.engine.schedule_at(
            start + k * FLAP_PERIOD + FLAP_PERIOD / 2,
            lambda: network.originate(4, P0),
        )
    storm_end = start + flaps * FLAP_PERIOD
    network.engine.run(until=storm_end)
    return network


class TestDampingInNetwork:
    def test_suppression_reduces_updates(self, diamond):
        undamped = storm_network(diamond, enabled=False)
        damped = storm_network(diamond, enabled=True)
        assert damped.counter.total < undamped.counter.total

    def test_suppressed_route_excluded_from_decision(self, diamond):
        """During the storm the providers damp the flapping stub."""
        network = storm_network(diamond, enabled=True, flaps=5)
        now = network.engine.now
        # the origin itself always has its local route
        assert network.node(4).best_route(P0) is not None
        suppressed = [
            p
            for p in (2, 3)
            if network.node(p)._damper.is_suppressed(4, P0, now)
        ]
        assert suppressed
        for p in suppressed:
            best = network.node(p).best_route(P0)
            assert best is None or best.next_hop != 4

    def test_route_reusable_after_decay(self, diamond):
        network = storm_network(diamond, enabled=True, flaps=5)
        # drain everything: reuse timers fire, suppression lifts, and the
        # still-announced prefix is reinstated from the Adj-RIB-In
        network.run_to_convergence()
        network.engine.run(until=network.engine.now + 5000.0)
        network.withdraw(4, P0)
        network.run_to_convergence()
        network.originate(4, P0)
        network.run_to_convergence()
        best = network.node(2).best_route(P0)
        assert best is not None
        assert best.next_hop == 4

    def test_reuse_timer_restores_route_without_new_updates(self, diamond):
        """The damper's reuse check alone must bring the route back."""
        network = storm_network(diamond, enabled=True, flaps=5)
        network.run_to_convergence()  # includes pending reuse checks
        for p in (2, 3):
            best = network.node(p).best_route(P0)
            assert best is not None
