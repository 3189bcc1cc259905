"""Extension experiment: route-flap damping vs a flap storm.

The paper lists Route Flap Dampening as future work; this study runs a
flap storm (one stub flapping every 20 s) with RFC 2439 damping on and
off, across two network sizes.  Expected: suppression at the first-hop
providers cuts the storm's network-wide update volume sharply, and the
saving grows with the network (more nodes spared per suppressed flap).
"""

from __future__ import annotations

from typing import List, Optional

from repro.bgp.config import BGPConfig, DampingConfig
from repro.experiments.report import ExperimentResult
from repro.experiments.scale import Scale, get_scale
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.sim.rng import derive_seed
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType

EXPERIMENT_ID = "ext-damping"
TITLE = "RFC 2439 route-flap damping vs a flap storm"

FLAPS = 8
FLAP_PERIOD = 20.0


def _storm_updates(n: int, *, damping: bool, seed: int, config: BGPConfig) -> int:
    graph = generate_topology(baseline_params(n), seed=derive_seed(seed, n, 1))
    origin = graph.nodes_of_type(NodeType.C)[0]
    damping_config = DampingConfig(
        enabled=damping,
        suppress_threshold=2.0,
        reuse_threshold=0.75,
        half_life=600.0,
    )
    network = SimNetwork(
        graph, config.replace(damping=damping_config), seed=derive_seed(seed, n, 2)
    )
    prefix = host_prefix(0)
    network.originate(origin, prefix)
    network.run_to_convergence()
    network.start_counting()
    start = network.engine.now
    for k in range(FLAPS):
        network.engine.schedule_at(
            start + k * FLAP_PERIOD, lambda: network.withdraw(origin, prefix)
        )
        network.engine.schedule_at(
            start + k * FLAP_PERIOD + FLAP_PERIOD / 2,
            lambda: network.originate(origin, prefix),
        )
    network.engine.run(until=start + FLAPS * FLAP_PERIOD + 3 * config.mrai)
    return network.counter.total


def run(
    scale: Optional[Scale] = None,
    *,
    seed: int = 0,
    config: Optional[BGPConfig] = None,
) -> ExperimentResult:
    """Storm with damping off/on at the two extreme sweep sizes."""
    scale = scale if scale is not None else get_scale()
    config = config if config is not None else BGPConfig()
    sizes = [scale.smallest, scale.largest]
    off: List[float] = []
    on: List[float] = []
    for n in sizes:
        off.append(float(_storm_updates(n, damping=False, seed=seed, config=config)))
        on.append(float(_storm_updates(n, damping=True, seed=seed, config=config)))
    saved = [1.0 - o / u if u else 0.0 for o, u in zip(on, off)]

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        x_label="n",
        x_values=[float(n) for n in sizes],
        series={
            "updates damping off": off,
            "updates damping on": on,
            "fraction saved": saved,
        },
    )
    result.add_check(
        "damping suppresses the storm",
        all(o < u for o, u in zip(on, off)),
        "suppressed flaps stop propagating past the first hop",
        f"saved {saved[0] * 100:.0f}% (n={sizes[0]}), "
        f"{saved[-1] * 100:.0f}% (n={sizes[-1]})",
    )
    result.add_check(
        "the saving is substantial",
        max(saved) > 0.2,
        "a persistent flapper is mostly silenced",
        f"best saving {max(saved) * 100:.0f}% of storm updates",
    )
    return result
