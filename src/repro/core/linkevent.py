"""Link-failure events — the paper's "more complex events" future work.

A *link event* fails one AS–AS link (both BGP sessions flush the routes
learned over it), lets the network converge, then restores the link and
converges again.  Unlike a C-event the prefix stays reachable when backup
paths exist, so this exercises partial-visibility convergence and, under
WRATE, considerably more path exploration.

The measurement mirrors :mod:`repro.core.cevent`: updates received per
node, classified by sender relationship, aggregated per node type.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.config import BGPConfig
from repro.core.factors import FactorAccumulator, TypeFactors
from repro.errors import ExperimentError
from repro.prefix.prefix import host_prefix
from repro.sim.engine import DEFAULT_MAX_EVENTS
from repro.sim.network import SimNetwork
from repro.sim.rng import derive_rng
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType


@dataclasses.dataclass(frozen=True)
class LinkEventStats:
    """Per-type churn measured over a set of link fail/restore events."""

    n: int
    scenario: str
    seed: int
    config: BGPConfig
    #: the failed links, as (a, b) node pairs
    links: List[Tuple[int, int]]
    origin: int
    per_type: Dict[NodeType, TypeFactors]
    mean_down_convergence: float
    mean_up_convergence: float

    def u(self, node_type: NodeType) -> float:
        """Average updates per link event at nodes of ``node_type``."""
        factors = self.per_type.get(node_type)
        return factors.u_total if factors is not None else 0.0


def pick_links(
    graph: ASGraph, origin: int, how_many: int, seed: int
) -> List[Tuple[int, int]]:
    """Sample links on the origin's uphill side (provider links of stubs).

    Failing a random provider link of the event origin matches the
    paper's intuition that edge events are the common case; callers can
    supply their own link list for core-link studies.
    """
    providers = graph.providers_of(origin)
    if not providers:
        raise ExperimentError(f"origin {origin} has no provider links to fail")
    rng = derive_rng(seed, 0x11FA11)
    chosen = providers if how_many >= len(providers) else rng.sample(providers, how_many)
    return [(origin, provider) for provider in sorted(chosen)]


def run_link_event_experiment(
    graph: ASGraph,
    config: Optional[BGPConfig] = None,
    *,
    origin: int,
    links: Optional[Sequence[Tuple[int, int]]] = None,
    num_links: int = 5,
    seed: int = 0,
    settle_factor: float = 2.0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> LinkEventStats:
    """Fail and restore links while ``origin`` announces a prefix.

    For each link: fail (both sessions flush), converge (counted), settle,
    restore (sessions re-advertise), converge (counted), settle.
    """
    config = config if config is not None else BGPConfig()
    if origin not in graph:
        raise ExperimentError(f"origin {origin} not in topology")
    link_list = list(links) if links is not None else pick_links(graph, origin, num_links, seed)
    if not link_list:
        raise ExperimentError("no links to fail")
    for a, b in link_list:
        if b not in graph.neighbors(a):
            raise ExperimentError(f"({a}, {b}) is not a link in the topology")

    network = SimNetwork(graph, config, seed=seed)
    accumulator = FactorAccumulator(graph)
    settle = settle_factor * config.mrai if config.mrai > 0 else 1.0
    prefix = host_prefix(0)
    down_convergence = 0.0
    up_convergence = 0.0

    # Warm-up: announce the prefix once; all events share this steady state.
    network.stop_counting()
    network.originate(origin, prefix)
    network.run_to_convergence(max_events=max_events)
    network.engine.run(until=network.engine.now + settle)

    for a, b in link_list:
        network.start_counting()
        event_start = network.engine.now
        network.node(a).set_link_down(b)
        network.node(b).set_link_down(a)
        network.run_to_convergence(max_events=max_events)
        down_convergence += network.engine.now - event_start
        network.engine.run(until=network.engine.now + settle)

        event_start = network.engine.now
        network.node(a).set_link_up(b)
        network.node(b).set_link_up(a)
        network.run_to_convergence(max_events=max_events)
        up_convergence += network.engine.now - event_start
        accumulator.add_event(network.counter)
        network.stop_counting()
        network.engine.run(until=network.engine.now + settle)

    events = len(link_list)
    return LinkEventStats(
        n=len(graph),
        scenario=graph.scenario,
        seed=seed,
        config=config,
        links=list(link_list),
        origin=origin,
        per_type=accumulator.all_type_factors(),
        mean_down_convergence=down_convergence / events,
        mean_up_convergence=up_convergence / events,
    )
