"""Path-exploration measurement.

During convergence a node may install a sequence of successively worse
(or better) routes before settling — *path exploration* (Labovitz et
al.), the mechanism behind the WRATE churn penalty of Sec. 6.  We measure
it directly: every :class:`~repro.bgp.node.BGPNode` counts best-route
changes per prefix, and this module aggregates the per-C-event change
counts by node type.

The minimum per C-event is 2 changes (lose the route, regain it); any
excess is exploration.  Under NO-WRATE + delay-first the excess is ≈ 0;
under WRATE it grows with path diversity and network size — the same
story the e-factors tell, but at the decision-process level rather than
the message level.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.bgp.config import BGPConfig
from repro.core.cevent import pick_origins
from repro.errors import ExperimentError
from repro.prefix.prefix import host_prefix
from repro.sim.engine import DEFAULT_MAX_EVENTS
from repro.sim.network import SimNetwork
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType

#: Best-route changes per C-event that are not exploration (down + up).
MINIMUM_CHANGES = 2


@dataclasses.dataclass(frozen=True)
class ExplorationStats:
    """Per-type path-exploration averages over a set of C-events."""

    n: int
    scenario: str
    config: BGPConfig
    events: int
    #: mean best-route changes per C-event per node, by type
    changes_per_type: Dict[NodeType, float]

    def exploration_excess(self, node_type: NodeType) -> float:
        """Mean changes beyond the 2-change minimum (0 = no exploration).

        Nodes that had a route at all see at least MINIMUM_CHANGES; the
        average is taken over all nodes of the type, so topologies where
        some nodes never held the route can sit below the minimum.
        """
        return self.changes_per_type.get(node_type, 0.0) - MINIMUM_CHANGES


def measure_path_exploration(
    graph: ASGraph,
    config: Optional[BGPConfig] = None,
    *,
    num_origins: int = 10,
    seed: int = 0,
    settle_factor: float = 2.0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> ExplorationStats:
    """Run C-events and count best-route changes at every node."""
    config = config if config is not None else BGPConfig()
    origins = pick_origins(graph, num_origins, seed)
    if not origins:
        raise ExperimentError("no origins available")

    network = SimNetwork(graph, config, seed=seed)
    settle = settle_factor * config.mrai if config.mrai > 0 else 1.0
    totals: Dict[NodeType, int] = {t: 0 for t in NodeType}
    node_types = {node.node_id: node.node_type for node in graph.nodes()}

    for index, origin in enumerate(origins):
        prefix = host_prefix(index)
        network.stop_counting()
        network.originate(origin, prefix)
        network.run_to_convergence(max_events=max_events)
        network.engine.run(until=network.engine.now + settle)

        before = {
            node_id: node.best_change_count.get(prefix, 0)
            for node_id, node in network.nodes.items()
        }
        network.withdraw(origin, prefix)
        network.run_to_convergence(max_events=max_events)
        network.engine.run(until=network.engine.now + settle)
        network.originate(origin, prefix)
        network.run_to_convergence(max_events=max_events)
        for node_id, node in network.nodes.items():
            if node_id == origin:
                continue
            delta = node.best_change_count.get(prefix, 0) - before[node_id]
            totals[node_types[node_id]] += delta

    counts = graph.type_counts()
    events = len(origins)
    changes = {
        node_type: (totals[node_type] / (counts[node_type] * events))
        for node_type in NodeType
        if counts[node_type]
    }
    return ExplorationStats(
        n=len(graph),
        scenario=graph.scenario,
        config=config,
        events=events,
        changes_per_type=changes,
    )


def exploration_comparison(
    graph: ASGraph,
    config: Optional[BGPConfig] = None,
    *,
    num_origins: int = 10,
    seed: int = 0,
) -> Dict[str, ExplorationStats]:
    """Exploration under both MRAI variants, for side-by-side reporting."""
    base = config if config is not None else BGPConfig()
    return {
        "NO-WRATE": measure_path_exploration(
            graph, base.replace(wrate=False), num_origins=num_origins, seed=seed
        ),
        "WRATE": measure_path_exploration(
            graph, base.replace(wrate=True), num_origins=num_origins, seed=seed
        ),
    }
