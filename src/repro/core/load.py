"""Router processing-load analysis.

The paper's opening concern is operational: "the processing load on core
routers demands expensive router upgrades" (Sec. 1, citing Huston &
Armitage).  The simulator's node model has a real single-server queue, so
we can measure that load directly: per-node busy time (processor
utilization) and in-queue high-water marks, aggregated by node type.

Used standalone via :func:`run_load_probe` (C-events on a fresh network)
or on any network the caller has already driven (:func:`load_report`).
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


@dataclasses.dataclass(frozen=True)
class TypeLoad:
    """Processing-load aggregate for one node type."""

    node_type: NodeType
    node_count: int
    #: mean messages processed per node
    mean_processed: float
    #: mean busy seconds per node
    mean_busy_time: float
    #: largest in-queue high-water mark across nodes of the type
    max_queue_length: int
    #: id of the node with the most processing work
    busiest_node: int
    #: messages processed by the busiest node
    busiest_processed: int


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """Processing load per node type plus the simulated horizon."""

    n: int
    scenario: str
    simulated_seconds: float
    per_type: Dict[NodeType, TypeLoad]

    def utilization(self, node_type: NodeType) -> float:
        """Mean busy fraction of the simulated horizon for one type."""
        if self.simulated_seconds <= 0:
            return 0.0
        load = self.per_type.get(node_type)
        return load.mean_busy_time / self.simulated_seconds if load else 0.0


def load_report(network: SimNetwork) -> LoadReport:
    """Aggregate the load counters of an already-driven network."""
    per_type: Dict[NodeType, TypeLoad] = {}
    by_type: Dict[NodeType, list] = {}
    for node in network.nodes.values():
        by_type.setdefault(node.node_type, []).append(node)
    for node_type, nodes in by_type.items():
        busiest = max(nodes, key=lambda node: node.processed_count)
        per_type[node_type] = TypeLoad(
            node_type=node_type,
            node_count=len(nodes),
            mean_processed=sum(n.processed_count for n in nodes) / len(nodes),
            mean_busy_time=sum(n.busy_time for n in nodes) / len(nodes),
            max_queue_length=max(n.max_queue_length for n in nodes),
            busiest_node=busiest.node_id,
            busiest_processed=busiest.processed_count,
        )
    return LoadReport(
        n=len(network.graph),
        scenario=network.graph.scenario,
        simulated_seconds=network.engine.now,
        per_type=per_type,
    )


def run_load_probe(
    graph: ASGraph,
    config: Optional[BGPConfig] = None,
    *,
    num_origins: int = 10,
    seed: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> LoadReport:
    """Drive C-events on a fresh network and report the processing load.

    All phases (warm-up announcements included) contribute to the load —
    a router processes every update it receives, measured or not.
    """
    config = config if config is not None else BGPConfig()
    origins = pick_origins(graph, num_origins, seed)
    if not origins:
        raise ExperimentError("no origins available")
    network = SimNetwork(graph, config, seed=seed)
    network.stop_counting()
    settle = 2.0 * config.mrai if config.mrai > 0 else 1.0
    for index, origin in enumerate(origins):
        prefix = host_prefix(index)
        network.originate(origin, prefix)
        network.run_to_convergence(max_events=max_events)
        network.withdraw(origin, prefix)
        network.run_to_convergence(max_events=max_events)
        network.originate(origin, prefix)
        network.run_to_convergence(max_events=max_events)
        network.engine.run(until=network.engine.now + settle)
    return load_report(network)
