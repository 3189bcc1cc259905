"""Multi-prefix churn driver: play a prefix workload against a network.

:mod:`repro.core.workload` streams single-prefix C-events; this driver
plays the multi-prefix streams of :mod:`repro.prefix.workload` — per-prefix
flaps plus (de)aggregation — against a live :class:`SimNetwork` and
measures what the paper's scaling question needs at the routing-table
axis: monitor-side churn, table sizes, and how much decision-process work
deciding per prefix saved.  Both drivers play their streams through
:func:`repro.core.workload.replay_churn`.

The result carries a canonical Loc-RIB digest so two runs of the same
workload can be checked for exact routing-state equivalence.
"""

from __future__ import annotations

import dataclasses
import json
from typing import List, Optional

from repro.bgp.config import BGPConfig
from repro.errors import ExperimentError
from repro.files import sha256
from repro.core.workload import replay_churn
from repro.prefix.prefix import prefix_to_json
from repro.prefix.workload import (
    PrefixAllocation,
    PrefixChurnSpec,
    allocate_prefixes,
    generate_prefix_churn,
)
from repro.sim.engine import DEFAULT_MAX_EVENTS
from repro.sim.network import SimNetwork
from repro.sim.rng import derive_rng
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType


@dataclasses.dataclass(frozen=True)
class PrefixChurnResult:
    """Outcome of one multi-prefix workload run."""

    n: int
    scenario: str
    num_prefixes: int
    spec: PrefixChurnSpec
    #: events that mutated origin state when they fired
    events_executed: int
    #: events absorbed because the prefix was down/split when they fired
    events_absorbed: int
    #: total updates delivered network-wide during the measurement window
    total_updates: int
    #: simulated time spent in the measurement window
    measured_duration: float
    #: Loc-RIB entries per node after convergence (mean / max over nodes)
    mean_table_size: float
    max_table_size: int
    #: network-wide decision-process work (sums over nodes)
    decisions_run: int
    decisions_skipped: int
    #: canonical hash of every node's Loc-RIB (equivalence checks)
    loc_rib_digest: str

    @property
    def churn_rate(self) -> float:
        """Mean updates/second delivered during the measurement window."""
        if self.measured_duration <= 0:
            return 0.0
        return self.total_updates / self.measured_duration


def loc_rib_digest(network: SimNetwork) -> str:
    """Canonical content hash of every node's Loc-RIB.

    Entries are *sorted* by prefix before hashing, so the digest depends
    only on the routing state, never on the order routes were installed.
    """
    canon = [
        [
            node_id,
            [
                [prefix_to_json(prefix), list(route.path)]
                for prefix, route in sorted(
                    network.nodes[node_id].loc_rib.entries(), key=lambda entry: entry[0]
                )
            ],
        ]
        for node_id in sorted(network.nodes)
    ]
    blob = json.dumps(canon, separators=(",", ":"))
    return sha256(blob.encode("utf-8"))


def default_prefix_origins(
    graph: ASGraph, count: int, *, seed: int = 0
) -> List[int]:
    """A deterministic sample of stub origins for a prefix workload."""
    pool = graph.nodes_of_type(NodeType.C) or graph.nodes_of_type(NodeType.CP)
    if not pool:
        raise ExperimentError("topology has no stub nodes to originate from")
    if count >= len(pool):
        return sorted(pool)
    rng = derive_rng(seed, 0x9F1E53)
    return sorted(rng.sample(sorted(pool), count))


def run_prefix_churn(
    graph: ASGraph,
    allocation: PrefixAllocation,
    spec: Optional[PrefixChurnSpec] = None,
    config: Optional[BGPConfig] = None,
    *,
    seed: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> PrefixChurnResult:
    """Run one multi-prefix churn workload and measure the table axis.

    The allocated table is the warm-up of
    :func:`repro.core.workload.replay_churn`: every allocated prefix is
    originated and the network converges uncounted, the clock settles
    past the MRAI gates, then the churn stream plays inside a counted
    measurement window.
    """
    spec = spec if spec is not None else PrefixChurnSpec()
    config = config if config is not None else BGPConfig()
    for origin in allocation.origins:
        if origin not in graph:
            raise ExperimentError(f"origin {origin} not in topology")

    network = SimNetwork(graph, config, seed=seed)
    events = generate_prefix_churn(allocation, spec, seed=seed)
    # Decision counters measure the churn phase only, not the warm-up
    # table build (the interesting ratio is per *incremental* event).
    window = replay_churn(
        network,
        [
            (origin, prefix)
            for origin in allocation.origins
            for prefix in allocation.assignments[origin]
        ],
        events,
        max_events=max_events,
        reset_decisions=True,
    )

    table_sizes = [len(node.loc_rib) for node in network.nodes.values()]
    return PrefixChurnResult(
        n=len(graph),
        scenario=graph.scenario,
        num_prefixes=allocation.num_prefixes,
        spec=spec,
        events_executed=window.executed,
        events_absorbed=window.absorbed,
        total_updates=network.counter.total,
        measured_duration=window.duration,
        mean_table_size=(
            sum(table_sizes) / len(table_sizes) if table_sizes else 0.0
        ),
        max_table_size=max(table_sizes, default=0),
        decisions_run=sum(n.decisions_run for n in network.nodes.values()),
        decisions_skipped=sum(
            n.decisions_skipped for n in network.nodes.values()
        ),
        loc_rib_digest=loc_rib_digest(network),
    )


def build_allocation(
    graph: ASGraph,
    num_prefixes: int,
    *,
    num_origins: int = 0,
    seed: int = 0,
    base_length: int = 16,
) -> PrefixAllocation:
    """Allocate a prefix table over a topology's stub population.

    ``num_origins`` caps the participating stubs (0 = one origin per
    prefix, capped by the stub population).
    """
    if num_origins <= 0:
        num_origins = num_prefixes
    origins = default_prefix_origins(graph, num_origins, seed=seed)
    return allocate_prefixes(
        origins, num_prefixes, seed=seed, base_length=base_length
    )
