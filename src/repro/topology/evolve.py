"""Incremental topology evolution.

The Internet does not get regenerated every year — it *grows*: new ASes
attach, existing ASes add providers as multihoming becomes cheaper.
:func:`evolve_topology` grows an existing :class:`~repro.topology.graph.ASGraph`
to a larger parameter point of the same scenario family:

1. new M, CP and C nodes are added with the generator's own attachment
   rules at the *target* parameters;
2. existing nodes acquire extra provider links so each type's mean
   multihoming degree tracks the target ``d_*`` (the Baseline's MHD
   growth, Sec. 3);
3. new M/CP nodes draw their peering links.

Evolution preserves node identities and existing links, which removes a
large source of instance-to-instance variance in growth sweeps: the same
network is measured at every size (the paper regenerates instead, which
is why its Fig. 4/5 curves are noisy enough to warrant confidence
intervals).

T nodes are fixed: the clique neither grows nor shrinks during
evolution (the paper's Baseline also keeps nT in the narrow 4–6 band).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.errors import TopologyError
from repro.topology.generator import (
    _add_cp_peering,
    _add_m_nodes,
    _add_m_peering,
    _add_stub_nodes,
    _GeneratorState,
    _provider_slots,
)
from repro.topology.attachment import draw_link_count
from repro.topology.graph import ASGraph
from repro.topology.params import TopologyParams
from repro.topology.types import NodeType


def evolve_topology(
    graph: ASGraph,
    params: TopologyParams,
    *,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> ASGraph:
    """Grow ``graph`` in place to the target ``params``; returns the graph.

    ``params.n_t`` must equal the current T population and every other
    type count must be >= its current value (evolution only adds).
    """
    if rng is not None and seed is not None:
        raise TopologyError("pass either seed or rng, not both")
    if rng is None:
        rng = random.Random(seed)

    counts = graph.type_counts()
    if params.n_t != counts[NodeType.T]:
        raise TopologyError(
            f"cannot change the T clique during evolution "
            f"({counts[NodeType.T]} -> {params.n_t})"
        )
    for node_type, target in (
        (NodeType.M, params.n_m),
        (NodeType.CP, params.n_cp),
        (NodeType.C, params.n_c),
    ):
        if target < counts[node_type]:
            raise TopologyError(
                f"evolution cannot remove {node_type} nodes "
                f"({counts[node_type]} -> {target})"
            )
    region_span = max((max(node.regions) for node in graph.nodes()), default=0) + 1
    if params.regions < region_span:
        raise TopologyError(
            f"evolution cannot shrink the region space "
            f"({region_span} -> {params.regions})"
        )

    state = _GeneratorState.from_graph(graph, params, rng)
    existing_m = list(state.m_nodes)
    existing_cp = list(state.cp_nodes)
    existing_c = list(state.c_nodes)

    # 1. New nodes with their transit links, at the target parameters.
    _add_m_nodes(state, params.n_m - counts[NodeType.M])
    _add_stub_nodes(
        state, NodeType.CP, params.n_cp - counts[NodeType.CP], params.d_cp, params.t_cp
    )
    _add_stub_nodes(
        state, NodeType.C, params.n_c - counts[NodeType.C], params.d_c, params.t_c
    )
    new_m = state.m_nodes[len(existing_m) :]
    new_cp = state.cp_nodes[len(existing_cp) :]

    # 2. Densify existing nodes toward the target multihoming degrees.
    _densify_mhd(state, existing_m, params.d_m, params.t_m)
    _densify_mhd(state, existing_cp, params.d_cp, params.t_cp)
    _densify_mhd(state, existing_c, params.d_c, params.t_c)

    # 3. Peering for the newcomers.
    _add_m_peering(state, new_m)
    _add_cp_peering(state, new_cp)
    graph.scenario = params.scenario
    return graph


def _densify_mhd(
    state: _GeneratorState,
    nodes: List[int],
    target_mean: float,
    t_probability: float,
) -> None:
    """Add provider links so the group's mean MHD approaches the target.

    Each node draws its extra-provider count from the same uniform spread
    the generator uses, centred on the group's current deficit; a drawn
    provider the graph refuses (already connected, a provider loop, or a
    peering link pulled inside a customer tree) is skipped.
    """
    if not nodes:
        return
    graph = state.graph
    current = sum(graph.multihoming_degree(node) for node in nodes) / len(nodes)
    deficit = target_mean - current
    if deficit <= 0:
        return
    for node_id in nodes:
        extra = draw_link_count(deficit, state.rng, minimum=0)
        if extra == 0:
            continue
        for provider in _provider_slots(state, node_id, extra, t_probability):
            try:
                state.add_transit(node_id, provider)
            except TopologyError:
                continue
