"""Top-down AS topology generator (Sec. 3 of the paper).

Generation proceeds in the two steps the paper describes:

1. **Nodes and transit links.**  First the T-node clique is created, then M
   nodes are added one at a time, each choosing on average ``d_m``
   providers among the already-present T and M nodes (fraction ``t_m``
   terminating at T nodes, preferential attachment on transit degree, same
   region only).  CP and C nodes follow with averages ``d_cp`` / ``d_c``
   and T-provider probabilities ``t_cp`` / ``t_c``.
2. **Peering links.**  Each M node adds on average ``p_m`` peering links to
   other M nodes (preferential attachment on *peering* degree); each CP
   node adds on average ``p_cp_m`` links to M nodes and ``p_cp_cp`` links
   to other CP nodes, chosen uniformly.  A node never peers with a member
   of its own customer tree.

The generator is fully deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.topology.attachment import (
    WeightedPool,
    draw_link_count,
    preferential_choice,
    preferential_draw,
    uniform_choice,
)
from repro.topology.graph import ASGraph
from repro.topology.params import TopologyParams
from repro.topology.regions import all_regions, draw_regions
from repro.topology.types import NodeType

#: How many times a single link slot may be re-drawn before being abandoned
#: (the candidate pool can be exhausted in tiny or extreme topologies).
_MAX_DRAW_ATTEMPTS = 32


class _Candidates:
    """The nodes one attachment decision may choose from.

    Stands for the list "every item of the first pool, then the items of
    each further pool not listed yet, minus everything excluded" without
    building it: items that must not be offered (twice) are hidden in the
    shared pools while the view is open, so use it as a context manager.
    """

    def __init__(self, pools: Sequence[WeightedPool]) -> None:
        self.pools = pools
        self._hidden: List[Tuple[WeightedPool, int]] = []
        for index, pool in enumerate(pools):
            for earlier in pools[:index]:
                small, large = sorted((earlier, pool), key=len)
                for item in small.items:
                    if item in large:
                        self._hide(pool, item)

    def _hide(self, pool: WeightedPool, item: int) -> None:
        if pool.hide(item):
            self._hidden.append((pool, item))

    def exclude(self, item: int) -> None:
        """Stop offering ``item``."""
        for pool in self.pools:
            if item in pool:
                self._hide(pool, item)

    def __enter__(self) -> "_Candidates":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for pool, item in self._hidden:
            pool.unhide(item)
        self._hidden.clear()

    def __bool__(self) -> bool:
        return any(pool.total for pool in self.pools)

    def __iter__(self) -> Iterator[int]:
        for pool in self.pools:
            yield from pool.visible()

    def draw(self, rng: random.Random) -> int:
        """Preferential-attachment draw among the offered items."""
        return preferential_draw(self.pools, rng)


class _GeneratorState:
    """Book-keeping shared by the generation phases.

    Keeps the provider and peer candidates of every region in
    :class:`WeightedPool` s whose weights follow the graph's degrees link
    by link, so selection neither scans the graph nor re-accumulates a
    pool's weights.
    """

    def __init__(self, params: TopologyParams, rng: random.Random) -> None:
        self.params = params
        self.rng = rng
        self.graph = ASGraph(scenario=params.scenario)
        self.next_id = 0
        self.m_nodes: List[int] = []
        self.cp_nodes: List[int] = []
        self.c_nodes: List[int] = []
        #: T nodes, weighted by transit degree + 1
        self.t_providers = WeightedPool()
        #: M nodes present in each region, weighted by transit degree + 1 ...
        self.m_providers: Dict[int, WeightedPool] = {
            region: WeightedPool() for region in range(params.regions)
        }
        #: ... and by peering degree + 1
        self.m_peers: Dict[int, WeightedPool] = {
            region: WeightedPool() for region in range(params.regions)
        }
        self.peering_degree: Dict[int, int] = {}

    @classmethod
    def from_graph(
        cls, graph: ASGraph, params: TopologyParams, rng: random.Random
    ) -> "_GeneratorState":
        """Rebuild generator book-keeping from an existing topology.

        Used by :mod:`repro.topology.evolve` to grow a topology
        incrementally instead of regenerating it from scratch.
        """
        state = cls(params, rng)
        state.graph = graph
        state.next_id = (max(graph.node_ids) + 1) if len(graph) else 0
        state.m_nodes = graph.nodes_of_type(NodeType.M)
        state.cp_nodes = graph.nodes_of_type(NodeType.CP)
        state.c_nodes = graph.nodes_of_type(NodeType.C)
        state.peering_degree = {
            node_id: graph.peering_degree(node_id) for node_id in graph.node_ids
        }

        def transit_weight(node_id: int) -> int:
            return graph.transit_degree(node_id) + 1

        def peering_weight(node_id: int) -> int:
            return state.peering_degree[node_id] + 1

        state.t_providers = WeightedPool(
            graph.nodes_of_type(NodeType.T), transit_weight
        )
        m_by_region: Dict[int, List[int]] = {
            region: [] for region in range(params.regions)
        }
        for m in state.m_nodes:
            for region in graph.node(m).regions:
                m_by_region[region].append(m)
        for region, members in m_by_region.items():
            state.m_providers[region] = WeightedPool(members, transit_weight)
            state.m_peers[region] = WeightedPool(members, peering_weight)
        return state

    def add_node(self, node_type: NodeType) -> int:
        node_id = self.next_id
        self.next_id += 1
        if node_type is NodeType.T:
            regions = all_regions(self.params.regions)
        else:
            regions = draw_regions(
                node_type,
                self.params.regions,
                self.rng,
                m_two_region_fraction=self.params.m_two_region_fraction,
                cp_two_region_fraction=self.params.cp_two_region_fraction,
            )
        self.graph.add_node(node_id, node_type, regions)
        self.peering_degree[node_id] = 0
        if node_type is NodeType.T:
            self.t_providers.append(node_id, 1)
        elif node_type is NodeType.M:
            self.m_nodes.append(node_id)
            for region in regions:
                self.m_providers[region].append(node_id, 1)
                self.m_peers[region].append(node_id, 1)
        elif node_type is NodeType.CP:
            self.cp_nodes.append(node_id)
        else:
            self.c_nodes.append(node_id)
        return node_id

    def add_transit(self, customer: int, provider: int) -> None:
        self.graph.add_transit_link(customer, provider)
        for node_id in (customer, provider):
            node = self.graph.node(node_id)
            if node.node_type is NodeType.T:
                self.t_providers.add_weight(node_id, 1)
            elif node.node_type is NodeType.M:
                for region in node.regions:
                    self.m_providers[region].add_weight(node_id, 1)

    def add_peering(self, a: int, b: int) -> None:
        self.graph.add_peering_link(a, b)
        for node_id in (a, b):
            self.peering_degree[node_id] += 1
            node = self.graph.node(node_id)
            if node.node_type is NodeType.M:
                for region in node.regions:
                    self.m_peers[region].add_weight(node_id, 1)

    def m_candidates_for(
        self, node_id: int, pools_by_region: Dict[int, WeightedPool]
    ) -> _Candidates:
        """M nodes sharing a region with ``node_id`` (excluding itself).

        Offered in the order of ``node_id``'s regions, each M node once.
        """
        regions = self.graph.node(node_id).regions
        view = _Candidates([pools_by_region[region] for region in regions])
        view.exclude(node_id)
        return view


def generate_topology(
    params: TopologyParams, *, seed: Optional[int] = None, rng: Optional[random.Random] = None
) -> ASGraph:
    """Generate one topology instance for the given parameters.

    Exactly one of ``seed`` / ``rng`` may be supplied; with neither, a
    fresh unseeded RNG is used (non-reproducible).
    """
    if rng is not None and seed is not None:
        raise TopologyError("pass either seed or rng, not both")
    if rng is None:
        rng = random.Random(seed)
    state = _GeneratorState(params, rng)
    _build_t_clique(state)
    _add_m_nodes(state, params.n_m)
    _add_stub_nodes(state, NodeType.CP, params.n_cp, params.d_cp, params.t_cp)
    _add_stub_nodes(state, NodeType.C, params.n_c, params.d_c, params.t_c)
    _add_m_peering(state, state.m_nodes)
    _add_cp_peering(state, state.cp_nodes)
    return state.graph


# ----------------------------------------------------------------------
# Phase 1: nodes and transit links
# ----------------------------------------------------------------------
def _build_t_clique(state: _GeneratorState) -> None:
    """Create the T nodes and fully mesh them with peering links."""
    for _ in range(state.params.n_t):
        state.add_node(NodeType.T)
    t_nodes = state.t_providers.items
    for i, a in enumerate(t_nodes):
        for b in t_nodes[i + 1 :]:
            state.add_peering(a, b)


def _provider_slots(
    state: _GeneratorState,
    node_id: int,
    count: int,
    t_probability: float,
) -> List[int]:
    """Choose ``count`` distinct providers for ``node_id``.

    Each slot terminates at a T node with probability ``t_probability``
    (subject to the scenario's ``max_t_providers`` / ``max_m_providers``
    caps), otherwise at an M node sharing a region, selected with
    preferential attachment on transit degree.  Falls back to the other
    category when a pool is exhausted; returns fewer than ``count``
    providers only if both pools run dry.
    """
    params = state.params
    chosen: List[int] = []
    t_chosen = 0
    m_chosen = 0
    with _Candidates([state.t_providers]) as t_candidates, state.m_candidates_for(
        node_id, state.m_providers
    ) as m_candidates:
        for _ in range(count):
            t_open = bool(t_candidates) and (
                params.max_t_providers is None or t_chosen < params.max_t_providers
            )
            m_open = bool(m_candidates) and (
                params.max_m_providers is None or m_chosen < params.max_m_providers
            )
            if not t_open and not m_open:
                break
            if t_open and m_open:
                use_t = state.rng.random() < t_probability
            else:
                use_t = t_open
            if use_t:
                provider = t_candidates.draw(state.rng)
                t_candidates.exclude(provider)
                t_chosen += 1
            else:
                provider = m_candidates.draw(state.rng)
                m_candidates.exclude(provider)
                m_chosen += 1
            chosen.append(provider)
    return chosen


def _add_m_nodes(state: _GeneratorState, how_many: int) -> None:
    """Add M nodes one at a time, attaching each to its providers."""
    params = state.params
    for _ in range(how_many):
        node_id = state.add_node(NodeType.M)
        count = draw_link_count(params.d_m, state.rng, minimum=1)
        for provider in _provider_slots(state, node_id, count, params.t_m):
            state.add_transit(node_id, provider)


def _add_stub_nodes(
    state: _GeneratorState,
    node_type: NodeType,
    how_many: int,
    average_degree: float,
    t_probability: float,
) -> None:
    """Add CP or C nodes with their provider links."""
    for _ in range(how_many):
        node_id = state.add_node(node_type)
        count = draw_link_count(average_degree, state.rng, minimum=1)
        for provider in _provider_slots(state, node_id, count, t_probability):
            state.add_transit(node_id, provider)


# ----------------------------------------------------------------------
# Phase 2: peering links
# ----------------------------------------------------------------------
def _peering_eligible(state: _GeneratorState, a: int, b: int) -> bool:
    """Whether a peering link a--b respects all generator constraints."""
    graph = state.graph
    if a == b or graph.has_link(a, b):
        return False
    if not graph.node(a).shares_region_with(graph.node(b)):
        return False
    if graph.is_in_customer_tree(ancestor=a, descendant=b):
        return False
    if graph.is_in_customer_tree(ancestor=b, descendant=a):
        return False
    return True


def _add_m_peering(state: _GeneratorState, initiators: Sequence[int]) -> None:
    """Add M–M peering links via preferential attachment on peering degree."""
    params = state.params
    for node_id in initiators:
        count = draw_link_count(params.p_m, state.rng, minimum=0)
        with state.m_candidates_for(node_id, state.m_peers) as candidates:
            for _ in range(count):
                peer = _draw_peer_preferential(state, node_id, candidates)
                if peer is None:
                    break
                state.add_peering(node_id, peer)


def _draw_peer_preferential(
    state: _GeneratorState, node_id: int, candidates: _Candidates
) -> Optional[int]:
    """Draw an eligible peer with peering-degree preferential attachment.

    Re-draws on ineligible candidates (already adjacent, customer-tree
    conflict) up to a bounded number of attempts, then falls back to an
    exhaustive scan so small candidate pools are never starved by bad luck.
    """
    if not candidates:
        return None
    for _ in range(_MAX_DRAW_ATTEMPTS):
        peer = candidates.draw(state.rng)
        if _peering_eligible(state, node_id, peer):
            return peer
    eligible = [c for c in candidates if _peering_eligible(state, node_id, c)]
    if not eligible:
        return None
    return preferential_choice(eligible, state.peering_degree.__getitem__, state.rng)


def _draw_peer_uniform(
    state: _GeneratorState, node_id: int, candidates: Sequence[int]
) -> Optional[int]:
    """Draw an eligible peer uniformly (CP peer selection)."""
    if not candidates:
        return None
    for _ in range(_MAX_DRAW_ATTEMPTS):
        peer = uniform_choice(candidates, state.rng)
        if _peering_eligible(state, node_id, peer):
            return peer
    eligible = [c for c in candidates if _peering_eligible(state, node_id, c)]
    if not eligible:
        return None
    return uniform_choice(eligible, state.rng)


def _add_cp_peering(state: _GeneratorState, initiators: Sequence[int]) -> None:
    """Add CP–M and CP–CP peering links, uniform selection within region.

    A CP node is offered the other CP nodes sharing a region with it, in
    ``state.cp_nodes`` order.  That list is filtered once per distinct
    region set (a handful) rather than once per CP node.
    """
    params = state.params
    cp_sharing: Dict[FrozenSet[int], List[int]] = {}
    for node_id in initiators:
        with state.m_candidates_for(node_id, state.m_peers) as offered:
            m_candidates = list(offered)
        for _ in range(draw_link_count(params.p_cp_m, state.rng, minimum=0)):
            peer = _draw_peer_uniform(state, node_id, m_candidates)
            if peer is None:
                break
            state.add_peering(node_id, peer)
        regions = state.graph.node(node_id).regions
        sharing = cp_sharing.get(regions)
        if sharing is None:
            sharing = cp_sharing[regions] = [
                cp for cp in state.cp_nodes if state.graph.node(cp).regions & regions
            ]
        cp_candidates = [cp for cp in sharing if cp != node_id]
        for _ in range(draw_link_count(params.p_cp_cp, state.rng, minimum=0)):
            peer = _draw_peer_uniform(state, node_id, cp_candidates)
            if peer is None:
                break
            state.add_peering(node_id, peer)
