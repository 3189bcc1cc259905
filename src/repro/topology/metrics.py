"""Topology metrics used to validate the four "stable properties" (Sec. 3).

The paper argues its generator preserves, across all sizes:

* a hierarchical (acyclic) provider structure — checked in
  :mod:`repro.topology.validation`;
* a truncated power-law degree distribution — :func:`degree_distribution`,
  :func:`power_law_alpha`;
* strong clustering (clustering coefficient ≈ 0.15, well above random) —
  :func:`clustering_coefficient`;
* a roughly constant average AS-path length of ≈ 4 hops —
  :func:`average_valley_free_path_length`.

Path lengths are measured over *valley-free* paths (the only paths BGP
policies permit), computed with a layered BFS: a path may ascend customer→
provider links, cross at most one peering link, then descend provider→
customer links.
"""

from __future__ import annotations

import collections
import math
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType, Relationship

if TYPE_CHECKING:
    import networkx as nx

#: BFS phases for valley-free traversal, in the direction *away* from the
#: source: ascending (provider links), crossed a peering link, descending.
_ASCENDING, _PEERED, _DESCENDING = 0, 1, 2


def degree_distribution(graph: ASGraph) -> Dict[int, int]:
    """Histogram degree → number of nodes with that degree."""
    histogram: Dict[int, int] = collections.Counter()
    for node_id in graph.node_ids:
        histogram[graph.degree(node_id)] += 1
    return dict(histogram)


def degree_ccdf(graph: ASGraph) -> List[Tuple[int, float]]:
    """Complementary CDF of the degree distribution, as (degree, P(D >= degree))."""
    histogram = degree_distribution(graph)
    total = sum(histogram.values())
    if total == 0:
        return []
    ccdf: List[Tuple[int, float]] = []
    remaining = total
    for degree in sorted(histogram):
        ccdf.append((degree, remaining / total))
        remaining -= histogram[degree]
    return ccdf


def power_law_alpha(graph: ASGraph, *, d_min: int = 2) -> float:
    """Maximum-likelihood power-law exponent of the degree distribution.

    Uses the discrete Clauset–Shalizi–Newman approximation
    ``alpha = 1 + n / sum(ln(d / (d_min - 0.5)))`` over degrees >= d_min.
    """
    if d_min < 1:
        raise ParameterError(f"d_min must be >= 1, got {d_min}")
    degrees = [graph.degree(node_id) for node_id in graph.node_ids]
    tail = [d for d in degrees if d >= d_min]
    if len(tail) < 2:
        raise ParameterError("not enough tail degrees to fit a power law")
    log_sum = sum(math.log(d / (d_min - 0.5)) for d in tail)
    return 1.0 + len(tail) / log_sum


def to_networkx(graph: ASGraph) -> nx.Graph:
    """Undirected networkx view with node/edge attributes.

    Node attribute ``node_type`` holds the type name; edge attribute
    ``relationship`` is ``"transit"`` or ``"peer"``.
    """
    import networkx as nx

    result = nx.Graph()
    for node in graph.nodes():
        result.add_node(
            node.node_id,
            node_type=node.node_type.value,
            regions=sorted(node.regions),
        )
    for u, v, rel in graph.edges():
        kind = "peer" if rel is Relationship.PEER else "transit"
        result.add_edge(u, v, relationship=kind)
    return result


def clustering_coefficient(
    graph: ASGraph,
    *,
    sample: Optional[int] = None,
    seed: int = 0,
    min_degree: int = 2,
) -> float:
    """Average clustering coefficient (optionally on a node sample).

    Averaged over nodes with at least ``min_degree`` neighbours — the
    local coefficient is undefined below degree 2, and with ~80 % of the
    AS population being low-degree stubs, including them as zeros would
    hide the strong transit-core clustering.  With the default the
    Baseline topologies land around the paper's ≈ 0.15 (Sec. 3), far
    above an Erdős–Rényi graph of the same density.
    """
    nx_graph = to_networkx(graph)
    eligible = [v for v in graph.node_ids if graph.degree(v) >= min_degree]
    if not eligible:
        return 0.0
    nodes: Sequence[int] = eligible
    if sample is not None and sample < len(eligible):
        rng = random.Random(seed)
        nodes = rng.sample(eligible, sample)
    from networkx import clustering

    values = clustering(nx_graph, nodes=nodes)
    if not values:
        return 0.0
    return sum(values.values()) / len(values)


def valley_free_path_lengths(graph: ASGraph, source: int) -> Dict[int, int]:
    """Shortest valley-free hop count from ``source`` to every reachable node.

    Implements a BFS over the layered state space (node, phase) where the
    phase encodes how the path may continue (ascend, after-peering,
    descend), exactly matching Gao–Rexford export rules.
    """
    best: Dict[int, int] = {source: 0}
    # state: (node, phase); phase transitions restrict usable edges.
    visited = {(source, _ASCENDING)}
    frontier: List[Tuple[int, int]] = [(source, _ASCENDING)]
    distance = 0
    while frontier:
        distance += 1
        next_frontier: List[Tuple[int, int]] = []
        for node_id, phase in frontier:
            for neighbor, rel in graph.neighbors(node_id).items():
                next_phase = _next_phase(phase, rel)
                if next_phase is None:
                    continue
                state = (neighbor, next_phase)
                if state in visited:
                    continue
                visited.add(state)
                if neighbor not in best:
                    best[neighbor] = distance
                next_frontier.append(state)
        frontier = next_frontier
    return best


def _next_phase(phase: int, rel: Relationship) -> Optional[int]:
    """Phase after traversing an edge of relationship ``rel``, or None."""
    if phase == _ASCENDING:
        if rel is Relationship.PROVIDER:
            return _ASCENDING
        if rel is Relationship.PEER:
            return _PEERED
        return _DESCENDING
    # After a peering link or once descending, only downhill steps remain.
    if rel is Relationship.CUSTOMER:
        return _DESCENDING
    return None


def average_valley_free_path_length(
    graph: ASGraph, *, sources: Optional[int] = None, seed: int = 0
) -> float:
    """Average valley-free path length between node pairs.

    ``sources`` limits the number of BFS roots (sampled uniformly) for
    large graphs; ``None`` runs from every node.
    """
    node_ids = list(graph.node_ids)
    if sources is not None and sources < len(node_ids):
        rng = random.Random(seed)
        roots = rng.sample(node_ids, sources)
    else:
        roots = node_ids
    total = 0
    pairs = 0
    for root in roots:
        lengths = valley_free_path_lengths(graph, root)
        for node_id, length in lengths.items():
            if node_id != root:
                total += length
                pairs += 1
    if pairs == 0:
        return 0.0
    return total / pairs


def joint_degree_distribution(graph: ASGraph) -> Dict[Tuple[int, int], int]:
    """dK-2 statistics: histogram of edge-endpoint degree pairs.

    Each undirected edge contributes one count to the unordered pair
    ``(min(deg(u), deg(v)), max(deg(u), deg(v)))``.  "Beyond Node Degree"
    argues this is the cheapest distribution that separates real AS
    graphs from degree-matched random ones; two topologies with the same
    dK-2 share degree distribution *and* degree correlations.
    """
    degree = {node_id: graph.degree(node_id) for node_id in graph.node_ids}
    histogram: Dict[Tuple[int, int], int] = collections.Counter()
    for u, v, _ in graph.edges():
        du, dv = degree[u], degree[v]
        histogram[(min(du, dv), max(du, dv))] += 1
    return dict(histogram)


def clustering_spectrum(
    graph: ASGraph, *, min_degree: int = 2
) -> Dict[int, float]:
    """Degree-dependent clustering c(k): mean local clustering per degree.

    Averages the local clustering coefficient over all nodes of each
    degree ``k >= min_degree`` (below degree 2 the coefficient is
    undefined).  Real AS graphs show a decaying c(k) — low-degree stubs
    attach to tightly meshed transit cores — which a degree-matched
    random graph does not reproduce.
    """
    from networkx import clustering

    nx_graph = to_networkx(graph)
    by_degree: Dict[int, List[int]] = collections.defaultdict(list)
    for node_id in graph.node_ids:
        degree = graph.degree(node_id)
        if degree >= min_degree:
            by_degree[degree].append(node_id)
    spectrum: Dict[int, float] = {}
    for degree in sorted(by_degree):
        values = clustering(nx_graph, nodes=by_degree[degree])
        spectrum[degree] = sum(values.values()) / len(values)
    return spectrum


def approximate_betweenness(
    graph: ASGraph, *, pivots: Optional[int] = None, seed: int = 0
) -> Dict[int, float]:
    """Pivot-sampled approximate betweenness centrality, deterministic.

    Runs Brandes' dependency accumulation from ``pivots`` sampled source
    nodes (Brandes–Pich estimation) and rescales by ``n / pivots`` so
    values approximate the full-pivot sum of pair dependencies.  The
    implementation is self-contained rather than delegating to networkx:
    the pivot sample comes from ``random.Random(seed)`` and every BFS
    walks neighbours in the graph's stored adjacency order, so a given
    ``(graph, pivots, seed)`` triple yields byte-identical results
    across runs and library versions — which the fidelity report's
    determinism gate relies on.

    Betweenness here is over *shortest undirected paths*, not valley-free
    paths: it is a structural fidelity metric (does the generated core
    carry load the way the measured core does), not a routing metric.
    """
    node_ids = list(graph.node_ids)
    n = len(node_ids)
    centrality: Dict[int, float] = {node_id: 0.0 for node_id in node_ids}
    if n < 3:
        return centrality
    if pivots is None or pivots >= n:
        sources = node_ids
    else:
        if pivots < 1:
            raise ParameterError(f"pivots must be >= 1, got {pivots}")
        rng = random.Random(seed)
        sources = rng.sample(node_ids, pivots)
    for source in sources:
        # Brandes' single-source shortest-path dependency accumulation.
        stack: List[int] = []
        predecessors: Dict[int, List[int]] = {v: [] for v in node_ids}
        sigma: Dict[int, float] = {v: 0.0 for v in node_ids}
        sigma[source] = 1.0
        distance: Dict[int, int] = {source: 0}
        queue: collections.deque = collections.deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in graph.adjacency_order(v):
                if w not in distance:
                    distance[w] = distance[v] + 1
                    queue.append(w)
                if distance[w] == distance[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta: Dict[int, float] = {v: 0.0 for v in node_ids}
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                centrality[w] += delta[w]
    scale = n / len(sources)
    # Undirected graphs double-count each pair; normalise like networkx.
    norm = scale / ((n - 1) * (n - 2))
    return {v: centrality[v] * norm for v in node_ids}


def mean_multihoming_degree(graph: ASGraph, node_type: NodeType) -> float:
    """Average number of providers for nodes of the given type."""
    nodes = graph.nodes_of_type(node_type)
    if not nodes:
        return 0.0
    return sum(graph.multihoming_degree(node_id) for node_id in nodes) / len(nodes)


def mean_peering_degree(graph: ASGraph, node_type: NodeType) -> float:
    """Average number of peering links for nodes of the given type."""
    nodes = graph.nodes_of_type(node_type)
    if not nodes:
        return 0.0
    return sum(graph.peering_degree(node_id) for node_id in nodes) / len(nodes)


def summarize(graph: ASGraph, *, path_length_sources: int = 50) -> Dict[str, float]:
    """One-call summary of the headline topology metrics."""
    counts = graph.type_counts()
    return {
        "n": float(len(graph)),
        "links": float(graph.edge_count()),
        "n_t": float(counts[NodeType.T]),
        "n_m": float(counts[NodeType.M]),
        "n_cp": float(counts[NodeType.CP]),
        "n_c": float(counts[NodeType.C]),
        "mhd_m": mean_multihoming_degree(graph, NodeType.M),
        "mhd_cp": mean_multihoming_degree(graph, NodeType.CP),
        "mhd_c": mean_multihoming_degree(graph, NodeType.C),
        "clustering": clustering_coefficient(graph, sample=min(len(graph), 400)),
        "avg_path_length": average_valley_free_path_length(
            graph, sources=min(len(graph), path_length_sources)
        ),
        "power_law_alpha": power_law_alpha(graph),
    }
