"""The update-factor decomposition of Sec. 4 (Eq. 1).

The paper models the updates a node of type X receives after a C-event as

    U(X) = m_c q_c e_c + m_p q_p e_p + m_d q_d e_d

where, per relationship class y ∈ {customer, peer, provider}:

* ``m_y`` — number of direct neighbours of that class (topological),
* ``q_y`` — fraction of those neighbours that send at least one update
  during convergence,
* ``e_y`` — average number of updates contributed by each active
  neighbour.

:class:`FactorAccumulator` consumes the relationship-classified counters
of one measured C-event at a time and aggregates them so that the identity
``U_y = m_y · q_y · e_y`` holds *exactly* for the aggregated estimates
(sums over nodes and events are combined before the ratios are taken).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.sim.counters import UpdateCounter
from repro.topology.graph import ASGraph
from repro.topology.types import NODE_TYPE_ORDER, NodeType, Relationship

_RELS = (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER)


@dataclasses.dataclass(frozen=True)
class GraphSummary:
    """Picklable structural digest of an :class:`ASGraph`.

    Carries exactly what factor aggregation needs — node order, types and
    the static per-node ``m`` counts — so parallel sweep workers can ship
    mergeable results between processes without pickling whole graphs.
    """

    scenario: str
    node_ids: Tuple[int, ...]
    node_types: Dict[int, NodeType]
    m: Dict[int, Dict[Relationship, int]]

    @classmethod
    def from_graph(cls, graph: ASGraph) -> "GraphSummary":
        """Extract the digest (node order matches ``graph.node_ids``)."""
        node_ids = tuple(graph.node_ids)
        node_types = {node.node_id: node.node_type for node in graph.nodes()}
        m: Dict[int, Dict[Relationship, int]] = {}
        for node_id in node_ids:
            counts = {rel: 0 for rel in _RELS}
            for rel in graph.neighbors(node_id).values():
                counts[rel] += 1
            m[node_id] = counts
        return cls(
            scenario=graph.scenario,
            node_ids=node_ids,
            node_types=node_types,
            m=m,
        )

    def __len__(self) -> int:
        return len(self.node_ids)

    def nodes_of_type(self, node_type: NodeType) -> List[int]:
        """Ids of all nodes of the given type, ascending."""
        return [
            node_id
            for node_id in self.node_ids
            if self.node_types[node_id] is node_type
        ]

    def type_counts(self) -> Dict[NodeType, int]:
        """Number of nodes of each type."""
        counts = {node_type: 0 for node_type in NodeType}
        for node_type in self.node_types.values():
            counts[node_type] += 1
        return counts


@dataclasses.dataclass
class RawFactorSums:
    """The integer sums underlying the factor estimates.

    All fields are sums over events and nodes, so two instances measured
    on disjoint origin batches of the same topology merge exactly with
    :meth:`absorb` — the basis of the parallel sweep's bit-identical
    serial/parallel guarantee.
    """

    events: int
    updates: Dict[int, Dict[Relationship, int]]
    active: Dict[int, Dict[Relationship, int]]
    total_updates: Dict[int, int]

    @classmethod
    def zeros(cls, node_ids) -> "RawFactorSums":
        """All-zero sums for the given node population."""
        return cls(
            events=0,
            updates={i: {rel: 0 for rel in _RELS} for i in node_ids},
            active={i: {rel: 0 for rel in _RELS} for i in node_ids},
            total_updates={i: 0 for i in node_ids},
        )

    @classmethod
    def from_columns(cls, node_ids, columns: dict) -> "RawFactorSums":
        """Inverse of :meth:`FactorAccumulator.sum_columns`.

        Raises ``ValueError`` unless every column covers ``node_ids``.
        """

        def by_node(per_rel_columns) -> Dict[int, Dict[Relationship, int]]:
            rows = zip(*per_rel_columns, strict=True)
            return {
                node_id: dict(zip(_RELS, counts, strict=True))
                for node_id, counts in zip(node_ids, rows, strict=True)
            }

        return cls(
            events=columns["events"],
            updates=by_node(columns["updates"]),
            active=by_node(columns["active"]),
            total_updates=dict(zip(node_ids, columns["total_updates"], strict=True)),
        )

    def copy(self) -> "RawFactorSums":
        """An independent deep copy."""
        return RawFactorSums(
            events=self.events,
            updates={i: dict(per) for i, per in self.updates.items()},
            active={i: dict(per) for i, per in self.active.items()},
            total_updates=dict(self.total_updates),
        )

    def absorb(self, other: "RawFactorSums") -> None:
        """Fold another batch's sums into this one (exact integer adds)."""
        if set(self.total_updates) != set(other.total_updates):
            raise ExperimentError("cannot merge factor sums of different node sets")
        self.events += other.events
        for node_id, per_rel in other.updates.items():
            mine = self.updates[node_id]
            for rel, count in per_rel.items():
                mine[rel] += count
        for node_id, per_rel in other.active.items():
            mine = self.active[node_id]
            for rel, count in per_rel.items():
                mine[rel] += count
        for node_id, count in other.total_updates.items():
            self.total_updates[node_id] += count


def compute_type_factors(
    summary: GraphSummary, raw: RawFactorSums, node_type: NodeType
) -> TypeFactors:
    """Aggregate factors for one node type from raw sums.

    Sums are combined before any ratio is taken, so ``U_y = m_y·q_y·e_y``
    holds exactly and the result is independent of how the underlying
    events were batched.
    """
    if raw.events == 0:
        raise ExperimentError("no events accumulated")
    nodes = summary.nodes_of_type(node_type)
    count = len(nodes)
    events = raw.events
    u_by_rel: Dict[Relationship, float] = {}
    m_by_rel: Dict[Relationship, float] = {}
    q_by_rel: Dict[Relationship, float] = {}
    e_by_rel: Dict[Relationship, float] = {}
    for rel in _RELS:
        sum_updates = sum(raw.updates[node][rel] for node in nodes)
        sum_active = sum(raw.active[node][rel] for node in nodes)
        sum_m = sum(summary.m[node][rel] for node in nodes)
        u_by_rel[rel] = sum_updates / (count * events) if count else 0.0
        m_by_rel[rel] = sum_m / count if count else 0.0
        q_by_rel[rel] = sum_active / (sum_m * events) if sum_m else 0.0
        e_by_rel[rel] = sum_updates / sum_active if sum_active else 0.0
    per_node = [raw.total_updates[node] / events for node in nodes]
    return TypeFactors(
        node_type=node_type,
        node_count=count,
        events=events,
        u_total=sum(u_by_rel.values()),
        u_by_rel=u_by_rel,
        m_by_rel=m_by_rel,
        q_by_rel=q_by_rel,
        e_by_rel=e_by_rel,
        per_node_updates=per_node,
    )


def compute_all_type_factors(
    summary: GraphSummary, raw: RawFactorSums
) -> Dict[NodeType, TypeFactors]:
    """Factors for every node type present in the summary."""
    return {
        node_type: compute_type_factors(summary, raw, node_type)
        for node_type in NODE_TYPE_ORDER
        if summary.nodes_of_type(node_type)
    }


@dataclasses.dataclass(frozen=True)
class TypeFactors:
    """Aggregated churn factors for one node type."""

    node_type: NodeType
    node_count: int
    events: int
    #: average updates received per node per C-event, total and per class
    u_total: float
    u_by_rel: Dict[Relationship, float]
    m_by_rel: Dict[Relationship, float]
    q_by_rel: Dict[Relationship, float]
    e_by_rel: Dict[Relationship, float]
    #: per-node mean updates per event (basis for confidence intervals)
    per_node_updates: List[float]

    def u(self, relationship: Relationship) -> float:
        """U_y — average updates from neighbours of one class."""
        return self.u_by_rel[relationship]

    def m(self, relationship: Relationship) -> float:
        """m_y — average number of neighbours of one class."""
        return self.m_by_rel[relationship]

    def q(self, relationship: Relationship) -> float:
        """q_y — fraction of those neighbours active during convergence."""
        return self.q_by_rel[relationship]

    def e(self, relationship: Relationship) -> float:
        """e_y — average updates per active neighbour."""
        return self.e_by_rel[relationship]


class FactorAccumulator:
    """Aggregates per-event update counters into :class:`TypeFactors`."""

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph
        self._summary = GraphSummary.from_graph(graph)
        self._raw = RawFactorSums.zeros(self._summary.node_ids)

    @property
    def events(self) -> int:
        """Number of C-events accumulated so far."""
        return self._raw.events

    @property
    def summary(self) -> GraphSummary:
        """The structural digest of the measured topology."""
        return self._summary

    def raw_sums(self) -> RawFactorSums:
        """A deep copy of the accumulated sums (picklable, mergeable)."""
        return self._raw.copy()

    def sum_columns(self) -> dict:
        """The accumulated sums as columns in node order, read in place.

        ``updates`` and ``active`` hold one column per relationship class
        (customer, peer, provider): what a checkpoint stores, without the
        deep copy :meth:`raw_sums` makes.
        """
        raw = self._raw
        node_ids = self._summary.node_ids
        return {
            "events": raw.events,
            "updates": [[raw.updates[i][rel] for i in node_ids] for rel in _RELS],
            "active": [[raw.active[i][rel] for i in node_ids] for rel in _RELS],
            "total_updates": [raw.total_updates[i] for i in node_ids],
        }

    def load_raw_sums(self, raw: RawFactorSums) -> None:
        """Replace the accumulated sums (checkpoint restore).

        ``raw`` must cover exactly this accumulator's node population.
        """
        if set(raw.total_updates) != set(self._raw.total_updates):
            raise ExperimentError(
                "cannot load factor sums for a different node set"
            )
        self._raw = raw.copy()

    def add_event(self, counter: UpdateCounter) -> None:
        """Fold one measured C-event's counters into the aggregate."""
        self._raw.events += 1
        for (receiver, rel), count in counter.received_by_relationship.items():
            self._raw.updates[receiver][rel] += count
            self._raw.total_updates[receiver] += count
        # Active neighbours: distinct senders with >= 1 delivered update.
        for (receiver, sender), count in counter.received_by_pair.items():
            if count > 0:
                rel = self._graph.relationship(receiver, sender)
                self._raw.active[receiver][rel] += 1

    def type_factors(self, node_type: NodeType) -> TypeFactors:
        """Aggregate factors over all nodes of ``node_type``."""
        return compute_type_factors(self._summary, self._raw, node_type)

    def all_type_factors(self) -> Dict[NodeType, TypeFactors]:
        """Factors for every node type present in the graph."""
        return compute_all_type_factors(self._summary, self._raw)

    def node_updates(self, node_id: int) -> float:
        """Mean updates per event at one specific node."""
        if self._raw.events == 0:
            raise ExperimentError("no events accumulated")
        return self._raw.total_updates[node_id] / self._raw.events


def predicted_u(factors: TypeFactors, relationship: Optional[Relationship] = None) -> float:
    """Eq. (1): U from the m·q·e product.

    With ``relationship`` given, returns the single term
    ``m_y · q_y · e_y``; otherwise the full sum over classes.  By
    construction of the aggregation this matches the measured U exactly.
    """
    if relationship is not None:
        return (
            factors.m(relationship)
            * factors.q(relationship)
            * factors.e(relationship)
        )
    return sum(
        factors.m(rel) * factors.q(rel) * factors.e(rel) for rel in _RELS
    )
