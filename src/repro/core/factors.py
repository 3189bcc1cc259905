"""The update-factor decomposition of Sec. 4 (Eq. 1).

The paper models the updates a node of type X receives after a C-event as

    U(X) = m_c q_c e_c + m_p q_p e_p + m_d q_d e_d

where, per relationship class y ∈ {customer, peer, provider}:

* ``m_y`` — number of direct neighbours of that class (topological),
* ``q_y`` — fraction of those neighbours that send at least one update
  during convergence,
* ``e_y`` — average number of updates contributed by each active
  neighbour.

:class:`FactorAccumulator` consumes the per-(receiver, sender) counters
of one measured C-event at a time, classifies each sender by its link,
and aggregates them so that the identity
``U_y = m_y · q_y · e_y`` holds *exactly* for the aggregated estimates
(sums over nodes and events are combined before the ratios are taken).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.sim.counters import UpdateCounter
from repro.topology.graph import ASGraph
from repro.topology.types import (
    NODE_TYPE_ORDER,
    RELATIONSHIP_ORDER,
    NodeType,
    Relationship,
)

#: The relationship classes in column order: customer, peer, provider.
_RELS = RELATIONSHIP_ORDER
_CUSTOMER, _PEER = _RELS[:2]
_NODE_TYPES = tuple(NodeType)


def _column(rel: Relationship) -> int:
    """The column of a relationship class (identity tests, no enum hash)."""
    return 0 if rel is _CUSTOMER else 1 if rel is _PEER else 2


@dataclasses.dataclass(frozen=True)
class GraphSummary:
    """Picklable structural digest of an :class:`ASGraph`.

    Carries exactly what factor aggregation needs — node order, types and
    the static per-node ``m`` counts — so parallel sweep workers can ship
    mergeable results between processes without pickling whole graphs.
    Every field is a tuple in node order: position ``i`` describes node
    ``node_ids[i]``.
    """

    scenario: str
    node_ids: Tuple[int, ...]
    node_types: Tuple[NodeType, ...]
    #: neighbour counts as one column per class (customer, peer, provider)
    m: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_graph(cls, graph: ASGraph) -> "GraphSummary":
        """Extract the digest (node order matches ``graph.node_ids``)."""
        node_ids = tuple(graph.node_ids)
        m: Tuple[List[int], ...] = ([], [], [])
        for node_id in node_ids:
            counts = [0, 0, 0]
            for rel in graph.neighbors(node_id).values():
                counts[_column(rel)] += 1
            for column, count in zip(m, counts):
                column.append(count)
        return cls(
            scenario=graph.scenario,
            node_ids=node_ids,
            node_types=tuple(node.node_type for node in graph.nodes()),
            m=tuple(tuple(column) for column in m),
        )

    def __len__(self) -> int:
        return len(self.node_ids)

    def positions_of_type(self, node_type: NodeType) -> List[int]:
        """Positions of all nodes of the given type, ascending."""
        return [
            position
            for position, type_ in enumerate(self.node_types)
            if type_ is node_type
        ]

    def type_counts(self) -> Dict[NodeType, int]:
        """Number of nodes of each type."""
        return {node_type: self.node_types.count(node_type) for node_type in NodeType}


@dataclasses.dataclass
class RawFactorSums:
    """The integer sums underlying the factor estimates.

    All fields are sums over events and nodes, so two instances measured
    on disjoint origin batches of the same topology merge exactly with
    :meth:`absorb` — the basis of the parallel sweep's bit-identical
    serial/parallel guarantee.  The sums are columns in node order
    (``node_ids``): ``updates`` and ``active`` hold one column per
    relationship class (customer, peer, provider), the layout a boundary
    checkpoint stores.
    """

    events: int
    node_ids: Tuple[int, ...]
    updates: List[List[int]]
    active: List[List[int]]
    total_updates: List[int]

    @classmethod
    def zeros(cls, node_ids: Sequence[int]) -> "RawFactorSums":
        """All-zero sums for the given node population."""
        n = len(node_ids)
        return cls(
            events=0,
            node_ids=tuple(node_ids),
            updates=[[0] * n for _ in _RELS],
            active=[[0] * n for _ in _RELS],
            total_updates=[0] * n,
        )

    @classmethod
    def from_columns(cls, node_ids: Sequence[int], columns: dict) -> "RawFactorSums":
        """The sums :meth:`FactorAccumulator.sum_columns` returned.

        The columns are taken as they are.  Raises ``ValueError`` unless
        every column covers ``node_ids``.
        """
        sums = cls(
            events=columns["events"],
            node_ids=tuple(node_ids),
            updates=columns["updates"],
            active=columns["active"],
            total_updates=columns["total_updates"],
        )
        if len(sums.updates) != len(_RELS) or len(sums.active) != len(_RELS):
            raise ValueError("factor sums must cover every relationship")
        for column in sums.updates + sums.active + [sums.total_updates]:
            if len(column) != len(node_ids):
                raise ValueError("factor sum columns do not cover the topology")
        return sums

    def copy(self) -> "RawFactorSums":
        """An independent deep copy."""
        return RawFactorSums(
            events=self.events,
            node_ids=self.node_ids,
            updates=[list(column) for column in self.updates],
            active=[list(column) for column in self.active],
            total_updates=list(self.total_updates),
        )

    def absorb(self, other: "RawFactorSums") -> None:
        """Fold another batch's sums into this one (exact integer adds)."""
        if self.node_ids != other.node_ids:
            raise ExperimentError("cannot merge factor sums of different node sets")
        self.events += other.events
        for mine, theirs in zip(
            self.updates + self.active + [self.total_updates],
            other.updates + other.active + [other.total_updates],
        ):
            mine[:] = [a + b for a, b in zip(mine, theirs)]


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
    positions = summary.positions_of_type(node_type)
    count = len(positions)
    events = raw.events
    u_by_rel: Dict[Relationship, float] = {}
    m_by_rel: Dict[Relationship, float] = {}
    q_by_rel: Dict[Relationship, float] = {}
    e_by_rel: Dict[Relationship, float] = {}
    for rel, updates, active, m in zip(_RELS, raw.updates, raw.active, summary.m):
        sum_updates = sum([updates[i] for i in positions])
        sum_active = sum([active[i] for i in positions])
        sum_m = sum([m[i] for i in positions])
        u_by_rel[rel] = sum_updates / (count * events) if count else 0.0
        m_by_rel[rel] = sum_m / count if count else 0.0
        q_by_rel[rel] = sum_active / (sum_m * events) if sum_m else 0.0
        e_by_rel[rel] = sum_updates / sum_active if sum_active else 0.0
    total = raw.total_updates
    per_node = [total[i] / events for i in positions]
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
        if node_type in summary.node_types
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
        self._position = {
            node_id: position for position, node_id in enumerate(self._summary.node_ids)
        }
        #: each node's type as its index in ``NodeType`` order
        self._type_slots = [_NODE_TYPES.index(t) for t in self._summary.node_types]
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
        """The accumulated sums as a checkpoint stores them, read in place.

        ``updates`` and ``active`` hold one column per relationship class
        (customer, peer, provider).  The columns are the live ones, not
        the deep copy :meth:`raw_sums` makes.
        """
        raw = self._raw
        return {
            "events": raw.events,
            "updates": raw.updates,
            "active": raw.active,
            "total_updates": raw.total_updates,
        }

    def load_raw_sums(self, raw: RawFactorSums) -> None:
        """Replace the accumulated sums (checkpoint restore).

        ``raw`` must cover exactly this accumulator's nodes, in order.
        """
        if raw.node_ids != self._raw.node_ids:
            raise ExperimentError(
                "cannot load factor sums for a different node set"
            )
        self._raw = raw.copy()

    def type_totals(self, counter: UpdateCounter) -> List[int]:
        """The counter's updates summed per node type, in ``NodeType`` order."""
        slots = self._type_slots
        position = self._position
        totals = [0] * len(_NODE_TYPES)
        for (receiver, _sender), count in counter.received_by_pair.items():
            totals[slots[position[receiver]]] += count
        return totals

    def add_event(self, counter: UpdateCounter) -> None:
        """Fold one measured C-event's counters into the aggregate.

        Each (receiver, sender) pair adds its count to the receiver's
        column of the sender's class, and one active neighbour: a pair is
        recorded by its first delivered update.
        """
        raw = self._raw
        raw.events += 1
        position = self._position
        relationship = self._graph.relationship
        updates, active, total = raw.updates, raw.active, raw.total_updates
        for (receiver, sender), count in counter.received_by_pair.items():
            if not count:
                continue
            i = position[receiver]
            k = _column(relationship(receiver, sender))
            updates[k][i] += count
            active[k][i] += 1
            total[i] += count

    def all_type_factors(self) -> Dict[NodeType, TypeFactors]:
        """Factors for every node type present in the graph."""
        return compute_all_type_factors(self._summary, self._raw)


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
