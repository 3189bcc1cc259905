"""Annotated AS-level graph.

:class:`ASGraph` is the central data structure shared by the generator, the
metrics code and the simulator.  It is a plain adjacency structure in which
every edge carries a business :class:`~repro.topology.types.Relationship`
label, stored from the perspective of each endpoint (so a transit link is
recorded as ``CUSTOMER`` on the provider side and ``PROVIDER`` on the
customer side).

The structure enforces, at insertion time, the invariants the paper's
generator relies on:

* a node never has two parallel links to the same neighbour,
* a node is never its own neighbour,
* transit links never create provider loops (the hierarchy stays acyclic),
* no node peers with a member of its own customer tree (Sec. 3: such
  peering "would prey on the revenue the node gets from its customer
  traffic"), whichever link — the peering or a later transit link —
  would bring the two together.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import TopologyError
from repro.topology.types import NodeType, Relationship


@dataclasses.dataclass(frozen=True)
class ASNode:
    """A single autonomous system.

    ``node_id`` is a dense integer (0..n-1); ``regions`` is the set of
    geographic regions the AS is present in (T nodes are in all regions).
    """

    node_id: int
    node_type: NodeType
    regions: FrozenSet[int]

    def shares_region_with(self, other: "ASNode") -> bool:
        """Whether the two ASes are present in at least one common region."""
        return bool(self.regions & other.regions)


class ASGraph:
    """Mutable AS-level topology with relationship-annotated edges."""

    def __init__(self, *, scenario: str = "UNNAMED") -> None:
        self.scenario = scenario
        self._nodes: Dict[int, ASNode] = {}
        #: adjacency[u][v] is the relationship of v as seen from u.
        self._adjacency: Dict[int, Dict[int, Relationship]] = {}
        #: Transit index: direct providers / customers of each node, kept
        #: in step with ``_adjacency`` by ``add_transit_link`` and
        #: ``remove_link`` so cone walks never scan a node's peers (or, going
        #: up, a tier-1's thousands of customers).
        self._providers: Dict[int, List[int]] = {}
        self._customers: Dict[int, List[int]] = {}
        #: Peers of each node that has had one, kept the same way, so the
        #: peering check never scans customers; empty while no peering
        #: link was ever added (as-rel files load all transit links first).
        self._peers: Dict[int, List[int]] = {}
        #: node → all its direct and indirect providers, filled on demand;
        #: entries are dropped when a transit-link change could alter them.
        self._ancestor_memo: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, node_type: NodeType, regions: Iterable[int]) -> ASNode:
        """Register a new AS; returns the created :class:`ASNode`."""
        if node_id in self._nodes:
            raise TopologyError(f"duplicate node id {node_id}")
        region_set = frozenset(regions)
        if not region_set:
            raise TopologyError(f"node {node_id} must belong to at least one region")
        node = ASNode(node_id=node_id, node_type=node_type, regions=region_set)
        self._nodes[node_id] = node
        self._adjacency[node_id] = {}
        self._providers[node_id] = []
        self._customers[node_id] = []
        return node

    def add_transit_link(self, customer: int, provider: int) -> None:
        """Add a customer→provider transit link.

        Raises :class:`TopologyError` if the link would duplicate an
        existing adjacency, close a provider loop, or put one end of a
        peering link into the other's customer tree (the invariant
        :meth:`add_peering_link` checks, kept whatever order the links
        are added in).
        """
        self._check_new_edge(customer, provider)
        if self.is_in_customer_tree(ancestor=customer, descendant=provider):
            raise TopologyError(
                f"transit link {customer}->{provider} would create a provider loop"
            )
        # Only a customer with customers or peers can bring a peer under
        # the provider.
        if self._peers and (self._customers[customer] or customer in self._peers):
            peering = self._peering_across(customer, provider)
            if peering is not None:
                raise TopologyError(
                    f"transit link {customer}->{provider} rejected: it puts "
                    f"{peering[0]} into the customer tree of its peer {peering[1]}"
                )
        self._adjacency[customer][provider] = Relationship.PROVIDER
        self._adjacency[provider][customer] = Relationship.CUSTOMER
        self._providers[customer].append(provider)
        self._customers[provider].append(customer)
        self._forget_ancestors_below(customer)

    def add_peering_link(self, a: int, b: int) -> None:
        """Add a settlement-free peering link between ``a`` and ``b``.

        Raises :class:`TopologyError` if either endpoint is in the other's
        customer tree, or the nodes are already adjacent.
        """
        self._check_new_edge(a, b)
        if self.is_in_customer_tree(ancestor=a, descendant=b) or self.is_in_customer_tree(
            ancestor=b, descendant=a
        ):
            raise TopologyError(
                f"peering link {a}--{b} rejected: one endpoint is in the "
                "other's customer tree"
            )
        self._adjacency[a][b] = Relationship.PEER
        self._adjacency[b][a] = Relationship.PEER
        self._peers.setdefault(a, []).append(b)
        self._peers.setdefault(b, []).append(a)

    def remove_link(self, a: int, b: int) -> Relationship:
        """Remove the link between ``a`` and ``b``; returns a's view of it.

        Used by the link-failure event extension.
        """
        try:
            relationship = self._adjacency[a].pop(b)
            self._adjacency[b].pop(a)
        except KeyError as exc:
            raise TopologyError(f"no link between {a} and {b}") from exc
        if relationship is Relationship.PEER:
            self._peers[a].remove(b)
            self._peers[b].remove(a)
        else:
            customer, provider = (
                (a, b) if relationship is Relationship.PROVIDER else (b, a)
            )
            self._providers[customer].remove(provider)
            self._customers[provider].remove(customer)
            self._forget_ancestors_below(customer)
        return relationship

    def _peering_across(self, customer: int, provider: int) -> Optional[Tuple[int, int]]:
        """A peering link ``(below, above)`` that a ``customer``→``provider``
        link would put inside a customer tree: ``below`` is ``customer``
        or in its customer tree, ``above`` is ``provider`` or one of its
        providers.  ``None`` when there is none.

        Scans the peers of ``customer`` when it has no customers, else
        the peers of the (few) nodes above, so no customer tree is walked.
        """
        peers = self._peers
        customers = self._customers
        if not customers[customer]:
            # A peer without customers is nobody's ancestor.
            for peer in peers.get(customer, ()):
                if peer == provider or (
                    customers[peer] and peer in self._ancestors(provider)
                ):
                    return customer, peer
            return None
        providers = self._providers
        for node_id in (provider, *self._ancestors(provider)):
            # A peer without providers is in no customer tree.
            for peer in peers.get(node_id, ()):
                if peer == customer or (
                    providers[peer] and customer in self._ancestors(peer)
                ):
                    return peer, node_id
        return None

    def _forget_ancestors_below(self, customer: int) -> None:
        """Drop the remembered ancestor sets a transit-link change above
        ``customer`` makes stale: its own and those of its customer tree —
        found without a walk only when that tree is empty."""
        if self._customers[customer]:
            self._ancestor_memo.clear()
        else:
            self._ancestor_memo.pop(customer, None)

    def _check_new_edge(self, a: int, b: int) -> None:
        if a == b:
            raise TopologyError(f"self-loop at node {a} rejected")
        if a not in self._nodes or b not in self._nodes:
            missing = a if a not in self._nodes else b
            raise TopologyError(f"unknown node id {missing}")
        if b in self._adjacency[a]:
            raise TopologyError(f"parallel link between {a} and {b} rejected")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> List[int]:
        """All node ids, ascending."""
        return sorted(self._nodes)

    def node(self, node_id: int) -> ASNode:
        """The :class:`ASNode` for ``node_id``."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise TopologyError(f"unknown node id {node_id}") from exc

    def nodes(self) -> Iterator[ASNode]:
        """All nodes, in ascending id order."""
        for node_id in sorted(self._nodes):
            yield self._nodes[node_id]

    def nodes_of_type(self, node_type: NodeType) -> List[int]:
        """Ids of all nodes of the given type, ascending."""
        return [n.node_id for n in self.nodes() if n.node_type is node_type]

    def relationship(self, u: int, v: int) -> Relationship:
        """The relationship of ``v`` as seen from ``u``."""
        try:
            return self._adjacency[u][v]
        except KeyError as exc:
            raise TopologyError(f"no link between {u} and {v}") from exc

    def has_link(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are adjacent (any relationship)."""
        return v in self._adjacency.get(u, ())

    def neighbors(self, node_id: int) -> Dict[int, Relationship]:
        """Mapping neighbour id → relationship as seen from ``node_id``.

        Iteration order is the link *insertion* order.  That order is
        part of the simulation's determinism contract — BGP nodes export
        to neighbours in this order, which fixes the engine's FIFO
        tie-break sequence — so anything that rebuilds a graph and needs
        simulation-identical behaviour must restore it (see
        :meth:`apply_adjacency_order`).
        """
        if node_id not in self._adjacency:
            raise TopologyError(f"unknown node id {node_id}")
        return dict(self._adjacency[node_id])

    def adjacency_order(self, node_id: int) -> List[int]:
        """Neighbour ids of ``node_id`` in link insertion order."""
        if node_id not in self._adjacency:
            raise TopologyError(f"unknown node id {node_id}")
        return list(self._adjacency[node_id])

    def apply_adjacency_order(self, order: Dict[int, List[int]]) -> None:
        """Re-impose a recorded neighbour iteration order per node.

        ``order`` maps node id → its neighbour ids in the desired order;
        each list must be a permutation of the node's current neighbours.
        Used by deserialization to make a rebuilt graph not merely
        structurally equal but *simulation-identical* to the original
        (same export order → same event FIFO sequence → same trajectory).
        Nodes absent from ``order`` keep their current order.
        """
        for node_id, neighbor_ids in order.items():
            current = self._adjacency.get(node_id)
            if current is None:
                raise TopologyError(f"unknown node id {node_id}")
            if len(neighbor_ids) != len(current) or set(neighbor_ids) != set(
                current
            ):
                raise TopologyError(
                    f"adjacency order for node {node_id} is not a "
                    f"permutation of its neighbours"
                )
            self._adjacency[node_id] = {
                neighbor: current[neighbor] for neighbor in neighbor_ids
            }

    def customers_of(self, node_id: int) -> List[int]:
        """Direct customers of ``node_id``, ascending."""
        if node_id not in self._customers:
            raise TopologyError(f"unknown node id {node_id}")
        return sorted(self._customers[node_id])

    def providers_of(self, node_id: int) -> List[int]:
        """Direct providers of ``node_id``, ascending."""
        if node_id not in self._providers:
            raise TopologyError(f"unknown node id {node_id}")
        return sorted(self._providers[node_id])

    def peers_of(self, node_id: int) -> List[int]:
        """Peers of ``node_id``, ascending."""
        if node_id not in self._nodes:
            raise TopologyError(f"unknown node id {node_id}")
        return sorted(self._peers.get(node_id, ()))

    def degree(self, node_id: int) -> int:
        """Total number of neighbours of ``node_id``."""
        if node_id not in self._adjacency:
            raise TopologyError(f"unknown node id {node_id}")
        return len(self._adjacency[node_id])

    def transit_degree(self, node_id: int) -> int:
        """Number of transit (customer or provider) links at ``node_id``."""
        return sum(
            1
            for rel in self._adjacency[node_id].values()
            if rel is not Relationship.PEER
        )

    def peering_degree(self, node_id: int) -> int:
        """Number of peering links at ``node_id``."""
        if node_id not in self._nodes:
            raise TopologyError(f"unknown node id {node_id}")
        return len(self._peers.get(node_id, ()))

    def multihoming_degree(self, node_id: int) -> int:
        """Number of providers of ``node_id`` (the paper's MHD)."""
        if node_id not in self._providers:
            raise TopologyError(f"unknown node id {node_id}")
        return len(self._providers[node_id])

    def edges(self) -> Iterator[Tuple[int, int, Relationship]]:
        """Each link exactly once as ``(u, v, relationship-from-u)``.

        Transit links are yielded customer-first (``u`` is the customer);
        peering links are yielded with ``u < v``.
        """
        for u in sorted(self._adjacency):
            for v, rel in sorted(self._adjacency[u].items()):
                if rel is Relationship.PROVIDER:
                    yield u, v, rel
                elif rel is Relationship.PEER and u < v:
                    yield u, v, rel

    def edge_count(self) -> int:
        """Total number of links."""
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    # ------------------------------------------------------------------
    # Customer trees (cones)
    # ------------------------------------------------------------------
    def customer_tree(self, node_id: int) -> Set[int]:
        """All ASes reachable from ``node_id`` by repeatedly descending
        provider→customer links, excluding ``node_id`` itself.

        This is the paper's "customer tree" (a.k.a. customer cone).
        """
        seen: Set[int] = set()
        stack = self.customers_of(node_id)
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                stack.extend(self._customers[current])
        seen.discard(node_id)
        return seen

    def is_in_customer_tree(self, *, ancestor: int, descendant: int) -> bool:
        """Whether ``descendant`` lies in ``ancestor``'s customer tree.

        Answered from ``descendant``'s ancestor set: everything reachable
        *upward* over the provider index, a walk that costs the number of
        transit links above ``descendant`` whatever the degree of the
        nodes it passes.  The set is remembered until a transit-link
        change could alter it, so while the hierarchy is frozen (the
        generator's peering phase, loading a saved topology) repeated
        questions about one node cost one walk.
        """
        if ancestor == descendant or not self._customers[ancestor]:
            return False
        return ancestor in self._ancestors(descendant)

    def _ancestors(self, node_id: int) -> Set[int]:
        """All direct and indirect providers of ``node_id`` (remembered)."""
        memo = self._ancestor_memo
        ancestors = memo.get(node_id)
        if ancestors is None:
            ancestors = set()
            stack = list(self._providers[node_id])
            while stack:
                current = stack.pop()
                if current in ancestors:
                    continue
                ancestors.add(current)
                known = memo.get(current)
                if known is None:
                    stack.extend(self._providers[current])
                else:
                    ancestors |= known
            memo[node_id] = ancestors
        return ancestors

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def type_counts(self) -> Dict[NodeType, int]:
        """Number of nodes of each type."""
        counts = {node_type: 0 for node_type in NodeType}
        for node in self._nodes.values():
            counts[node.node_type] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.type_counts()
        mix = ", ".join(f"{t.value}={counts[t]}" for t in NodeType)
        return (
            f"ASGraph(scenario={self.scenario!r}, n={len(self)}, "
            f"links={self.edge_count()}, {mix})"
        )
