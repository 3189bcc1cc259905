"""Core vocabulary of the AS-level topology model.

The paper (Sec. 3) uses four node types:

* ``T``  — tier-1 providers: no providers of their own, fully meshed with
  peering links, present in every region.
* ``M``  — mid-level transit providers: one or more providers (T or M),
  may peer with other M nodes.
* ``CP`` — content providers / hosting stubs: no customers, but may enter
  peering agreements with M or CP nodes.
* ``C``  — customer stubs: no customers and no peering links.

Business relationships between neighbouring ASes are either
customer–provider (transit) or peer–peer (settlement free), following the
Gao–Rexford model the paper adopts.
"""

from __future__ import annotations

import enum


class NodeType(enum.Enum):
    """The four AS classes of the paper's topology model."""

    T = "T"
    M = "M"
    CP = "CP"
    C = "C"

    @property
    def is_stub(self) -> bool:
        """Whether nodes of this type are at the bottom of the hierarchy."""
        return self in (NodeType.CP, NodeType.C)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Deterministic ordering used for reporting (matches the paper's figures).
NODE_TYPE_ORDER = (NodeType.T, NodeType.M, NodeType.CP, NodeType.C)


class Relationship(enum.Enum):
    """Business relationship of a neighbour, seen from a given node.

    ``CUSTOMER`` means "the neighbour is my customer", ``PROVIDER`` means
    "the neighbour is my provider" and ``PEER`` is symmetric.
    """

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Ordering used when reporting the m/q/e factor decomposition.
RELATIONSHIP_ORDER = (
    Relationship.CUSTOMER,
    Relationship.PEER,
    Relationship.PROVIDER,
)

#: Local preference assigned by the decision process (Sec. 2): routes from
#: customers are preferred over routes from peers over routes from
#: providers.  Higher wins.
LOCAL_PREFERENCE = {
    Relationship.CUSTOMER: 2,
    Relationship.PEER: 1,
    Relationship.PROVIDER: 0,
}
