"""Update counters — the simulator's measurement plane.

The paper's metric is the number of updates *received* per node, broken
down by the business relationship of the sender as seen from the receiver
(Eq. 1 distinguishes updates from customers, peers and providers).  The
counter keeps per-(receiver, sender) totals: a pair's relationship is a
fixed property of the link, so the per-class sums and the q and e
factors of Sec. 4 are all derived from them.

Counting can be paused (warm-up phases such as the initial announcement of
the C-event prefix are not part of the measurement) and reset between
phases.
"""

from __future__ import annotations

import collections
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CheckpointError, SimulationError, TopologyError
from repro.topology.types import Relationship

#: ``relationship(receiver, sender)``: the sender's class as the receiver
#: sees it (:meth:`ASGraph.relationship <repro.topology.graph.ASGraph.relationship>`).
RelationshipOf = Callable[[int, int], Relationship]


class UpdateCounter:
    """Counts update messages at delivery time.

    Each delivered update adds to two records: its (receiver, sender)
    count and the receiver's announcement or withdrawal count.  Each dict
    is in first-seen order.  The per-receiver totals are derived from the
    pair counts: a receiver's first pair is the one of its first update,
    so the derived :attr:`received` has the order a dict written per
    update would have.  So have the per-class rows of
    :meth:`received_by_relationship`, because a pair's relationship never
    changes: a receiver's first update of a class comes from a sender it
    has not heard before.  Announcements and withdrawals are kept apart
    because their first-seen orders are not derivable from the pairs (a
    receiver can hear a withdrawal before another receiver's first
    announcement and its own after it).
    """

    def __init__(self, relationship: Optional[RelationshipOf] = None) -> None:
        #: classifies a pair's sender for the per-class rows; a network's
        #: counter has its graph's, a bare one cannot be checkpointed
        self.relationship = relationship
        self.enabled = True
        #: updates received per (receiver, sender) pair
        self.received_by_pair: Dict[Tuple[int, int], int] = (
            collections.defaultdict(int)
        )
        #: split by message kind, per node
        self.announcements: Dict[int, int] = collections.defaultdict(int)
        self.withdrawals: Dict[int, int] = collections.defaultdict(int)
        self.total = 0

    def record(
        self,
        receiver: int,
        sender: int,
        *,
        is_withdrawal: bool,
    ) -> None:
        """Register one delivered update (no-op while disabled)."""
        if not self.enabled:
            return
        self.total += 1
        self.received_by_pair[(receiver, sender)] += 1
        if is_withdrawal:
            self.withdrawals[receiver] += 1
        else:
            self.announcements[receiver] += 1

    @property
    def received(self) -> Dict[int, int]:
        """Total updates received per node, in first-seen order (a new dict)."""
        received: Dict[int, int] = collections.defaultdict(int)
        for (receiver, _sender), count in self.received_by_pair.items():
            received[receiver] += count
        return received

    def reset(self) -> None:
        """Zero all counters (keeps the enabled flag)."""
        self.received_by_pair.clear()
        self.announcements.clear()
        self.withdrawals.clear()
        self.total = 0

    def merge(self, other: "UpdateCounter") -> None:
        """Add ``other``'s counts to this counter's, key by key."""
        self.total += other.total
        for mine, theirs in (
            (self.received_by_pair, other.received_by_pair),
            (self.announcements, other.announcements),
            (self.withdrawals, other.withdrawals),
        ):
            for key, count in theirs.items():
                mine[key] += count

    def received_by_relationship(self) -> List[Tuple[int, Relationship, int]]:
        """Updates received per node per sender class, in first-seen order.

        Derived from the pair counts, each sender classified by
        :attr:`relationship` as its receiver sees it.
        """
        relationship = self.relationship
        if relationship is None:
            raise SimulationError("this counter has no relationship lookup")
        rows: Dict[Tuple[int, Relationship], int] = collections.defaultdict(int)
        for (receiver, sender), count in self.received_by_pair.items():
            rows[(receiver, relationship(receiver, sender))] += count
        return [(receiver, rel, count) for (receiver, rel), count in rows.items()]

    def dump_state(self) -> dict:
        """All counters in insertion order (checkpointing).

        Order matters downstream: measurement code iterates these dicts
        and sums floats, so a restored counter must replay the exact
        insertion history, not just the same totals.
        """
        return {
            "enabled": self.enabled,
            "received": list(self.received.items()),
            "received_by_relationship": [
                list(row) for row in self.received_by_relationship()
            ],
            "received_by_pair": [
                [receiver, sender, count]
                for (receiver, sender), count in self.received_by_pair.items()
            ],
            "announcements": list(self.announcements.items()),
            "withdrawals": list(self.withdrawals.items()),
            "total": self.total,
        }

    def load_state(self, state: dict) -> None:
        """Install counters previously captured by :meth:`dump_state`.

        The per-node totals and the per-class rows are derived from the
        pair counts; raises :class:`~repro.errors.CheckpointError` when the
        state's own rows (or their order) disagree with that derivation.
        """
        self.reset()
        self.enabled = state["enabled"]
        for receiver, sender, count in state["received_by_pair"]:
            self.received_by_pair[(receiver, sender)] = count
        self.announcements.update(state["announcements"])
        self.withdrawals.update(state["withdrawals"])
        self.total = state["total"]
        if list(self.received.items()) != [tuple(row) for row in state["received"]]:
            raise CheckpointError(
                "malformed counter state in checkpoint: per-node totals do "
                "not match the per-pair counts"
            )
        try:
            rows = self.received_by_relationship()
        except TopologyError as exc:
            raise CheckpointError(
                f"malformed counter state in checkpoint: {exc}"
            ) from exc
        if rows != [tuple(row) for row in state["received_by_relationship"]]:
            raise CheckpointError(
                "malformed counter state in checkpoint: per-relationship "
                "totals do not match the per-pair counts"
            )

    def active_senders(self, node_id: int) -> Dict[int, int]:
        """Senders that delivered at least one update to ``node_id`` → count."""
        return {
            sender: count
            for (receiver, sender), count in self.received_by_pair.items()
            if receiver == node_id and count > 0
        }
