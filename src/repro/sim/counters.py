"""Update counters — the simulator's measurement plane.

The paper's metric is the number of updates *received* per node, broken
down by the business relationship of the sender as seen from the receiver
(Eq. 1 distinguishes updates from customers, peers and providers).  The
counter also keeps per-(receiver, sender) totals, from which the q and e
factors of Sec. 4 are derived.

Counting can be paused (warm-up phases such as the initial announcement of
the C-event prefix are not part of the measurement) and reset between
phases.
"""

from __future__ import annotations

import collections
from typing import Dict, Tuple

from repro.errors import CheckpointError
from repro.topology.types import Relationship


class UpdateCounter:
    """Counts update messages at delivery time.

    Each delivered update adds one to three records: its (receiver,
    sender) count, its (receiver, sender relationship) count and the
    receiver's announcement or withdrawal count.  Each dict is in
    first-seen order.  The per-receiver total is derived from the pair
    counts: a receiver's first pair is the one of its first update, so
    the derived :attr:`received` has the order a dict written per update
    would have.  Announcements and withdrawals are kept apart because
    their first-seen orders are not derivable from the pairs (a receiver
    can hear a withdrawal before another receiver's first announcement
    and its own after it).
    """

    def __init__(self) -> None:
        self.enabled = True
        #: updates received per (receiver, sender) pair
        self.received_by_pair: Dict[Tuple[int, int], int] = (
            collections.defaultdict(int)
        )
        #: updates received per node per sender-relationship class
        self.received_by_relationship: Dict[Tuple[int, Relationship], int] = (
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
        sender_relationship: Relationship,
        *,
        is_withdrawal: bool,
    ) -> None:
        """Register one delivered update (no-op while disabled)."""
        if not self.enabled:
            return
        self.total += 1
        self.received_by_pair[(receiver, sender)] += 1
        self.received_by_relationship[(receiver, sender_relationship)] += 1
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
        self.received_by_relationship.clear()
        self.announcements.clear()
        self.withdrawals.clear()
        self.total = 0

    def merge(self, other: "UpdateCounter") -> None:
        """Add ``other``'s counts to this counter's, key by key."""
        self.total += other.total
        for mine, theirs in (
            (self.received_by_pair, other.received_by_pair),
            (self.received_by_relationship, other.received_by_relationship),
            (self.announcements, other.announcements),
            (self.withdrawals, other.withdrawals),
        ):
            for key, count in theirs.items():
                mine[key] += count

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
                [receiver, relationship, count]
                for (receiver, relationship), count in (
                    self.received_by_relationship.items()
                )
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

        ``received`` is derived from the pair counts; raises
        :class:`~repro.errors.CheckpointError` when the state's own
        per-node totals (or their order) disagree with that derivation.
        """
        self.reset()
        self.enabled = state["enabled"]
        for receiver, relationship, count in state["received_by_relationship"]:
            self.received_by_relationship[(receiver, relationship)] = count
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

    def updates_at(self, node_id: int) -> int:
        """Total updates received at ``node_id``."""
        return self.announcements.get(node_id, 0) + self.withdrawals.get(node_id, 0)

    def updates_at_by_relationship(self, node_id: int, relationship: Relationship) -> int:
        """Updates received at ``node_id`` from neighbours of one class."""
        return self.received_by_relationship.get((node_id, relationship), 0)

    def active_senders(self, node_id: int) -> Dict[int, int]:
        """Senders that delivered at least one update to ``node_id`` → count."""
        return {
            sender: count
            for (receiver, sender), count in self.received_by_pair.items()
            if receiver == node_id and count > 0
        }
