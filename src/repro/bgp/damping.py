"""Route-flap damping (RFC 2439) — a paper future-work extension.

The paper lists Route Flap Dampening among the BGP mechanisms it plans to
study next; we implement the standard penalty model so the simulator can
ablate its interaction with MRAI churn.

Per (neighbour, prefix) the receiver keeps a *figure of merit* (penalty)
that is incremented on each flap and decays exponentially with a
configurable half-life.  While the penalty is at or above the suppress
threshold the route is excluded from the decision process; it becomes
usable again once the penalty decays below the reuse threshold.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional

from repro.bgp.config import DampingConfig
from repro.prefix.prefix import Prefix


class FlapKind(enum.Enum):
    """The RFC 2439 events that add penalty."""

    WITHDRAWAL = "withdrawal"
    READVERTISEMENT = "readvertisement"
    ATTRIBUTE_CHANGE = "attribute-change"


class PenaltyRecord:
    """Decaying penalty for one (neighbour, prefix)."""

    __slots__ = ("penalty", "last_update", "suppressed")

    def __init__(self) -> None:
        self.penalty = 0.0
        self.last_update = 0.0
        self.suppressed = False

    def decayed_penalty(self, now: float, half_life: float) -> float:
        """Penalty after exponential decay up to ``now``."""
        elapsed = max(0.0, now - self.last_update)
        return self.penalty * math.pow(2.0, -elapsed / half_life)


class RouteFlapDamper:
    """All damping state of one receiving node.

    Records are indexed prefix-first (``prefix -> neighbor -> record``) so
    the per-prefix scans the node runs on its hot path —
    :meth:`earliest_reuse` after every reuse check — touch only the
    neighbours that actually flapped that prefix, not every record the
    node has ever accumulated.  Under a multi-prefix workload the flat
    (neighbour, prefix) table made each check O(total records); with tens
    of thousands of prefixes that scan dominated the run.
    """

    def __init__(self, config: DampingConfig) -> None:
        self._config = config
        self._records: Dict[Prefix, Dict[int, PenaltyRecord]] = {}

    def _record(self, neighbor: int, prefix: Prefix) -> Optional[PenaltyRecord]:
        by_neighbor = self._records.get(prefix)
        if by_neighbor is None:
            return None
        return by_neighbor.get(neighbor)

    @property
    def enabled(self) -> bool:
        """Whether damping participates in the decision process."""
        return self._config.enabled

    def _penalty_for(self, kind: FlapKind) -> float:
        if kind is FlapKind.WITHDRAWAL:
            return self._config.withdrawal_penalty
        if kind is FlapKind.READVERTISEMENT:
            return self._config.readvertisement_penalty
        return self._config.attribute_change_penalty

    def record_flap(
        self, neighbor: int, prefix: Prefix, kind: FlapKind, now: float
    ) -> float:
        """Register a flap; returns the updated penalty."""
        record = self._records.setdefault(prefix, {}).setdefault(
            neighbor, PenaltyRecord()
        )
        record.penalty = record.decayed_penalty(now, self._config.half_life)
        record.penalty += self._penalty_for(kind)
        record.last_update = now
        if record.penalty >= self._config.suppress_threshold:
            record.suppressed = True
        return record.penalty

    def is_suppressed(self, neighbor: int, prefix: Prefix, now: float) -> bool:
        """Whether routes from ``neighbor`` for ``prefix`` are unusable now."""
        if not self._config.enabled:
            return False
        record = self._record(neighbor, prefix)
        if record is None or not record.suppressed:
            return False
        penalty = record.decayed_penalty(now, self._config.half_life)
        if penalty < self._config.reuse_threshold:
            record.suppressed = False
            record.penalty = penalty
            record.last_update = now
            return False
        if now - record.last_update >= self._config.max_suppress_time:
            record.suppressed = False
            return False
        return True

    def time_until_reuse(
        self, neighbor: int, prefix: Prefix, now: float
    ) -> Optional[float]:
        """Seconds until the record decays to the reuse threshold.

        Returns None when the route is not currently suppressed.
        """
        record = self._record(neighbor, prefix)
        if record is None or not record.suppressed:
            return None
        penalty = record.decayed_penalty(now, self._config.half_life)
        if penalty < self._config.reuse_threshold:
            return 0.0
        wait = self._config.half_life * math.log2(penalty / self._config.reuse_threshold)
        return min(wait, max(0.0, self._config.max_suppress_time - (now - record.last_update)))

    def earliest_reuse(self, prefix: Prefix, now: float) -> Optional[float]:
        """Shortest wait until any record for ``prefix`` leaves suppression.

        Returns None when nothing for the prefix is suppressed at ``now``.
        Used by the node to keep exactly one reuse-check event pending per
        prefix: after a check fires, the next one is scheduled at this
        horizon instead of leaning on the per-flap event spray.

        Records whose penalty already decayed below the reuse threshold
        are unsuppressed as a side effect (via :meth:`is_suppressed`) even
        when the neighbour no longer advertises the prefix — otherwise a
        withdrawn-then-suppressed record would never be visited by the
        decision process and would report a zero wait forever.

        Cost: O(neighbours with records for ``prefix``) — records for
        other prefixes are never touched.
        """
        by_neighbor = self._records.get(prefix)
        if not by_neighbor:
            return None
        best: Optional[float] = None
        for neighbor, record in by_neighbor.items():
            if not record.suppressed:
                continue
            if not self.is_suppressed(neighbor, prefix, now):
                continue
            wait = self.time_until_reuse(neighbor, prefix, now)
            if wait is not None and (best is None or wait < best):
                best = wait
        return best

    def forget(self, prefix: Prefix) -> None:
        """Drop every record for ``prefix`` (it will never flap again)."""
        if prefix in self._records:
            del self._records[prefix]

    def dump_state(self) -> list:
        """All penalty records in insertion order (checkpointing).

        Rows keep the flat ``[neighbor, prefix, penalty, last, suppressed]``
        checkpoint layout; grouping by prefix is an in-memory indexing
        choice, not part of the on-disk schema.
        """
        return [
            [neighbor, prefix, record.penalty, record.last_update, record.suppressed]
            for prefix, by_neighbor in self._records.items()
            for neighbor, record in by_neighbor.items()
        ]

    def load_state(self, state: list) -> None:
        """Install records previously captured by :meth:`dump_state`."""
        self._records = {}
        for neighbor, prefix, penalty, last_update, suppressed in state:
            record = PenaltyRecord()
            record.penalty = penalty
            record.last_update = last_update
            record.suppressed = suppressed
            self._records.setdefault(prefix, {})[neighbor] = record

    def penalty(self, neighbor: int, prefix: Prefix, now: float) -> float:
        """Current decayed penalty (0 when no record exists)."""
        record = self._record(neighbor, prefix)
        if record is None:
            return 0.0
        return record.decayed_penalty(now, self._config.half_life)
