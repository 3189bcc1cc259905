"""Per-neighbour output queue gated by the MRAI rate-limiting timer.

This module implements the out-queue + timer box of the paper's node model
(Fig. 2) with both specification variants:

* **NO-WRATE** (RFC 1771 / Quagga): explicit withdrawals bypass the timer
  and are sent immediately; only announcements are rate limited.
* **WRATE** (RFC 4271): withdrawals are rate limited like any other update.

and both deployment granularities:

* **per-interface** (vendor practice, used in the paper): one timer gates
  the whole neighbour session; when it expires, all pending updates are
  flushed in one batch and the timer restarts;
* **per-prefix** (the letter of RFC 4271): independent gates per prefix.

Timer semantics: when the gate is open, an update is sent immediately and
the gate closes for one jittered MRAI interval; while closed, the newest
desired state per prefix waits in the queue, replacing anything older
("if a queued update becomes invalid by a new update, the former is
removed from the output queue").
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.bgp.config import BGPConfig, MRAIMode, SendDiscipline
from repro.bgp.messages import UpdateMessage, announcement, withdrawal
from repro.obs.telemetry import NULL_TELEMETRY
from repro.prefix.prefix import PrefixToken

#: A target state for a prefix at a neighbour: the AS path to advertise,
#: or None meaning "withdrawn / no route".
TargetState = Optional[Tuple[int, ...]]


class OutputChannel:
    """Out-queue and MRAI state for one directed (node → neighbour) session."""

    __slots__ = (
        "owner",
        "neighbor",
        "_config",
        "_rng",
        "_obs",
        "_sent",
        "_pending",
        "_interface_gate",
        "_prefix_gates",
        "arms",
    )

    def __init__(
        self,
        owner: int,
        neighbor: int,
        config: BGPConfig,
        rng: random.Random,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.owner = owner
        self.neighbor = neighbor
        self._config = config
        self._rng = rng
        self._obs = telemetry
        #: What the neighbour currently believes, per prefix (None/absent =
        #: no route).  Only explicitly advertised-then-withdrawn prefixes
        #: keep a None entry; never-advertised prefixes are absent.
        self._sent: Dict[PrefixToken, TargetState] = {}
        #: Updates waiting for the timer, newest target per prefix.
        self._pending: Dict[PrefixToken, TargetState] = {}
        #: Gate(s): time at which the next rate-limited send is allowed.
        self._interface_gate = 0.0
        self._prefix_gates: Dict[PrefixToken, float] = {}
        #: Timer armings so far, each one draw from the owner's RNG
        #: stream.  Never reset: a checkpoint records the stream as its
        #: draw count (see :meth:`BGPNode.rng_draws`).
        self.arms = 0

    # ------------------------------------------------------------------
    # Introspection (used by tests and the node)
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of prefixes with an update waiting in the out-queue."""
        return len(self._pending)

    def advertised(self, prefix: PrefixToken) -> TargetState:
        """The state last sent to the neighbour for ``prefix``."""
        return self._sent.get(prefix)

    def has_advertised(self, prefix: PrefixToken) -> bool:
        """Whether an announcement for ``prefix`` is currently outstanding."""
        return self._sent.get(prefix) is not None

    def reset(self) -> None:
        """Forget all session state (used when the BGP session goes down).

        ``arms`` survives: the draws were taken from the owner's stream.
        """
        self._sent.clear()
        self._pending.clear()
        self._interface_gate = 0.0
        self._prefix_gates.clear()

    def dump_state(self) -> dict:
        """The channel's mutable state (checkpointing).

        ``sent`` distinguishes explicitly-withdrawn prefixes (``None``
        entries) from never-advertised ones (absent), so the dicts are
        copied as-is, preserving both presence and insertion order.
        """
        return {
            "sent": dict(self._sent),
            "pending": dict(self._pending),
            "interface_gate": self._interface_gate,
            "prefix_gates": dict(self._prefix_gates),
            "arms": self.arms,
        }

    def load_state(self, state: dict) -> None:
        """Install a state previously captured by :meth:`dump_state`."""
        self._sent = dict(state["sent"])
        self._pending = dict(state["pending"])
        self._interface_gate = state["interface_gate"]
        self._prefix_gates = dict(state["prefix_gates"])
        self.arms = state["arms"]

    # ------------------------------------------------------------------
    # Main entry points
    # ------------------------------------------------------------------
    def set_target(
        self, prefix: PrefixToken, target: TargetState, now: float
    ) -> Tuple[List[UpdateMessage], Optional[float]]:
        """Declare the state the neighbour *should* have for ``prefix``.

        Returns ``(messages_to_send_now, wakeup_time)``; ``wakeup_time`` is
        the absolute time at which :meth:`wakeup` must be called to flush a
        queued update (None when nothing is queued by this call).
        """
        if prefix in self._pending:
            if self._pending[prefix] == target:
                return [], None
            # Output-queue invalidation: the newer update replaces the old.
            del self._pending[prefix]
            self._obs.on_mrai_invalidation()
        if self._sent.get(prefix) == target:
            # Converged back to what the neighbour already knows.
            return [], None
        if target is None and self._sent.get(prefix) is None:
            # Withdrawal for a prefix the neighbour never had: suppress.
            return [], None

        is_withdrawal = target is None
        bypass = is_withdrawal and not self._config.wrate
        if bypass or not self._config.rate_limiting_enabled:
            return [self._send(prefix, target, now, arm_timer=not bypass)], None

        gate = self._gate_for(prefix)
        if self._config.discipline is SendDiscipline.SEND_FIRST and now >= gate:
            return [self._send(prefix, target, now, arm_timer=True)], None
        # Delay-first (the paper's model): the update always waits in the
        # out-queue for a timer expiry; an idle timer is armed now.
        if now >= gate:
            gate = self._arm(prefix, now)
        self._pending[prefix] = target
        return [], gate

    def wakeup(self, now: float) -> Tuple[List[UpdateMessage], Optional[float]]:
        """Timer callback: flush whatever the expired gate(s) allow.

        Returns ``(messages, next_wakeup)`` where ``next_wakeup`` is the
        earliest still-pending gate (None when the queue drained).
        """
        self._obs.on_mrai_wakeup()
        messages: List[UpdateMessage] = []
        if self._config.mrai_mode is MRAIMode.PER_INTERFACE:
            if self._pending and now >= self._interface_gate:
                # One expiry flushes the whole interface queue as a batch,
                # and the timer is re-armed once for the batch.
                batch = sorted(self._pending.items())
                self._pending = {}
                armed = False
                for prefix, target in batch:
                    messages.append(self._send(prefix, target, now, arm_timer=not armed))
                    armed = True
            next_wakeup = self._interface_gate if self._pending else None
            return messages, next_wakeup

        due = [p for p, gate in self._prefix_gates.items() if p in self._pending and now >= gate]
        for prefix in sorted(due):
            target = self._pending.pop(prefix)
            messages.append(self._send(prefix, target, now, arm_timer=True))
        # Prune expired gates: a gate ≤ now behaves exactly like a missing
        # one (see _gate_for), so dropping it is semantics-preserving and
        # keeps the dict from growing with every prefix ever rate-limited.
        # Pending prefixes always carry a fresh (future) gate, so none of
        # the queue's own gates are touched.
        expired = [p for p, gate in self._prefix_gates.items() if gate <= now]
        for prefix in expired:
            del self._prefix_gates[prefix]
        self._obs.on_prefix_gates(len(self._prefix_gates))
        remaining = [self._prefix_gates[p] for p in self._pending]
        return messages, (min(remaining) if remaining else None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _gate_for(self, prefix: PrefixToken) -> float:
        if self._config.mrai_mode is MRAIMode.PER_INTERFACE:
            return self._interface_gate
        return self._prefix_gates.get(prefix, 0.0)

    def _arm(self, prefix: PrefixToken, now: float) -> float:
        self.arms += 1
        interval = self._config.mrai * self._rng.uniform(
            self._config.jitter_low, self._config.jitter_high
        )
        gate = now + interval
        if self._config.mrai_mode is MRAIMode.PER_INTERFACE:
            self._interface_gate = gate
        else:
            self._prefix_gates[prefix] = gate
        return gate

    def _send(
        self, prefix: PrefixToken, target: TargetState, now: float, *, arm_timer: bool
    ) -> UpdateMessage:
        self._sent[prefix] = target
        if arm_timer and self._config.rate_limiting_enabled:
            self._arm(prefix, now)
        self._obs.on_mrai_send(target is None)
        if target is None:
            return withdrawal(self.owner, self.neighbor, prefix)
        return announcement(self.owner, self.neighbor, prefix, (self.owner,) + target)
