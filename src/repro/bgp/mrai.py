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
from typing import Callable, Dict, List, Optional, Tuple

from repro.bgp.config import BGPConfig, MRAIMode, SendDiscipline
from repro.bgp.messages import UpdateMessage
from repro.bgp.route import intern_path
from repro.errors import CheckpointError
from repro.obs.telemetry import NULL_TELEMETRY, RELATIONSHIP_SLOTS, KernelCounts
from repro.prefix.prefix import Prefix
from repro.topology.types import LOCAL_PREFERENCE, Relationship

#: A target state for a prefix at a neighbour: the AS path to advertise,
#: or None meaning "withdrawn / no route".
TargetState = Optional[Tuple[int, ...]]

#: What :meth:`OutputChannel.set_target` returns when the call changed
#: nothing: one shared object, so callers must not mutate the list.
_NOTHING: Tuple[List[UpdateMessage], Optional[float]] = ([], None)

#: ``UpdateMessage(*fields)`` without the named tuple's Python-level
#: ``__new__`` frame: one builtin call per message sent.
_new_message = tuple.__new__


class ChannelParams:
    """The constants of a :class:`BGPConfig` the send path branches on.

    One object per config, shared by every channel built from it: a
    channel reads plain slots where it would otherwise chase config
    properties and compare enum members per update.
    """

    __slots__ = (
        "wrate",
        "limited",
        "per_interface",
        "send_first",
        "mrai",
        "jitter_low",
        "jitter_span",
    )

    def __init__(self, config: BGPConfig) -> None:
        self.wrate = config.wrate
        self.limited = config.rate_limiting_enabled
        self.per_interface = config.mrai_mode is MRAIMode.PER_INTERFACE
        self.send_first = config.discipline is SendDiscipline.SEND_FIRST
        self.mrai = config.mrai
        self.jitter_low = config.jitter_low
        #: ``random.uniform(a, b)`` is ``a + (b - a) * random()``; keeping
        #: the width makes :meth:`OutputChannel._arm` bit-equal to it.
        self.jitter_span = config.jitter_high - config.jitter_low


class OutputChannel:
    """Out-queue and MRAI state for one directed (node → neighbour) session.

    Also the node's only per-neighbour record: the ``relationship`` and
    what the owner needs to know about it on every update
    (``to_customer`` for the no-valley filter, ``import_pref`` for
    routes learned from it, ``rel_slot`` for the per-relationship
    counts), the pending MRAI wakeup (``wakeup_at`` and the engine
    handle ``wakeup_handle`` that cancels it) and ``down`` while the
    session has failed.  The owner keeps the wakeup and link fields; the
    channel itself never schedules anything.  A node passes
    ``relationship``, the objects its channels share (``params``,
    ``counts``) and its :meth:`~repro.bgp.node.BGPNode.draw`, which
    remembers the value drawn last; a channel built on its own makes
    them from ``config`` / ``rng`` and takes fresh counts from
    ``telemetry``.
    """

    __slots__ = (
        "owner",
        "neighbor",
        "relationship",
        "to_customer",
        "import_pref",
        "rel_slot",
        "_params",
        "_random",
        "_counts",
        "_sent",
        "_pending",
        "_interface_gate",
        "_prefix_gates",
        "arms",
        "wakeup_at",
        "wakeup_handle",
        "down",
    )

    def __init__(
        self,
        owner: int,
        neighbor: int,
        config: BGPConfig,
        rng: random.Random,
        telemetry=NULL_TELEMETRY,
        *,
        relationship: Optional[Relationship] = None,
        params: Optional[ChannelParams] = None,
        counts: Optional[KernelCounts] = None,
        draw: Optional[Callable[[], float]] = None,
    ) -> None:
        self.owner = owner
        self.neighbor = neighbor
        self.relationship = relationship
        if relationship is None:
            self.to_customer = self.import_pref = self.rel_slot = None
        else:
            self.to_customer = relationship is Relationship.CUSTOMER
            self.import_pref = LOCAL_PREFERENCE[relationship]
            self.rel_slot = RELATIONSHIP_SLOTS.index(relationship.value)
        self._params = params if params is not None else ChannelParams(config)
        self._random = draw if draw is not None else rng.random
        self._counts = counts if counts is not None else telemetry.new_counts()
        #: What the neighbour currently believes, per prefix (None/absent =
        #: no route).  Only explicitly advertised-then-withdrawn prefixes
        #: keep a None entry; never-advertised prefixes are absent.
        self._sent: Dict[Prefix, TargetState] = {}
        #: Updates waiting for the timer, newest target per prefix.
        self._pending: Dict[Prefix, TargetState] = {}
        #: Gate(s): time at which the next rate-limited send is allowed.
        #: Per-prefix gates exist only under per-prefix MRAI (None
        #: otherwise: the interface gate is the only one read).
        self._interface_gate = 0.0
        self._prefix_gates: Optional[Dict[Prefix, float]] = (
            None if self._params.per_interface else {}
        )
        #: Timer armings so far, each one draw from the owner's RNG
        #: stream.  Never reset: a checkpoint records the stream as its
        #: draw count (see :meth:`BGPNode.rng_draws`).
        self.arms = 0
        #: The owner's pending MRAI wakeup for this session: its time and
        #: engine handle (None when none is scheduled; after a restore the
        #: time is set before the handle is re-attached).
        self.wakeup_at: Optional[float] = None
        self.wakeup_handle: Optional[list] = None
        #: Whether the session is down (link failure); in-flight updates
        #: from the neighbour are dropped and nothing is exported to it.
        self.down = False

    # ------------------------------------------------------------------
    # Introspection (used by tests and the node)
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Number of prefixes with an update waiting in the out-queue."""
        return len(self._pending)

    def advertised(self, prefix: Prefix) -> TargetState:
        """The state last sent to the neighbour for ``prefix``."""
        return self._sent.get(prefix)

    def reset(self) -> None:
        """Forget all session state (used when the BGP session goes down).

        ``arms`` survives: the draws were taken from the owner's stream.
        """
        self._sent.clear()
        self._pending.clear()
        self._interface_gate = 0.0
        if self._prefix_gates:
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
            "prefix_gates": dict(self._prefix_gates or ()),
            "arms": self.arms,
        }

    def load_state(self, state: dict) -> None:
        """Install a state previously captured by :meth:`dump_state`.

        Raises :class:`~repro.errors.CheckpointError` for per-prefix
        gates on a per-interface channel, which has none to hold them.
        """
        self._sent = dict(state["sent"])
        self._pending = dict(state["pending"])
        self._interface_gate = state["interface_gate"]
        if self._prefix_gates is not None:
            self._prefix_gates = {}
        for prefix, gate in state["prefix_gates"].items():
            self.restore_prefix_gate(prefix, gate)
        self.arms = state["arms"]

    def restore_prefix_gate(self, prefix: Prefix, gate: float) -> None:
        """Set the per-prefix gate of ``prefix`` (checkpoint restore)."""
        if self._prefix_gates is None:
            raise CheckpointError(
                f"channel {self.owner}->{self.neighbor} runs per-interface "
                f"MRAI but the checkpoint holds a per-prefix gate for {prefix}"
            )
        self._prefix_gates[prefix] = gate

    # ------------------------------------------------------------------
    # Main entry points
    # ------------------------------------------------------------------
    def set_target(
        self, prefix: Prefix, target: TargetState, now: float
    ) -> Tuple[List[UpdateMessage], Optional[float]]:
        """Declare the state the neighbour *should* have for ``prefix``.

        Returns ``(messages_to_send_now, wakeup_time)``; ``wakeup_time`` is
        the absolute time at which :meth:`wakeup` must be called to flush a
        queued update (None when nothing is queued by this call).
        """
        pending = self._pending
        if prefix in pending:
            if pending[prefix] == target:
                return _NOTHING
            # Output-queue invalidation: the newer update replaces the old.
            del pending[prefix]
            self._counts.invalidations += 1
        if self._sent.get(prefix) == target:
            # Converged back to what the neighbour already knows — or a
            # withdrawal for a prefix it never had (absent reads as None).
            return _NOTHING

        params = self._params
        if not params.limited or (target is None and not params.wrate):
            # No timer at all, or NO-WRATE's withdrawal bypass: neither
            # arms the gate.
            return [self._send(prefix, target, now, False)], None

        if params.per_interface:
            gate = self._interface_gate
        else:
            gate = self._prefix_gates.get(prefix, 0.0)
        if now >= gate:
            if params.send_first:
                return [self._send(prefix, target, now, True)], None
            # Delay-first (the paper's model): the update always waits in
            # the out-queue for a timer expiry; an idle timer is armed now.
            gate = self._arm(prefix, now)
        pending[prefix] = target
        return [], gate

    def wakeup(self, now: float) -> Tuple[List[UpdateMessage], Optional[float]]:
        """Timer callback: flush whatever the expired gate(s) allow.

        Returns ``(messages, next_wakeup)`` where ``next_wakeup`` is the
        earliest still-pending gate (None when the queue drained).
        """
        counts = self._counts
        counts.wakeups += 1
        messages: List[UpdateMessage] = []
        if self._params.per_interface:
            if self._pending and now >= self._interface_gate:
                # One expiry flushes the whole interface queue as a batch,
                # and the timer is re-armed once for the batch.
                batch = sorted(self._pending.items())
                self._pending = {}
                armed = False
                for prefix, target in batch:
                    messages.append(self._send(prefix, target, now, not armed))
                    armed = True
            next_wakeup = self._interface_gate if self._pending else None
            return messages, next_wakeup

        due = [p for p, gate in self._prefix_gates.items() if p in self._pending and now >= gate]
        for prefix in sorted(due):
            target = self._pending.pop(prefix)
            messages.append(self._send(prefix, target, now, True))
        self.prune_gates(now)
        live_gates = len(self._prefix_gates)
        if live_gates > counts.prefix_gates:
            counts.prefix_gates = live_gates
        remaining = [self._prefix_gates[p] for p in self._pending]
        return messages, (min(remaining) if remaining else None)

    def prune_gates(self, now: float) -> None:
        """Drop every per-prefix gate that expired by ``now``.

        A gate ≤ now behaves exactly like a missing one (set_target reads
        an absent gate as 0.0), so dropping it is semantics-preserving and
        keeps the dict from growing with every prefix ever rate-limited.
        Pending prefixes always carry a fresh (future) gate, so none of
        the queue's own gates are touched.
        """
        gates = self._prefix_gates
        if gates:
            for prefix in [p for p, gate in gates.items() if gate <= now]:
                del gates[prefix]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _arm(self, prefix: Prefix, now: float) -> float:
        self.arms += 1
        params = self._params
        gate = now + params.mrai * (
            params.jitter_low + params.jitter_span * self._random()
        )
        if params.per_interface:
            self._interface_gate = gate
        else:
            self._prefix_gates[prefix] = gate
        return gate

    def _send(
        self, prefix: Prefix, target: TargetState, now: float, arm_timer: bool
    ) -> UpdateMessage:
        """Put ``target`` on the wire (``arm_timer`` only on a limited path)."""
        self._sent[prefix] = target
        if arm_timer:
            self._arm(prefix, now)
        counts = self._counts
        counts.sends += 1
        if target is None:
            counts.send_withdrawals += 1
            return _new_message(UpdateMessage, (self.owner, self.neighbor, prefix, None))
        return _new_message(
            UpdateMessage,
            (self.owner, self.neighbor, prefix, intern_path((self.owner,) + target)),
        )
