"""The simulated BGP speaker (the node model of Fig. 2).

Each AS is one :class:`BGPNode` holding:

* a FIFO **in-queue** drained by a single processor whose per-message
  service time is uniform in [0, 100 ms]: the message in service sits in
  a slot, and a queue exists only while others wait behind it;
* an **Adj-RIB-In** per neighbour and a **Loc-RIB** with the selected
  best route;
* one **output channel** per neighbour (export filter + MRAI-gated
  out-queue, see :mod:`repro.bgp.mrai`), which is also the node's only
  record of the session: relationship, pending wakeup, link state.

The node is transport-agnostic: it emits outgoing messages through a
``transmit`` callback supplied by the network layer, and schedules its own
processing/timer events on the discrete-event engine.
"""

from __future__ import annotations

import _random
import collections
from typing import Callable, Deque, Dict, Optional

from repro.bgp.config import BGPConfig
from repro.bgp.damping import FlapKind, RouteFlapDamper
from repro.bgp.decision import better, not_worse, select_best
from repro.bgp.messages import UpdateMessage
from repro.bgp.mrai import ChannelParams, OutputChannel
from repro.bgp.policy import exportable
from repro.bgp.rib import AdjRIBIn, LocRIB
from repro.bgp.route import Route, local_route, make_route
from repro.errors import CheckpointError, ParameterError, SimulationError
from repro.bgp.events import DampingReuseCheck, MRAIWakeup, ServiceCompletion
from repro.obs.telemetry import NULL_TELEMETRY, KernelCounts
from repro.prefix.prefix import Prefix
from repro.topology.types import LOCAL_PREFERENCE, NodeType, Relationship

TransmitFn = Callable[[UpdateMessage, float], None]

#: Largest ``getrandbits`` request made while replaying a stream (bounds
#: the throw-away integer to 512 kB however long the stream is).
_REPLAY_CHUNK_DRAWS = 1 << 16


def rng_mark(rng: _random.Random) -> int:
    """A small fingerprint of a Mersenne-Twister stream's position.

    The position index (which moves with every draw) and the first state
    word (which changes with every regeneration, i.e. every 312 draws)
    packed into one integer: enough to tell a replayed stream that ended
    anywhere but where the checkpointed one stood.  Takes a bare
    ``_random.Random`` or a ``random.Random``.
    """
    words = _random.Random.getstate(rng)
    return (words[-1] << 32) | words[0]


def advance_rng(rng: _random.Random, draws: int) -> None:
    """Consume exactly ``draws`` ``random()`` calls' worth of the stream.

    ``random()`` takes two 32-bit outputs, ``getrandbits(64 * k)`` takes
    ``2 * k`` of them: the generator ends in the same state either way.
    """
    while draws > 0:
        step = min(draws, _REPLAY_CHUNK_DRAWS)
        rng.getrandbits(64 * step)
        draws -= step


#: Local preference of customer-learned routes: with locally originated
#: ones, the routes the no-valley filter lets out to every neighbour.
_CUSTOMER_PREF = LOCAL_PREFERENCE[Relationship.CUSTOMER]

#: Floor on the wait before a re-scheduled damping reuse check.  Guards
#: against a zero-wait loop when a penalty sits exactly on the reuse
#: threshold (decay makes the next check strictly later).
_REUSE_EPSILON = 1e-6


class BGPNode:
    """One AS in the simulation.

    Slotted: a network holds thousands of these, and with as many
    instance attributes as this class has an unslotted instance loses
    CPython's key-sharing dict (a node then costs ~1.5 kB more).

    ``counts`` / ``params`` are the records a network shares among its
    nodes; a node built on its own takes fresh counts from ``telemetry``
    and lets its channels derive their own params.  State the config
    switches off is not built: no damper without damping (``_damper``
    and ``_reuse_pending`` are None).
    """

    __slots__ = (
        "node_id",
        "node_type",
        "_engine",
        "_config",
        "_rng",
        "_random",
        "_rng_counted",
        "_last_draw",
        "_transmit",
        "_counts",
        "_service_event",
        "_in_service",
        "_waiting",
        "adj_rib_in",
        "loc_rib",
        "_local_routes",
        "_channels",
        "_reuse_pending",
        "_damper",
        "processed_count",
        "busy_time",
        "_service_delay",
        "max_queue_length",
        "best_change_count",
        "decisions_run",
        "decisions_skipped",
    )

    def __init__(
        self,
        node_id: int,
        node_type: NodeType,
        neighbors: Dict[int, Relationship],
        engine: "EngineProtocol",
        config: BGPConfig,
        rng: _random.Random,
        transmit: TransmitFn,
        telemetry=NULL_TELEMETRY,
        *,
        counts: Optional[KernelCounts] = None,
        params: Optional[ChannelParams] = None,
    ) -> None:
        self.node_id = node_id
        self.node_type = node_type
        self._engine = engine
        self._config = config
        self._rng = rng
        #: The one bound ``rng.random`` every draw of this node's stream
        #: goes through (service times here, timer jitter in the channels).
        self._random = rng.random
        #: False once restored from a pre-1.6 checkpoint, whose full RNG
        #: state says nothing about how many draws produced it.
        self._rng_counted = True
        #: The value the stream returned last (None before the first
        #: draw): with the draw count, a boundary record's O(1)
        #: fingerprint of the stream (see :meth:`boundary_state`).
        self._last_draw: Optional[float] = None
        self._transmit = transmit
        self._counts = counts if counts is not None else telemetry.new_counts()
        #: Scheduled once per service; stateless, so one object serves.
        self._service_event = ServiceCompletion(self)
        #: The message the processor is servicing (None while idle), and
        #: the FIFO of those waiting behind it (None while none wait).
        self._in_service: Optional[UpdateMessage] = None
        self._waiting: Optional[Deque[UpdateMessage]] = None
        self.adj_rib_in, self.loc_rib = AdjRIBIn(), LocRIB()
        self._local_routes: Dict[Prefix, Route] = {}
        draw = self.draw  # one bound method for every channel, not one each
        self._channels: Dict[int, OutputChannel] = {
            neighbor: OutputChannel(
                node_id,
                neighbor,
                config,
                rng,
                relationship=relationship,
                params=params,
                counts=counts,
                draw=draw,
            )
            for neighbor, relationship in neighbors.items()
        }
        if config.damping.enabled:
            self._damper: Optional[RouteFlapDamper] = RouteFlapDamper(config.damping)
            #: (due time, engine handle) of the single pending damping
            #: reuse check per prefix (dedupes the per-flap event spray).
            self._reuse_pending: Optional[Dict[Prefix, tuple]] = {}
        else:
            self._damper = self._reuse_pending = None
        #: Messages processed by this node (for queue/occupancy statistics).
        self.processed_count = 0
        #: Total seconds the processor has spent servicing updates.
        #: Accrued when a service *completes*: a run halted mid-service
        #: (``run(until=...)``, event budget, checkpoint) has not yet
        #: spent the in-flight delay, so utilization never exceeds the
        #: simulated horizon.
        self.busy_time = 0.0
        #: Service delay of the message currently in service (accrued
        #: into ``busy_time`` on completion; checkpointed so a restored
        #: mid-service run accounts identically).
        self._service_delay = 0.0
        #: High-water mark of the in-queue (including the job in service).
        self.max_queue_length = 0
        #: Number of times the best route changed, per prefix.  The diff
        #: between two snapshots measures path exploration depth.
        self.best_change_count: Dict[Prefix, int] = {}
        #: Decisions actually run (full or incremental).
        self.decisions_run = 0
        #: Decisions avoided by deciding per prefix: on every decision
        #: trigger, the prefixes in the Loc-RIB that were *not*
        #: re-decided.  A full-table implementation re-scans all of them,
        #: so this counter is the saved work — deterministic (no timing
        #: involved), which lets the perf budget gate pin it exactly.
        #: Meaningful only for multi-prefix workloads (``prefix_churn``):
        #: a C-event retires each prefix once measured, so its Loc-RIBs
        #: hold one prefix at a time and this reads 0 there.
        self.decisions_skipped = 0

    # ------------------------------------------------------------------
    # Origin operations
    # ------------------------------------------------------------------
    def originate(self, prefix: Prefix) -> None:
        """Start announcing ``prefix`` as its origin AS (every prefix
        enters the kernel here, so anything but a ``Prefix`` is refused)."""
        if not isinstance(prefix, Prefix):
            raise ParameterError(f"prefix must be a Prefix, got {prefix!r}")
        self._local_routes[prefix] = local_route(prefix)
        self._run_decision(prefix, self._engine.now)

    def withdraw_origin(self, prefix: Prefix) -> None:
        """Stop originating ``prefix`` (the DOWN half of a C-event)."""
        if prefix not in self._local_routes:
            raise SimulationError(
                f"node {self.node_id} does not originate prefix {prefix}"
            )
        del self._local_routes[prefix]
        self._run_decision(prefix, self._engine.now)

    def originates(self, prefix: Prefix) -> bool:
        """Whether this node currently originates ``prefix``."""
        return prefix in self._local_routes

    def retire(self, prefix: Prefix) -> None:
        """Forget ``prefix`` everywhere in this node, sending nothing.

        For a prefix that will never be touched again, once the network
        has converged on it: its routes, Loc-RIB entry, best-change count,
        damping records and what every neighbour was told go, together
        with per-prefix MRAI gates that already expired (what the next
        wakeup would prune anyway).  State shared across prefixes — the
        interface gates, the RNG stream, every work counter — stays.

        Raises :class:`~repro.errors.SimulationError` while an update for
        ``prefix`` still waits in an out-queue.
        """
        # Once per node per C-event, so kept to plain dict operations: an
        # interpreter call per channel would show in the per-event budget.
        channels = self._channels.values()
        for channel in channels:
            if prefix in channel._pending:
                raise SimulationError(
                    f"node {self.node_id} cannot retire prefix {prefix}: an "
                    f"update to {channel.neighbor} is still queued"
                )
        now = self._engine.now
        for channel in channels:
            sent = channel._sent
            if prefix in sent:
                del sent[prefix]
            if channel._prefix_gates:
                channel.prune_gates(now)
        for held in (self._local_routes, self.best_change_count):
            if prefix in held:
                del held[prefix]
        self.adj_rib_in.retire(prefix)
        self.loc_rib.retire(prefix)
        if self._damper is not None:  # no records are kept otherwise
            if prefix in self._reuse_pending:
                del self._reuse_pending[prefix]
            self._damper.forget(prefix)

    # ------------------------------------------------------------------
    # Message intake (called by the network at delivery time)
    # ------------------------------------------------------------------
    def receive(self, message: UpdateMessage) -> None:
        """Place an incoming update in the FIFO in-queue."""
        if message.receiver != self.node_id:
            raise SimulationError(
                f"node {self.node_id} received message addressed to {message.receiver}"
            )
        try:
            session = self._channels[message.sender]
        except KeyError:
            raise SimulationError(
                f"node {self.node_id} received update from non-neighbor "
                f"{message.sender}"
            ) from None
        if session.down:
            self._counts.drops += 1
            return  # in-flight message on a failed link: dropped
        if self._in_service is None:
            self._in_service = message
            if not self.max_queue_length:
                self.max_queue_length = 1
            self._start_service()
            return
        waiting = self._waiting
        if waiting is None:
            waiting = self._waiting = collections.deque()
        waiting.append(message)
        length = len(waiting) + 1
        if length > self.max_queue_length:
            self.max_queue_length = length

    @property
    def queue_length(self) -> int:
        """Current in-queue occupancy (including the message in service)."""
        if self._in_service is None:
            return 0
        return 1 + (len(self._waiting) if self._waiting else 0)

    def draw(self) -> float:
        """One ``random()`` from this node's stream (a channel's timer jitter)."""
        value = self._last_draw = self._random()
        return value

    def _start_service(self) -> None:
        # The service start's draw, inline (see :meth:`draw`).
        value = self._last_draw = self._random()
        # uniform(0, max) drawn as the product it is (bit-equal, one call).
        delay = self._config.processing_time_max * value
        self._service_delay = delay
        self._engine.schedule(delay, self._service_event)

    def _complete_service(self) -> None:
        now = self._engine.now
        self.busy_time += self._service_delay
        self.processed_count += 1
        self._process(self._in_service, now)
        waiting = self._waiting
        if waiting:
            self._in_service = waiting.popleft()
            if not waiting:
                self._waiting = None
            self._start_service()
        else:
            self._in_service = None

    # ------------------------------------------------------------------
    # Update processing, decision and export
    # ------------------------------------------------------------------
    def _process(self, message: UpdateMessage, now: float) -> None:
        prefix = message.prefix
        sender = message.sender
        path = message.path
        session = self._channels[sender]
        counts = self._counts
        counts.updates_from[session.rel_slot] += 1
        if path is None:
            counts.update_withdrawals += 1
            route: Optional[Route] = None
        elif self.node_id in path:
            # Receiver-side AS-path loop detection: treat as unreachable.
            route = None
        else:
            route = make_route(prefix, path, session.import_pref)
        if self._damper is not None:
            previous = self.adj_rib_in.route_from(prefix, sender)
            self._record_flap(previous, route, sender, prefix, now)
            self.adj_rib_in.update(prefix, sender, route)
            # Suppression state depends on the clock, so the installed
            # best cannot be trusted as a comparison anchor: full scan.
            self._run_decision(prefix, now)
        else:
            previous = self.adj_rib_in.update(prefix, sender, route)
            self._run_decision_incremental(prefix, previous, route, now)
        # Per-prefix economy: of everything installed, only this one
        # prefix was re-decided; the rest is the work a full-table
        # re-scan would have burned.  Zero under C-events, whose
        # Loc-RIBs hold only the prefix being measured (earlier ones
        # are retired); multi-prefix workloads are what this counts.
        skipped = len(self.loc_rib) - 1
        if skipped > 0:
            self.decisions_skipped += skipped

    def _record_flap(
        self,
        previous: Optional[Route],
        route: Optional[Route],
        sender: int,
        prefix: Prefix,
        now: float,
    ) -> None:
        if previous is not None and route is None:
            kind = FlapKind.WITHDRAWAL
        elif previous is None and route is not None:
            kind = FlapKind.READVERTISEMENT
        elif previous is not None and route is not None and previous != route:
            kind = FlapKind.ATTRIBUTE_CHANGE
        else:
            return
        self._damper.record_flap(sender, prefix, kind, now)
        if self._damper.is_suppressed(sender, prefix, now):
            wait = self._damper.time_until_reuse(sender, prefix, now)
            if wait is not None and wait > 0:
                self._schedule_reuse_check(prefix, now + wait)

    def _schedule_reuse_check(self, prefix: Prefix, at: float) -> None:
        """Keep exactly one pending reuse check per prefix.

        An identical-or-earlier pending check already covers ``at``; a
        strictly earlier ``at`` supersedes (and cancels) the pending one.
        """
        pending = self._reuse_pending.get(prefix)
        if pending is not None:
            if pending[0] <= at:
                return
            self._engine.cancel(pending[1])
        entry = self._engine.schedule_at(at, DampingReuseCheck(self, prefix))
        self._reuse_pending[prefix] = (at, entry)

    def _reuse_check(self, prefix: Prefix) -> None:
        """Re-run the decision once a damped route may be reusable.

        Because checks are deduped to one pending event per prefix, this
        re-arms itself for the next suppressed record of the prefix (the
        per-flap spray used to provide that coverage by brute force).
        """
        now = self._engine.now
        pending = self._reuse_pending.get(prefix)
        if pending is not None and pending[0] <= now:
            del self._reuse_pending[prefix]
        self._run_decision(prefix, now)
        wait = self._damper.earliest_reuse(prefix, now)
        if wait is not None:
            self._schedule_reuse_check(prefix, now + max(wait, _REUSE_EPSILON))

    def _candidates(self, prefix: Prefix, now: float) -> list[Route]:
        candidates: list[Route] = []
        local = self._local_routes.get(prefix)
        if local is not None:
            candidates.append(local)
        damper = self._damper
        for neighbor, route in self.adj_rib_in.candidates(prefix):
            if damper is not None and damper.is_suppressed(neighbor, prefix, now):
                continue
            candidates.append(route)
        return candidates

    def _run_decision(self, prefix: Prefix, now: float) -> None:
        self._counts.decision_runs += 1
        self.decisions_run += 1
        best = select_best(self.node_id, self._candidates(prefix, now))
        self._install(prefix, best, now)

    def _run_decision_incremental(
        self,
        prefix: Prefix,
        previous: Optional[Route],
        route: Optional[Route],
        now: float,
    ) -> None:
        """Decision for a single Adj-RIB-In change (damping disabled).

        Compares the changed entry against the installed best instead of
        re-scanning every candidate; falls back to the full scan exactly
        when the removed/replaced entry *was* the best and the change may
        let another candidate win.  Matches the full scan's first-wins
        tie semantics: the loop invariant of ``select_best`` guarantees
        every candidate ordered before the installed best has a strictly
        greater key and every one after has a greater-or-equal key, which
        is what the ``<=`` / ``<`` splits below encode.
        """
        self._counts.decision_runs += 1
        self.decisions_run += 1
        current = self.loc_rib.best(prefix)
        node_id = self.node_id
        if route is not None:
            if current is None:
                # Nothing was installed, so nothing else can compete.
                best: Optional[Route] = route
            elif previous == current:
                # The replaced entry was the best; it keeps its position
                # in candidate order, so the new route wins iff it is no
                # worse than the old best (everything later has a >= key).
                if not_worse(route, current, node_id):
                    best = route
                else:
                    best = select_best(node_id, self._candidates(prefix, now))
            elif better(route, current, node_id):
                best = route
            else:
                return  # the installed best stands
        else:
            if previous is None or current is None or previous != current:
                return  # removed nothing, or a non-best entry
            best = select_best(node_id, self._candidates(prefix, now))
        self._install(prefix, best, now)

    def _install(self, prefix: Prefix, best: Optional[Route], now: float) -> None:
        if self.loc_rib.install(prefix, best):
            self.best_change_count[prefix] = self.best_change_count.get(prefix, 0) + 1
            self._export(prefix, best, now)

    def _export(self, prefix: Prefix, best: Optional[Route], now: float) -> None:
        """Tell every live session what it should now hold for ``prefix``.

        The export decision is :func:`repro.bgp.policy.exportable` with
        the route-side half hoisted out of the loop: a local or
        customer-learned route goes to everyone, anything else to
        customers only, and never to a neighbour already on its path.
        """
        if best is None:
            path = None
            to_all = False
        else:
            path = best.path
            to_all = not path or best.local_pref == _CUSTOMER_PREF
        for neighbor, channel in self._channels.items():
            if channel.down:
                continue
            if (
                path is not None
                and (to_all or channel.to_customer)
                and neighbor not in path
            ):
                target = path
            elif prefix in channel._pending or channel._sent.get(prefix) is not None:
                target = None
            else:
                continue  # no route for a neighbour that holds and awaits none
            messages, wakeup = channel.set_target(prefix, target, now)
            for message in messages:
                self._transmit(message, now)
            if wakeup is not None:
                self._schedule_wakeup(neighbor, wakeup)

    # ------------------------------------------------------------------
    # Link state (link-failure event extension)
    # ------------------------------------------------------------------
    def set_link_down(self, neighbor: int) -> None:
        """Take the session to ``neighbor`` down.

        All routes learned from the neighbour are flushed (triggering a
        new decision per affected prefix) and the output channel forgets
        its session state.
        """
        channel = self._session(neighbor)
        if channel.down:
            return
        channel.down = True
        channel.reset()
        if channel.wakeup_handle is not None:
            self._engine.cancel(channel.wakeup_handle)
        channel.wakeup_at = channel.wakeup_handle = None
        now = self._engine.now
        # Flush everything first, then decide each flushed prefix in flush
        # order: per-prefix decisions are independent (each reads only its
        # own prefix's state), so this is trajectory-identical to an
        # interleaved flush-and-decide loop while making the decision
        # batch — and its skip accounting — explicit.
        flushed = self.adj_rib_in.prefixes_from(neighbor)
        for prefix in flushed:
            self.adj_rib_in.update(prefix, neighbor, None)
        skipped = len(self.loc_rib) - len(flushed)
        if skipped > 0:
            self.decisions_skipped += skipped
        for prefix in flushed:
            self._run_decision(prefix, now)

    def set_link_up(self, neighbor: int) -> None:
        """Restore the session to ``neighbor`` and re-advertise best routes."""
        channel = self._session(neighbor)
        if not channel.down:
            return
        channel.down = False
        now = self._engine.now
        for prefix in self.loc_rib.prefixes():
            best = self.loc_rib.best(prefix)
            if best is not None and exportable(best, neighbor, channel.relationship):
                messages, wakeup = channel.set_target(prefix, best.path, now)
                for message in messages:
                    self._transmit(message, now)
                if wakeup is not None:
                    self._schedule_wakeup(neighbor, wakeup)

    def _session(self, neighbor: int) -> OutputChannel:
        channel = self._channels.get(neighbor)
        if channel is None:
            raise SimulationError(f"node {self.node_id} has no link to {neighbor}")
        return channel

    # ------------------------------------------------------------------
    # MRAI wakeups
    # ------------------------------------------------------------------
    def _schedule_wakeup(self, neighbor: int, at: float) -> None:
        channel = self._channels[neighbor]
        scheduled = channel.wakeup_at
        if scheduled is not None:
            if scheduled <= at:
                return
            # A strictly earlier wakeup supersedes the pending one: drop
            # the later event from the heap instead of letting it fire as
            # a no-op (the stale-wakeup heap-bloat fix).
            if channel.wakeup_handle is not None:
                self._engine.cancel(channel.wakeup_handle)
        channel.wakeup_at = at
        channel.wakeup_handle = self._engine.schedule_at(
            at, MRAIWakeup(self, neighbor, at)
        )

    def _mrai_wakeup(self, neighbor: int, at: float) -> None:
        channel = self._channels[neighbor]
        channel.wakeup_at = channel.wakeup_handle = None
        now = self._engine.now
        messages, next_wakeup = channel.wakeup(now)
        for message in messages:
            self._transmit(message, now)
        if next_wakeup is not None:
            self._schedule_wakeup(neighbor, next_wakeup)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @property
    def rng_draws(self) -> int:
        """``random()`` calls made on this node's stream since seeding.

        The stream has two consumers, one draw each: a service start
        (every completed one, plus the one in flight) and a timer arming
        on any output channel.  With the seed, this count *is* the
        stream: a checkpoint stores it in place of the generator state.
        Both draw through the node, which keeps the value drawn last as
        the stream's fingerprint.
        """
        return (
            self.processed_count
            + (self._in_service is not None)
            + sum(channel.arms for channel in self._channels.values())
        )

    def checkpoint_state(self) -> dict:
        """Everything that distinguishes this node from a freshly built one.

        Returns live Python objects (routes, messages);
        :mod:`repro.checkpoint` converts them to JSON primitives.  The
        counterpart of :meth:`restore_state`.  The RNG stream is
        ``rng_draws`` plus the ``rng_mark`` fingerprint restore checks
        its replay against, or the full ``rng_state`` for a node whose
        count was lost to a pre-1.6 checkpoint.
        """
        if self._rng_counted:
            stream = {"rng_draws": self.rng_draws, "rng_mark": rng_mark(self._rng)}
        else:
            stream = {"rng_state": _random.Random.getstate(self._rng)}
        channels = self._channels
        return {
            **stream,
            "in_queue": (
                []
                if self._in_service is None
                else [self._in_service, *(self._waiting or ())]
            ),
            "busy": self._in_service is not None,
            "adj_rib_in": self.adj_rib_in.entries(),
            "loc_rib": self.loc_rib.entries(),
            "local_prefixes": list(self._local_routes),
            "channels": {
                neighbor: channel.dump_state()
                for neighbor, channel in channels.items()
            },
            "wakeup_at": {
                neighbor: channel.wakeup_at for neighbor, channel in channels.items()
            },
            "down_neighbors": sorted(
                neighbor for neighbor, channel in channels.items() if channel.down
            ),
            "damper": self._damper.dump_state() if self._damper is not None else [],
            "processed_count": self.processed_count,
            "busy_time": self.busy_time,
            "service_delay": self._service_delay,
            "max_queue_length": self.max_queue_length,
            "best_change_count": dict(self.best_change_count),
            "decisions_run": self.decisions_run,
            "decisions_skipped": self.decisions_skipped,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite this (freshly built) node with a checkpointed state.

        Dict insertion orders are reproduced exactly, because iteration
        order feeds float-summation and decision order downstream — the
        basis of the restored-run byte-identity guarantee.

        Raises :class:`~repro.errors.CheckpointError` when the RNG stream
        replayed from the draw count does not end where the checkpointed
        one stood, and for session, queue or damping state this node
        cannot hold: a neighbour it does not have, a busy flag that
        disagrees with the in-queue, damping records with damping off.
        """
        if "rng_state" in state:
            _random.Random.setstate(self._rng, state["rng_state"])
            self._rng_counted = False
        else:
            if not self._rng_counted or self.rng_draws:
                raise SimulationError(
                    f"node {self.node_id}: a draw-count checkpoint restores "
                    "only onto a freshly built node"
                )
            self._replay_stream(state["rng_draws"])
            if rng_mark(self._rng) != state["rng_mark"]:
                raise CheckpointError(
                    f"node {self.node_id}: RNG stream replayed from "
                    f"{state['rng_draws']} draws does not match the "
                    "checkpointed fingerprint"
                )
        queued = state["in_queue"]
        if bool(queued) != state["busy"]:
            raise CheckpointError(
                f"node {self.node_id}: busy={state['busy']} with "
                f"{len(queued)} queued message(s)"
            )
        self._in_service = queued[0] if queued else None
        self._waiting = collections.deque(queued[1:]) if len(queued) > 1 else None
        self.adj_rib_in, self.loc_rib = AdjRIBIn(), LocRIB()
        for prefix, neighbor, route in state["adj_rib_in"]:
            self.adj_rib_in.update(prefix, neighbor, route)
        for prefix, route in state["loc_rib"]:
            self.loc_rib.install(prefix, route)
        self._local_routes = {
            prefix: local_route(prefix) for prefix in state["local_prefixes"]
        }
        channels = self._channels
        for neighbor, channel_state in state["channels"].items():
            if neighbor not in channels:
                raise SimulationError(
                    f"checkpoint has channel to {neighbor}, which node "
                    f"{self.node_id} does not know"
                )
            channels[neighbor].load_state(channel_state)
        wakeup_at = state["wakeup_at"]
        down = set(state["down_neighbors"])
        unknown = (set(wakeup_at) | down) - channels.keys()
        if unknown:
            raise CheckpointError(
                f"node {self.node_id}: checkpoint has timer or link state "
                f"towards {sorted(unknown)}, which are not neighbours"
            )
        for neighbor, channel in channels.items():
            channel.wakeup_at = wakeup_at.get(neighbor)
            # Cancellation handles cannot be serialized; the restore flow
            # rebuilds them afterwards via adopt_pending_event.
            channel.wakeup_handle = None
            channel.down = neighbor in down
        if self._damper is not None:
            self._reuse_pending = {}
            self._damper.load_state(state["damper"])
        elif state["damper"]:
            raise CheckpointError(
                f"node {self.node_id}: checkpoint has damping records, but "
                "damping is off"
            )
        self.processed_count = state["processed_count"]
        self.busy_time = state["busy_time"]
        self._service_delay = state["service_delay"]
        self.max_queue_length = state["max_queue_length"]
        self.best_change_count = dict(state["best_change_count"])
        self.decisions_run = state["decisions_run"]
        self.decisions_skipped = state["decisions_skipped"]
        if self._rng_counted and self.rng_draws != state["rng_draws"]:
            raise CheckpointError(
                f"node {self.node_id}: checkpoint records {state['rng_draws']} "
                f"RNG draws but its counters account for {self.rng_draws}"
            )

    def _replay_stream(self, draws: int) -> None:
        """Bring a freshly seeded stream to ``draws`` draws.

        The last draw is taken one call at a time, so the value it
        returned — the stream's fingerprint — is recovered on the way.
        """
        if draws > 0:
            advance_rng(self._rng, draws - 1)
            self._last_draw = self._random()

    def boundary_state(self) -> Optional[tuple]:
        """This node as the few numbers a C-event boundary leaves, or None.

        Once a C-event has converged and its prefix is retired, a node
        holds no route, queue, wakeup or damping record: what is left is
        its RNG stream (draw count and the value drawn last), its work
        counters and its channels' timers.  Returns ``(row,
        prefix_gates)``: ``row`` is ``[draws, last draw, processed_count,
        busy_time, service_delay, max_queue_length, decisions_run,
        decisions_skipped, arms, interface_gates]`` with the last two in
        neighbour order, ``prefix_gates`` the ``(neighbor, prefix, gate)``
        per-prefix MRAI gates that outlive a retirement.  None when the
        node holds anything else, or was restored from a full RNG state
        (its draw count is unknown): only a full snapshot captures it.
        """
        if (
            self._in_service is not None
            or not self._rng_counted
            or self._local_routes
            or len(self.adj_rib_in)
            or len(self.loc_rib)
            or self.best_change_count
            or self._reuse_pending
            or (self._damper is not None and self._damper.dump_state())
        ):
            return None
        arms = []
        gates = []
        prefix_gates = []
        for neighbor, channel in self._channels.items():
            if (
                channel._sent
                or channel._pending
                or channel.down
                or channel.wakeup_at is not None
            ):
                return None
            arms.append(channel.arms)
            gates.append(channel._interface_gate)
            for prefix, gate in (channel._prefix_gates or {}).items():
                prefix_gates.append((neighbor, prefix, gate))
        row = [
            self.processed_count + sum(arms),  # rng_draws of an idle node
            self._last_draw,
            self.processed_count,
            self.busy_time,
            self._service_delay,
            self.max_queue_length,
            self.decisions_run,
            self.decisions_skipped,
            arms,
            gates,
        ]
        return row, prefix_gates

    def restore_boundary(self, row: list, prefix_gates) -> None:
        """Inverse of :meth:`boundary_state`, onto a freshly built node.

        Replays the stream to the recorded count and raises
        :class:`~repro.errors.CheckpointError` when the value drawn last
        differs from the recorded one or the counters do not account for
        the count — the same refusals as :meth:`restore_state`.
        """
        (
            draws,
            last_draw,
            processed_count,
            busy_time,
            service_delay,
            max_queue_length,
            decisions_run,
            decisions_skipped,
            arms,
            gates,
        ) = row
        if not self._rng_counted or self.rng_draws:
            raise SimulationError(
                f"node {self.node_id}: a boundary record restores only onto "
                "a freshly built node"
            )
        channels = self._channels
        if len(arms) != len(channels) or len(gates) != len(channels):
            raise CheckpointError(
                f"node {self.node_id}: boundary record has {len(arms)} timer "
                f"counts and {len(gates)} gates for {len(channels)} channels"
            )
        self._replay_stream(draws)
        if self._last_draw != last_draw:
            raise CheckpointError(
                f"node {self.node_id}: RNG stream replayed from {draws} draws "
                "does not end on the recorded last draw"
            )
        self.processed_count = processed_count
        self.busy_time = busy_time
        self._service_delay = service_delay
        self.max_queue_length = max_queue_length
        self.decisions_run = decisions_run
        self.decisions_skipped = decisions_skipped
        for channel, count, gate in zip(channels.values(), arms, gates):
            channel.arms = count
            channel._interface_gate = gate
        for neighbor, prefix, gate in prefix_gates:
            if neighbor not in channels:
                raise CheckpointError(
                    f"node {self.node_id}: boundary record has a gate towards "
                    f"{neighbor}, which is not a neighbour"
                )
            channels[neighbor].restore_prefix_gate(prefix, gate)
        if self.rng_draws != draws:
            raise CheckpointError(
                f"node {self.node_id}: boundary record has {draws} RNG draws "
                f"but its counters account for {self.rng_draws}"
            )

    def adopt_pending_event(self, entry: list) -> None:
        """Re-attach a restored heap entry as a live cancellation handle.

        Called once per restored pending event that targets this node.
        The entry is the engine's own ``[time, sequence, event]`` heap
        record; holding it lets supersession keep cancelling in O(1)
        after a restore, exactly as in the uninterrupted run.  A snapshot
        holds only live events, so an MRAI wakeup must be the one timer
        record of its channel: any other raises
        :class:`~repro.errors.CheckpointError` (it would flush the
        channel early).  :meth:`check_wakeups_adopted` covers the other
        direction once every event is adopted.
        """
        event = entry[2]
        if isinstance(event, MRAIWakeup):
            channel = self._channels.get(event.neighbor)
            scheduled = channel.wakeup_at if channel is not None else None
            if scheduled != event.at or channel.wakeup_handle is not None:
                raise CheckpointError(
                    f"node {self.node_id}: pending MRAI wakeup towards "
                    f"{event.neighbor} at {event.at} does not match its timer "
                    f"record ({scheduled})"
                )
            channel.wakeup_handle = entry
        elif isinstance(event, DampingReuseCheck):
            if self._reuse_pending is None:
                raise CheckpointError(
                    f"node {self.node_id}: pending damping reuse check, but "
                    "damping is off"
                )
            at = entry[0]
            pending = self._reuse_pending.get(event.prefix)
            if pending is None or at < pending[0]:
                self._reuse_pending[event.prefix] = (at, entry)

    def check_wakeups_adopted(self) -> None:
        """Raise :class:`~repro.errors.CheckpointError` when a restored
        timer record has no pending wakeup (its channel would never
        flush)."""
        for neighbor, channel in self._channels.items():
            if channel.wakeup_at is not None and channel.wakeup_handle is None:
                raise CheckpointError(
                    f"node {self.node_id}: MRAI timer towards {neighbor} is "
                    f"set for {channel.wakeup_at} but no wakeup is pending"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def best_route(self, prefix: Prefix) -> Optional[Route]:
        """The currently selected route for ``prefix``."""
        return self.loc_rib.best(prefix)

    def channel(self, neighbor: int) -> OutputChannel:
        """The output channel towards ``neighbor`` (tests / diagnostics)."""
        return self._channels[neighbor]


class EngineProtocol:
    """Structural interface the node expects from the event engine.

    ``schedule``/``schedule_at`` return an opaque handle accepted by
    ``cancel`` (see :class:`repro.sim.engine.Engine`).
    """

    now: float

    def schedule(self, delay: float, callback: Callable[[], None]) -> list:
        raise NotImplementedError

    def schedule_at(self, time: float, callback: Callable[[], None]) -> list:
        raise NotImplementedError

    def cancel(self, handle: list) -> None:
        raise NotImplementedError
