"""The simulated network: topology + BGP nodes + engine + counters.

:class:`SimNetwork` instantiates one :class:`~repro.bgp.node.BGPNode` per
AS in an :class:`~repro.topology.graph.ASGraph`, wires their transmit
callbacks through a constant-delay link layer, counts every delivered
update, and exposes the high-level operations experiments need:
originating/withdrawing prefixes and running the network to convergence.

Determinism: node service times and MRAI jitter come from per-node RNGs
derived from a single seed with the stable hash mixer, so results do not
depend on Python hash randomization or dict ordering.
"""

from __future__ import annotations

import _random
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.bgp.config import BGPConfig
from repro.bgp.messages import UpdateMessage
from repro.bgp.mrai import ChannelParams
from repro.bgp.node import BGPNode
from repro.bgp.route import clear_intern_caches, stable_hash
from repro.errors import SimulationError
from repro.bgp.events import Delivery
from repro.obs.telemetry import current_telemetry
from repro.prefix.prefix import Prefix
from repro.sim.counters import UpdateCounter
from repro.sim.engine import DEFAULT_MAX_EVENTS, Engine
from repro.sim.trace import MonitorTrace
from repro.topology.graph import ASGraph


class SimNetwork:
    """A ready-to-run BGP network over a generated topology."""

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[BGPConfig] = None,
        *,
        seed: int = 0,
        telemetry=None,
        local_nodes: Optional[Iterable[int]] = None,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else BGPConfig()
        self.seed = seed
        self.engine = Engine()
        self.counter = UpdateCounter(graph.relationship)
        self.trace: Optional[MonitorTrace] = None
        self.delivered_messages = 0
        #: Content digest of ``graph``, filled in by the first checkpoint
        #: snapshot or restore so later snapshots of this network do not
        #: re-hash a topology that was fixed when the nodes were built.
        self.topology_digest: Optional[str] = None
        #: None for a whole-graph network; a frozen member set when this
        #: network simulates one partition of the graph.  Only members
        #: get a BGPNode; a transmit towards a non-member lands in
        #: :attr:`border_outbox` instead of the local event heap (the
        #: partitioned kernel ships it to the owning partition).
        self.local_nodes: Optional[FrozenSet[int]] = (
            frozenset(local_nodes) if local_nodes is not None else None
        )
        #: ``(sent_at, message)`` pairs bound for other partitions, in
        #: transmit order; drained at every window barrier.
        self.border_outbox: List[Tuple[float, UpdateMessage]] = []
        # The telemetry sink (ambient session unless passed explicitly)
        # times the engine's runs and reads :attr:`kernel_counts`; it
        # observes the run without influencing any RNG or event order.
        self.telemetry = telemetry if telemetry is not None else current_telemetry()
        self.engine.telemetry = self.telemetry
        #: What this network's nodes and channels did, counted where the
        #: work happens whether or not a hub reads it.
        self.kernel_counts = self.telemetry.new_counts()
        params = ChannelParams(self.config)
        self.nodes: Dict[int, BGPNode] = {}
        for node in graph.nodes():
            if self.local_nodes is not None and node.node_id not in self.local_nodes:
                continue
            # Per-node RNG streams are derived from (seed, node_id) alone,
            # so a partition member draws exactly the same randomness it
            # would in a whole-graph network — the basis of the
            # serial-vs-partitioned equivalence guarantee.
            # A bare ``_random.Random``: the same Mersenne-Twister stream
            # as ``random.Random`` without its per-instance dict.
            rng = _random.Random(stable_hash(seed, node.node_id))
            self.nodes[node.node_id] = BGPNode(
                node_id=node.node_id,
                node_type=node.node_type,
                neighbors=graph.neighbors(node.node_id),
                engine=self.engine,
                config=self.config,
                rng=rng,
                transmit=self._transmit,
                counts=self.kernel_counts,
                params=params,
            )

    # ------------------------------------------------------------------
    # Link layer
    # ------------------------------------------------------------------
    def _transmit(self, message: UpdateMessage, now: float) -> None:
        """Carry a message across a link: constant delay, then deliver."""
        if self.local_nodes is not None and message.receiver not in self.local_nodes:
            self.border_outbox.append((now, message))
            return
        self.engine.schedule(self.config.link_delay, Delivery(self, message))

    def inject_border(self, message: UpdateMessage, deliver_at: float) -> None:
        """Schedule a cross-partition message for local delivery.

        Called by the partitioned kernel at a window barrier with
        ``deliver_at = sent_at + link_delay`` — the same delivery time
        the serial kernel would have used.  Injection order is the
        caller's responsibility (the lockstep runner sorts border events
        canonically so every run assigns identical FIFO sequence
        numbers).
        """
        if message.receiver not in self.nodes:
            raise SimulationError(
                f"border message for {message.receiver}, which is not a "
                "member of this partition"
            )
        self.engine.schedule_at(deliver_at, Delivery(self, message))

    def drain_border_outbox(self) -> List[Tuple[float, UpdateMessage]]:
        """Return and clear the accumulated outbound border messages."""
        outbox = self.border_outbox
        self.border_outbox = []
        return outbox

    def _deliver(self, message: UpdateMessage) -> None:
        receiver_id = message.receiver
        receiver = self.nodes.get(receiver_id)
        if receiver is None:
            raise SimulationError(f"message to unknown node {receiver_id}")
        is_withdrawal = message.path is None
        self.delivered_messages += 1
        counts = self.kernel_counts
        counts.deliveries += 1
        if is_withdrawal:
            counts.delivery_withdrawals += 1
        if self.counter.enabled:
            self.counter.record(
                receiver_id, message.sender, is_withdrawal=is_withdrawal
            )
        if self.trace is not None and self.trace.watches(receiver_id):
            self.trace.record(
                self.engine.now,
                receiver_id,
                message.sender,
                is_withdrawal=is_withdrawal,
            )
        receiver.receive(message)

    # ------------------------------------------------------------------
    # High-level operations
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> BGPNode:
        """The BGP speaker for AS ``node_id``."""
        try:
            return self.nodes[node_id]
        except KeyError as exc:
            raise SimulationError(f"unknown node id {node_id}") from exc

    def originate(self, origin: int, prefix: Prefix) -> None:
        """Inject a locally-originated prefix at ``origin``."""
        self.node(origin).originate(prefix)

    def withdraw(self, origin: int, prefix: Prefix) -> None:
        """Withdraw a locally-originated prefix at ``origin``."""
        self.node(origin).withdraw_origin(prefix)

    def retire(self, prefix: Prefix) -> None:
        """Drop every node's state for ``prefix``, which is done with.

        Call once the network has converged on a prefix no operation will
        touch again (see :meth:`BGPNode.retire`).  Nothing is sent and no
        event is scheduled, so the rest of the run is unchanged.  The
        route and path intern tables are cleared as well: they are keyed
        by value, so the clear only gives up sharing, and what they would
        share is the retired prefix's routes (no route outlives its
        prefix, and paths end at the prefix's origin).
        """
        for node in self.nodes.values():
            node.retire(prefix)
        clear_intern_caches()

    def run_to_convergence(self, *, max_events: int = DEFAULT_MAX_EVENTS) -> float:
        """Drain all events (routing has converged); returns the sim time."""
        self.engine.run(max_events=max_events)
        return self.engine.now

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def start_counting(self) -> None:
        """Reset counters and begin a measurement phase."""
        self.counter.reset()
        self.counter.enabled = True

    def stop_counting(self) -> None:
        """Freeze counters (e.g. during warm-up announcements)."""
        self.counter.enabled = False

    def attach_monitors(self, monitors: List[int]) -> MonitorTrace:
        """Start tracing update arrivals at the given nodes.

        Returns the :class:`MonitorTrace`; replaces any previous trace.
        """
        for node_id in monitors:
            if node_id not in self.nodes:
                raise SimulationError(f"unknown monitor node {node_id}")
        self.trace = MonitorTrace(monitors)
        return self.trace

    def detach_monitors(self) -> None:
        """Stop tracing (the existing trace object remains readable)."""
        self.trace = None

    def nodes_with_route(self, prefix: Prefix) -> List[int]:
        """Ids of all nodes currently holding a route for ``prefix``."""
        return [
            node_id
            for node_id, node in self.nodes.items()
            if node.best_route(prefix) is not None
        ]
