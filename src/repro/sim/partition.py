"""Graph-partitioned execution of one simulation (conservative lockstep).

The serial kernel runs a whole :class:`~repro.sim.network.SimNetwork`
on one event heap.  This module runs the *same* simulation as K
partition members — each a :class:`SimNetwork` over the full graph but
instantiating only its member nodes — advancing in **conservative time
windows**:

* the constant link propagation delay is the *lookahead*: a message
  transmitted at time ``t`` cannot be delivered before ``t +
  link_delay``, so every member may safely execute all events in the
  window ``[B, B + link_delay]`` (``B`` = the earliest pending event
  anywhere) without hearing from the others;
* at the window barrier, messages that crossed a partition boundary
  (**border events**) are exchanged and injected into the owning
  member's heap at exactly the delivery time the serial kernel would
  have used;
* border events are injected in a canonical sort order, so the FIFO
  tie-break sequence numbers — and therefore the execution — are
  reproducible run-to-run.

Equivalence to the serial kernel
--------------------------------

Per-node RNG streams are derived from ``(seed, node_id)`` alone, and a
node's behaviour depends only on the *arrival order* of its deliveries,
so the partitioned run is update-for-update identical to the serial run
whenever same-timestamp deliveries at one node commute.  Ties between a
border and a local delivery at the same node and the same float
timestamp are the only place the two kernels can order events
differently, and with continuous (jittered) service times and MRAI
timers such ties occur with probability zero; the property suite in
``tests/sim/test_partition_property.py`` exercises this commutation
over randomized cut placements, and the fixed-seed equivalence tests
pin exact churn equality.  See ``docs/ARCHITECTURE.md`` for the full
argument.

Every member runs in this process (:class:`LocalPart`);
``repro-bgp simulate --partitions K`` is the command-line entry.
"""

from __future__ import annotations

import dataclasses
import heapq
import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.config import BGPConfig
from repro.bgp.messages import UpdateMessage
from repro.core.cevent import CEventBatchResult, merge_c_event_batches, pick_origins
from repro.core.factors import FactorAccumulator
from repro.errors import ExperimentError, SimulationError
from repro.obs.telemetry import current_telemetry
from repro.prefix.prefix import Prefix, host_prefix
from repro.sim.counters import UpdateCounter
from repro.sim.network import SimNetwork
from repro.topology.graph import ASGraph
from repro.topology.partition import GraphPartition, partition_graph
from repro.topology.types import NodeType


@dataclasses.dataclass(frozen=True)
class BorderEvent:
    """One BGP update crossing a partition boundary.

    ``deliver_at`` is always ``sent_at + link_delay`` — computed at the
    sending side so the receiving member schedules the delivery at
    exactly the time the serial kernel would have.
    """

    sent_at: float
    deliver_at: float
    sender: int
    receiver: int
    prefix: Prefix
    #: AS path as sent on the wire; ``None`` marks a withdrawal.
    path: Optional[Tuple[int, ...]]

    def sort_key(self) -> tuple:
        """Canonical injection order (deterministic FIFO sequencing)."""
        return (
            self.deliver_at,
            self.sent_at,
            self.sender,
            self.receiver,
            self.path is None,
            self.prefix,
        )

    def to_message(self) -> UpdateMessage:
        return UpdateMessage(
            sender=self.sender,
            receiver=self.receiver,
            prefix=self.prefix,
            path=self.path,
        )

    @classmethod
    def from_transmit(
        cls, sent_at: float, message: UpdateMessage, link_delay: float
    ) -> "BorderEvent":
        return cls(
            sent_at=sent_at,
            deliver_at=sent_at + link_delay,
            sender=message.sender,
            receiver=message.receiver,
            prefix=message.prefix,
            path=message.path,
        )


@dataclasses.dataclass(frozen=True)
class PartReport:
    """What a member reports back after executing one command."""

    #: the member engine's clock (time of its last executed event, or
    #: the barrier it was snapped to)
    now: float
    #: time of the member's earliest live pending event (None = idle)
    next_event_at: Optional[float]
    #: border messages transmitted since the last drain, in send order
    outbox: List[BorderEvent]


class LocalPart:
    """One in-process partition member: a :class:`SimNetwork` holding
    only its member nodes, driven by :meth:`call`."""

    def __init__(
        self,
        graph: ASGraph,
        config: BGPConfig,
        *,
        members: Sequence[int],
        seed: int,
        part_index: int,
    ) -> None:
        self.part_index = part_index
        self.network = SimNetwork(
            graph, config, seed=seed, local_nodes=members
        )

    def call(self, op: str, **kwargs: object) -> object:
        """Execute one lockstep command; most return a :class:`PartReport`."""
        network = self.network
        engine = network.engine
        if op == "window":
            for event in kwargs["inbox"]:
                network.inject_border(event.to_message(), event.deliver_at)
            engine.run_events_until(float(kwargs["until"]))
        elif op == "snap":
            engine.run(until=float(kwargs["at"]))
        elif op == "originate":
            network.originate(int(kwargs["node"]), kwargs["prefix"])
        elif op == "withdraw":
            network.withdraw(int(kwargs["node"]), kwargs["prefix"])
        elif op == "count":
            if kwargs["enabled"]:
                network.start_counting()
            else:
                network.stop_counting()
        elif op == "collect":
            return network.counter, network.delivered_messages
        else:
            raise SimulationError(f"unknown partition command {op!r}")
        return self._report()

    def _report(self) -> PartReport:
        network = self.network
        outbox = [
            BorderEvent.from_transmit(sent_at, message, network.config.link_delay)
            for sent_at, message in network.drain_border_outbox()
        ]
        return PartReport(
            now=network.engine.now,
            next_event_at=network.engine.peek_next_time(),
            outbox=outbox,
        )


class LockstepRunner:
    """Drive K partition members through conservative time windows.

    The runner owns the global clock and the in-flight border events;
    members only ever see "execute everything up to this barrier" plus
    the border events due inside that window.  Commands run on the
    members one after another, in member order.
    """

    def __init__(
        self,
        partition: GraphPartition,
        parts: Sequence[LocalPart],
        *,
        link_delay: float,
        telemetry=None,
    ) -> None:
        if len(parts) != partition.num_parts:
            raise SimulationError(
                f"{partition.num_parts} partitions but {len(parts)} members"
            )
        if link_delay <= 0:
            raise SimulationError(
                "partitioned execution needs link_delay > 0 (the link "
                "delay is the conservative lookahead)"
            )
        self.partition = partition
        self.parts = list(parts)
        self.link_delay = link_delay
        self.now = 0.0
        self._part_next: List[Optional[float]] = [None] * len(parts)
        #: in-flight border events as (sort_key, arrival, event) heap
        #: entries — the arrival counter only breaks exact key ties so the
        #: heap never has to compare two BorderEvent objects.
        self._pending: List[tuple] = []
        self._pending_seq = 0
        self._obs = telemetry if telemetry is not None else current_telemetry()
        # cumulative stats (exposed for telemetry / CLI reporting)
        self.windows = 0
        self.border_events = 0

    # -- barrier plumbing -------------------------------------------------
    def _broadcast(self, op: str, **kwargs: object) -> None:
        """Run one command on every member, absorbing each report."""
        for index, part in enumerate(self.parts):
            self._absorb(index, part.call(op, **kwargs))

    def _absorb(self, index: int, report: PartReport) -> None:
        self._part_next[index] = report.next_event_at
        for event in report.outbox:
            heapq.heappush(
                self._pending, (event.sort_key(), self._pending_seq, event)
            )
            self._pending_seq += 1
        self.border_events += len(report.outbox)

    def _earliest(self) -> Optional[float]:
        times = [t for t in self._part_next if t is not None]
        if self._pending:
            times.append(self._pending[0][2].deliver_at)
        return min(times) if times else None

    def _pop_due(self, until: float) -> List[List[BorderEvent]]:
        """Border events due by ``until``, routed per part, in sort order."""
        inboxes: List[List[BorderEvent]] = [[] for _ in self.parts]
        while self._pending and self._pending[0][2].deliver_at <= until:
            _key, _seq, event = heapq.heappop(self._pending)
            inboxes[self.partition.part_of(event.receiver)].append(event)
        return inboxes

    # -- the lockstep loop ------------------------------------------------
    def advance(self, until: Optional[float] = None) -> None:
        """Execute all events up to ``until`` (None = run to convergence).

        With a horizon, every member's clock is finally *snapped* to it,
        mirroring the serial kernel's ``run(until=...)`` semantics; at
        convergence the global clock lands on the last executed event,
        mirroring a serial drain.
        """
        while True:
            barrier = self._earliest()
            if barrier is None or (until is not None and barrier > until):
                break
            window_end = barrier + self.link_delay
            if until is not None and window_end > until:
                window_end = until
            inboxes = self._pop_due(window_end)
            for index, part in enumerate(self.parts):
                report = part.call("window", until=window_end, inbox=inboxes[index])
                self._absorb(index, report)
                if report.now > self.now:
                    self.now = report.now
            self.windows += 1
        if until is not None:
            self.snap(until)

    def converge(self) -> None:
        """Run to global convergence, then align member clocks on it.

        The serial kernel's clock ends a convergence run at the last
        executed event; the partitioned global clock is the max over the
        members' last events, and the snap puts every member there so
        the next injected operation (withdraw / re-announce) happens at
        the same timestamp as in a serial run.
        """
        self.advance(None)
        self.snap(self.now)

    def snap(self, at: float) -> None:
        """Advance every member's clock to ``at`` (no events may remain)."""
        self._broadcast("snap", at=at)
        self.now = at

    # -- member operations ------------------------------------------------
    def apply(self, op: str, node_id: int, prefix: Prefix) -> None:
        """Originate/withdraw at the member owning ``node_id``."""
        index = self.partition.part_of(node_id)
        report = self.parts[index].call(op, node=node_id, prefix=prefix)
        self._absorb(index, report)

    def set_counting(self, enabled: bool) -> None:
        self._broadcast("count", enabled=enabled)

    def collect_counters(self) -> Tuple[UpdateCounter, int]:
        """Merged measurement plane: one counter over all members.

        Per-key counts merge without collisions (a receiver lives in
        exactly one partition), and every downstream consumer folds
        integer counts into sums, so merge order cannot affect any
        derived statistic.
        """
        merged = UpdateCounter()
        delivered = 0
        for part in self.parts:
            counter, part_delivered = part.call("collect")
            delivered += part_delivered
            merged.merge(counter)
        return merged, delivered

    def report_telemetry(self) -> None:
        """Publish the run's synchronization stats as telemetry gauges."""
        if not self._obs.enabled:
            return
        self._obs.inc("partition.windows", self.windows)
        self._obs.inc("partition.border_events", self.border_events)


def build_local_parts(
    graph: ASGraph,
    partition: GraphPartition,
    config: BGPConfig,
    *,
    seed: int,
) -> List[LocalPart]:
    """One in-process member per partition."""
    return [
        LocalPart(
            graph,
            config,
            members=sorted(partition.members(part)),
            seed=seed,
            part_index=part,
        )
        for part in range(partition.num_parts)
    ]


def run_partitioned_c_event_batch(
    graph: ASGraph,
    partition: GraphPartition,
    config: Optional[BGPConfig] = None,
    *,
    origins: Sequence[int],
    seed: int = 0,
    settle_factor: float = 2.0,
    runner: Optional[LockstepRunner] = None,
) -> CEventBatchResult:
    """The C-event measurement, executed graph-partitioned.

    Mirrors :func:`repro.core.cevent.run_c_event_batch` phase for phase
    (warm-up, settle, measured DOWN, settle, measured UP) with the
    lockstep runner standing in for the single engine.  Returns a
    :class:`CEventBatchResult` whose churn statistics match the serial
    kernel's exactly on tie-free trajectories (see the module
    docstring).

    ``runner`` lets a caller keep the lockstep runner to read its
    statistics afterwards; by default one is built here.
    """
    config = config if config is not None else BGPConfig()
    origin_list = list(origins)
    for origin in origin_list:
        if origin not in graph:
            raise ExperimentError(f"origin {origin} not in topology")
    if runner is None:
        runner = LockstepRunner(
            partition,
            build_local_parts(graph, partition, config, seed=seed),
            link_delay=config.link_delay,
        )

    started = _time.monotonic()
    settle = settle_factor * config.mrai if config.mrai > 0 else 1.0
    accumulator = FactorAccumulator(graph)
    down_totals: Dict[NodeType, float] = {t: 0.0 for t in NodeType}
    up_totals: Dict[NodeType, float] = {t: 0.0 for t in NodeType}
    down_convergence = 0.0
    up_convergence = 0.0
    measured_messages = 0
    obs = current_telemetry()

    for index, origin in enumerate(origin_list):
        prefix = host_prefix(index)
        # Warm-up: announce, converge, let MRAI gates expire.
        with obs.phase("warmup"):
            runner.set_counting(False)
            runner.apply("originate", origin, prefix)
            runner.converge()
            runner.advance(runner.now + settle)

        with obs.phase("measured"):
            # DOWN: withdraw and converge, counted.
            runner.set_counting(True)
            event_start = runner.now
            runner.apply("withdraw", origin, prefix)
            runner.converge()
            down_convergence += runner.now - event_start
            counter, _delivered = runner.collect_counters()
            down = accumulator.type_totals(counter)
            runner.advance(runner.now + settle)

            # UP: re-announce and converge, still counted.
            event_start = runner.now
            runner.apply("originate", origin, prefix)
            runner.converge()
            up_convergence += runner.now - event_start
            counter, _delivered = runner.collect_counters()
            for node_type, down_count, count in zip(
                NodeType, down, accumulator.type_totals(counter)
            ):
                down_totals[node_type] += down_count
                up_totals[node_type] += count - down_count
            measured_messages += counter.total

        accumulator.add_event(counter)
        runner.set_counting(False)

    runner.report_telemetry()
    return CEventBatchResult(
        summary=accumulator.summary,
        config=config,
        seed=seed,
        origins=origin_list,
        raw=accumulator.raw_sums(),
        down_totals=down_totals,
        up_totals=up_totals,
        down_convergence=down_convergence,
        up_convergence=up_convergence,
        measured_messages=measured_messages,
        wall_clock_seconds=_time.monotonic() - started,
    )


def run_partitioned_c_event_experiment(
    graph: ASGraph,
    config: Optional[BGPConfig] = None,
    *,
    num_parts: int = 2,
    partition: Optional[GraphPartition] = None,
    origins: Optional[Sequence[int]] = None,
    num_origins: int = 10,
    seed: int = 0,
    settle_factor: float = 2.0,
):
    """Partitioned counterpart of :func:`~repro.core.cevent.run_c_event_experiment`.

    Samples origins identically to the serial experiment (same seed →
    same origin set), runs the partitioned batch, and merges it into a
    :class:`~repro.core.cevent.CEventStats`.
    """
    config = config if config is not None else BGPConfig()
    if partition is None:
        partition = partition_graph(graph, num_parts)
    if origins is None:
        origin_list = pick_origins(graph, num_origins, seed)
    else:
        origin_list = list(origins)
    if not origin_list:
        raise ExperimentError("no origins to run")
    batch = run_partitioned_c_event_batch(
        graph,
        partition,
        config,
        origins=origin_list,
        seed=seed,
        settle_factor=settle_factor,
    )
    return merge_c_event_batches([batch], seed=seed)
