"""The C-event experiment (Sec. 4): the paper's core measurement.

A *C-event* withdraws a prefix at a C-type stub, lets the network
converge, then re-announces the prefix and converges again.  The number of
update messages each node receives over the two phases is the churn metric
every figure of the paper is built from.

:func:`run_c_event_experiment` repeats the event for a sample of C-node
origins on one topology and returns per-type averages plus the full m/q/e
factor decomposition.

Phases per origin:

1. **warm-up** — the origin announces its prefix; convergence is simulated
   but not counted;
2. **settle** — the clock advances so all MRAI gates expire (each event
   starts from an idle-timer steady state);
3. **DOWN** — withdraw, converge, counted;
4. **UP** — re-announce, converge, counted.
"""

from __future__ import annotations

import dataclasses
import time as _time
from typing import Callable, Dict, List, Optional, Sequence

from repro.bgp.config import BGPConfig
from repro.core.factors import (
    FactorAccumulator,
    GraphSummary,
    RawFactorSums,
    TypeFactors,
    compute_all_type_factors,
)
from repro.errors import ExperimentError
from repro.obs.telemetry import current_telemetry
from repro.prefix.prefix import host_prefix
from repro.sim.engine import DEFAULT_MAX_EVENTS
from repro.sim.network import SimNetwork
from repro.sim.rng import derive_rng
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType


@dataclasses.dataclass(frozen=True)
class CEventStats:
    """Everything measured on one topology instance."""

    n: int
    scenario: str
    seed: int
    config: BGPConfig
    origins: List[int]
    per_type: Dict[NodeType, TypeFactors]
    #: average updates received per node per event, split by phase
    down_updates_per_type: Dict[NodeType, float]
    up_updates_per_type: Dict[NodeType, float]
    #: mean simulated seconds from event to convergence, per phase
    mean_down_convergence: float
    mean_up_convergence: float
    #: total messages delivered during measured phases
    measured_messages: int
    wall_clock_seconds: float

    def u(self, node_type: NodeType) -> float:
        """U(X): average updates per C-event at nodes of ``node_type``."""
        factors = self.per_type.get(node_type)
        return factors.u_total if factors is not None else 0.0

    def factors(self, node_type: NodeType) -> TypeFactors:
        """The full m/q/e decomposition for ``node_type``."""
        try:
            return self.per_type[node_type]
        except KeyError as exc:
            raise ExperimentError(f"no {node_type} nodes in this topology") from exc


def pick_origins(graph: ASGraph, how_many: int, seed: int) -> List[int]:
    """Sample C-node origins (falls back to CP nodes in C-less topologies)."""
    if how_many < 0:
        raise ExperimentError(f"number of origins must be >= 0, got {how_many}")
    pool = graph.nodes_of_type(NodeType.C)
    if not pool:
        pool = graph.nodes_of_type(NodeType.CP)
    if not pool:
        raise ExperimentError("topology has no stub nodes to originate events")
    rng = derive_rng(seed, 0xC0FFEE)
    if how_many >= len(pool):
        return list(pool)
    return sorted(rng.sample(pool, how_many))


@dataclasses.dataclass(frozen=True)
class CEventBatchResult:
    """One origin batch's raw measurements on one topology.

    Picklable and mergeable: a batch is the unit of work the parallel
    sweep executor ships between processes.  All numeric fields are sums
    (over events and nodes), so :func:`merge_c_event_batches` combines
    disjoint batches of the same topology without any loss — the averages
    in :class:`CEventStats` are only formed after the merge.
    """

    summary: GraphSummary
    config: BGPConfig
    seed: int
    origins: List[int]
    raw: RawFactorSums
    down_totals: Dict[NodeType, float]
    up_totals: Dict[NodeType, float]
    down_convergence: float
    up_convergence: float
    measured_messages: int
    wall_clock_seconds: float

    @property
    def events(self) -> int:
        """Number of C-events measured in this batch."""
        return self.raw.events


@dataclasses.dataclass
class BatchCursor:
    """Resumable position inside :func:`run_c_event_batch`.

    Captures every piece of loop state the measurement accumulates, at the
    boundary between two origins (the network's event heap is empty there:
    each phase runs to convergence before the next origin starts).  The
    checkpoint subsystem snapshots a cursor after each measured event and
    can hand a rebuilt one back to :func:`run_c_event_batch` to continue
    the batch byte-identically.

    ``prior_wall_clock`` carries the elapsed time of earlier (interrupted)
    runs of the same batch; ``started`` is the monotonic time of the
    current loop (re-)entry.  Wall-clock time is the one deliberately
    non-reproducible field of a batch result.
    """

    network: Optional[SimNetwork]
    accumulator: FactorAccumulator
    next_index: int
    down_totals: Dict[NodeType, float]
    up_totals: Dict[NodeType, float]
    down_convergence: float
    up_convergence: float
    measured_messages: int
    prior_wall_clock: float = 0.0
    started: float = 0.0

    def elapsed(self) -> float:
        """Total wall-clock seconds spent on this batch across runs."""
        return self.prior_wall_clock + (_time.monotonic() - self.started)


def new_batch_cursor(
    graph: ASGraph,
    config: BGPConfig,
    *,
    origins: Sequence[int],
    seed: int,
) -> BatchCursor:
    """A cursor at the start of a fresh batch (event 0, zero sums)."""
    return BatchCursor(
        network=SimNetwork(graph, config, seed=seed) if origins else None,
        accumulator=FactorAccumulator(graph),
        next_index=0,
        down_totals={t: 0.0 for t in NodeType},
        up_totals={t: 0.0 for t in NodeType},
        down_convergence=0.0,
        up_convergence=0.0,
        measured_messages=0,
    )


def run_c_event_batch(
    graph: ASGraph,
    config: Optional[BGPConfig] = None,
    *,
    origins: Sequence[int],
    seed: int = 0,
    settle_factor: float = 2.0,
    max_events: int = DEFAULT_MAX_EVENTS,
    cursor: Optional[BatchCursor] = None,
    after_event: Optional[Callable[[BatchCursor], None]] = None,
) -> CEventBatchResult:
    """Measure one batch of C-event origins on a fresh network.

    An empty batch is legal (it contributes zero events to a merge); this
    happens when a topology yields fewer origins than the batching
    expected.

    ``cursor`` resumes a previously interrupted batch from the state
    captured in a :class:`BatchCursor` (origins before ``next_index`` are
    skipped); ``after_event`` is invoked with the live cursor after every
    measured origin — the checkpoint hook.  Neither affects the measured
    numbers: a resumed batch produces the same result as an uninterrupted
    one.
    """
    config = config if config is not None else BGPConfig()
    origin_list = list(origins)
    for origin in origin_list:
        if origin not in graph:
            raise ExperimentError(f"origin {origin} not in topology")

    if cursor is None:
        cursor = new_batch_cursor(graph, config, origins=origin_list, seed=seed)
    cursor.started = _time.monotonic()
    settle = settle_factor * config.mrai if config.mrai > 0 else 1.0
    accumulator = cursor.accumulator
    network = cursor.network
    obs = current_telemetry()

    for index in range(cursor.next_index, len(origin_list)):
        origin = origin_list[index]
        # One fresh prefix per origin keeps state disjoint; the /32 host
        # prefixes sort exactly like the bare event indices they replaced,
        # so fixed-seed trajectories are unchanged.
        prefix = host_prefix(index)
        # Warm-up: announce the prefix, converge, let MRAI gates expire.
        with obs.phase("warmup", network.engine):
            network.stop_counting()
            network.originate(origin, prefix)
            network.run_to_convergence(max_events=max_events)
            network.engine.run(until=network.engine.now + settle)

        with obs.phase("measured", network.engine):
            # DOWN: withdraw and converge, counted.
            network.start_counting()
            event_start = network.engine.now
            network.withdraw(origin, prefix)
            network.run_to_convergence(max_events=max_events)
            cursor.down_convergence += network.engine.now - event_start
            down = accumulator.type_totals(network.counter)
            network.engine.run(until=network.engine.now + settle)

            # UP: re-announce and converge, still counted (same counter run).
            event_start = network.engine.now
            network.originate(origin, prefix)
            network.run_to_convergence(max_events=max_events)
            cursor.up_convergence += network.engine.now - event_start
            both = accumulator.type_totals(network.counter)
            # Whole numbers: adding a type's total at once gives the
            # float that adding node by node gave.
            for node_type, down_count, count in zip(NodeType, down, both):
                cursor.down_totals[node_type] += down_count
                cursor.up_totals[node_type] += count - down_count
            cursor.measured_messages += network.counter.total

        accumulator.add_event(network.counter)
        network.stop_counting()
        # Measured and converged: the prefix is never touched again, so
        # its state goes now and a batch's memory stays flat in its
        # origin count.
        network.retire(prefix)
        cursor.next_index = index + 1
        if after_event is not None:
            after_event(cursor)

    return CEventBatchResult(
        summary=accumulator.summary,
        config=config,
        seed=seed,
        origins=origin_list,
        raw=accumulator.raw_sums(),
        down_totals=cursor.down_totals,
        up_totals=cursor.up_totals,
        down_convergence=cursor.down_convergence,
        up_convergence=cursor.up_convergence,
        measured_messages=cursor.measured_messages,
        wall_clock_seconds=cursor.elapsed(),
    )


def merge_c_event_batches(
    batches: Sequence[CEventBatchResult], *, seed: Optional[int] = None
) -> CEventStats:
    """Combine origin batches of one topology into a :class:`CEventStats`.

    Batches must be passed in a fixed, deterministic order (the sweep
    executor uses batch-index order): the float sums below are then
    reproducible regardless of which process produced each batch.  For a
    single batch the result is bit-identical to the historical unbatched
    implementation.
    """
    if not batches:
        raise ExperimentError("no batches to merge")
    summary = batches[0].summary
    config = batches[0].config
    for batch in batches[1:]:
        if batch.summary.node_ids != summary.node_ids:
            raise ExperimentError("cannot merge batches of different topologies")
        if batch.config != config:
            raise ExperimentError("cannot merge batches with different configs")

    raw = RawFactorSums.zeros(summary.node_ids)
    origin_list: List[int] = []
    down_totals: Dict[NodeType, float] = {t: 0.0 for t in NodeType}
    up_totals: Dict[NodeType, float] = {t: 0.0 for t in NodeType}
    down_convergence = 0.0
    up_convergence = 0.0
    measured_messages = 0
    wall_clock = 0.0
    for batch in batches:
        raw.absorb(batch.raw)
        origin_list.extend(batch.origins)
        for node_type in NodeType:
            down_totals[node_type] += batch.down_totals[node_type]
            up_totals[node_type] += batch.up_totals[node_type]
        down_convergence += batch.down_convergence
        up_convergence += batch.up_convergence
        measured_messages += batch.measured_messages
        wall_clock += batch.wall_clock_seconds

    events = raw.events
    if events == 0:
        raise ExperimentError("no origins to run")
    type_counts = summary.type_counts()
    return CEventStats(
        n=len(summary),
        scenario=summary.scenario,
        seed=seed if seed is not None else batches[0].seed,
        config=config,
        origins=origin_list,
        per_type=compute_all_type_factors(summary, raw),
        down_updates_per_type={
            t: down_totals[t] / (events * type_counts[t]) if type_counts[t] else 0.0
            for t in NodeType
        },
        up_updates_per_type={
            t: up_totals[t] / (events * type_counts[t]) if type_counts[t] else 0.0
            for t in NodeType
        },
        mean_down_convergence=down_convergence / events,
        mean_up_convergence=up_convergence / events,
        measured_messages=measured_messages,
        wall_clock_seconds=wall_clock,
    )


def run_c_event_experiment(
    graph: ASGraph,
    config: Optional[BGPConfig] = None,
    *,
    origins: Optional[Sequence[int]] = None,
    num_origins: int = 100,
    seed: int = 0,
    settle_factor: float = 2.0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> CEventStats:
    """Run the paper's C-event measurement on one topology.

    ``origins`` overrides the sampled origin set; ``settle_factor`` scales
    the inter-phase idle gap in units of the MRAI interval (2 × MRAI lets
    every jittered gate expire before the next phase starts).

    Implemented as a single origin batch, so it shares the measurement
    loop with the parallel sweep executor while keeping the historical
    single-network behaviour (and exact numbers) of the serial code path.
    """
    config = config if config is not None else BGPConfig()
    if origins is None:
        origin_list = pick_origins(graph, num_origins, seed)
    else:
        origin_list = list(origins)
    if not origin_list:
        raise ExperimentError("no origins to run")
    batch = run_c_event_batch(
        graph,
        config,
        origins=origin_list,
        seed=seed,
        settle_factor=settle_factor,
        max_events=max_events,
    )
    return merge_c_event_batches([batch], seed=seed)
