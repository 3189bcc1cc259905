"""Continuous churn workloads: streams of C-events over simulated time.

The per-event measurements of :mod:`repro.core.cevent` answer "how many
updates does one event cause"; this module answers the operational
question behind the paper's Fig. 1 and burstiness motivation: "what
update *rate* does a monitor see when events keep arriving".

A workload is a Poisson stream of C-events (withdraw, exponential
downtime, re-announce) over the C-stub population.  The runner announces
every origin's prefix once, lets the network settle, then injects the
event stream while tracing arrivals at designated monitor nodes, from
which rate series and peak-to-mean burstiness are derived
(:mod:`repro.sim.trace`).

:func:`replay_churn` is that announce–settle–replay loop, and the one
both this runner and the multi-prefix driver
(:mod:`repro.core.prefix_churn`) play their event streams through.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.bgp.config import BGPConfig
from repro.errors import ExperimentError, ParameterError
from repro.prefix.prefix import Prefix, host_prefix
from repro.prefix.workload import DEAGGREGATE, FLAP, REAGGREGATE, PrefixEvent
from repro.sim.engine import DEFAULT_MAX_EVENTS
from repro.sim.network import SimNetwork
from repro.sim.rng import derive_rng
from repro.sim.trace import BurstinessReport, MonitorTrace
from repro.topology.graph import ASGraph
from repro.topology.types import NodeType


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a (possibly clustered) Poisson C-event stream.

    Real BGP churn is not a smooth Poisson process: a misbehaving session
    flaps its prefix repeatedly in a short window (the paper's Sec.-1
    burstiness, Labovitz's pathologies).  Each Poisson arrival therefore
    triggers, with probability ``storm_probability``, a *storm*: a
    geometric number of extra flaps of the same prefix in quick
    succession.
    """

    #: length of the injection window, in simulated seconds
    duration: float = 3600.0
    #: mean C-events per simulated second (Poisson arrivals)
    event_rate: float = 0.05
    #: mean prefix downtime before re-announcement (exponential)
    mean_downtime: float = 120.0
    #: number of distinct origin stubs participating (0 = all C nodes)
    origin_pool: int = 0
    #: probability that an arrival escalates into a flap storm
    storm_probability: float = 0.1
    #: mean number of *extra* flaps in a storm (geometric)
    storm_size_mean: float = 8.0
    #: mean gap between storm flaps (exponential; short = bursty)
    storm_gap: float = 90.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ParameterError(f"duration must be positive, got {self.duration}")
        if self.event_rate <= 0:
            raise ParameterError(f"event_rate must be positive, got {self.event_rate}")
        if self.mean_downtime <= 0:
            raise ParameterError(
                f"mean_downtime must be positive, got {self.mean_downtime}"
            )
        if self.origin_pool < 0:
            raise ParameterError("origin_pool must be >= 0")
        if not 0.0 <= self.storm_probability <= 1.0:
            raise ParameterError("storm_probability must be in [0, 1]")
        if self.storm_size_mean < 0:
            raise ParameterError("storm_size_mean must be >= 0")
        if self.storm_gap <= 0:
            raise ParameterError("storm_gap must be positive")


def generate_poisson_workload(
    graph: ASGraph, spec: WorkloadSpec, *, seed: int = 0
) -> List[PrefixEvent]:
    """Draw the event stream (deterministic for a given seed).

    Every event is a ``FLAP``: withdraw at ``time``, restore after
    ``downtime``.  Origins are sampled uniformly from the participating
    stub pool; each origin keeps a single prefix for the whole workload,
    so two events on the same origin are a repeated flap of the same
    prefix.
    """
    pool = graph.nodes_of_type(NodeType.C) or graph.nodes_of_type(NodeType.CP)
    if not pool:
        raise ExperimentError("topology has no stub nodes to flap")
    rng = derive_rng(seed, 0x3070AD)
    if spec.origin_pool and spec.origin_pool < len(pool):
        pool = sorted(rng.sample(pool, spec.origin_pool))
    # /32 host prefixes keyed by origin rank; they sort exactly like the
    # bare indices they replaced, so fixed-seed trajectories are unchanged.
    prefix_of = {origin: host_prefix(index) for index, origin in enumerate(pool)}
    events: List[PrefixEvent] = []

    def add_event(at: float, origin: int, downtime: float) -> None:
        events.append(PrefixEvent(at, origin, prefix_of[origin], FLAP, downtime))

    clock = 0.0
    while True:
        clock += rng.expovariate(spec.event_rate)
        if clock >= spec.duration:
            break
        origin = pool[rng.randrange(len(pool))]
        add_event(clock, origin, rng.expovariate(1.0 / spec.mean_downtime))
        if spec.storm_probability > 0 and rng.random() < spec.storm_probability:
            # a flap storm: the same prefix keeps flapping in quick
            # succession with short downtimes
            extra = _geometric(spec.storm_size_mean, rng)
            at = clock
            for _ in range(extra):
                at += rng.expovariate(1.0 / spec.storm_gap)
                if at >= spec.duration:
                    break
                add_event(
                    at, origin, rng.expovariate(2.0 / spec.storm_gap)
                )
    events.sort(key=lambda event: event.time)
    return events


def _geometric(mean: float, rng) -> int:
    """Geometric draw with the given mean (0 allowed)."""
    if mean <= 0:
        return 0
    p = 1.0 / (1.0 + mean)
    count = 0
    while rng.random() > p:
        count += 1
    return count


@dataclasses.dataclass(frozen=True)
class WorkloadResult:
    """Outcome of one workload run."""

    n: int
    scenario: str
    spec: WorkloadSpec
    monitors: List[int]
    #: events whose withdrawal actually fired (prefix was up)
    events_executed: int
    #: events skipped because the prefix was still down when they fired
    events_skipped: int
    #: total updates delivered network-wide during the measurement window
    total_updates: int
    #: simulated time spent in the measurement window
    measured_duration: float
    trace: MonitorTrace

    def monitor_rate(self, node_id: int) -> float:
        """Mean updates/second seen by one monitor."""
        if self.measured_duration <= 0:
            return 0.0
        return len(self.trace.updates(node_id)) / self.measured_duration

    def burstiness(self, node_id: int, bin_width: float = 60.0) -> BurstinessReport:
        """Peak-to-mean report for one monitor."""
        return self.trace.burstiness(bin_width, node_id=node_id)

    def rate_series(self, bin_width: float) -> List[float]:
        """Monitor-side update rate per ``bin_width`` bin, all monitors.

        Raises :class:`ExperimentError` when the arrivals span fewer than
        half the bins the injection window holds: too little churn to
        analyse.
        """
        series = [rate for _, rate in self.trace.rate_series(bin_width)]
        expected = self.spec.duration / bin_width
        if len(series) < expected / 2:
            raise ExperimentError(
                f"workload produced only {len(series)} rate bins "
                f"(wanted ~{expected:.0f}); too little churn to analyse"
            )
        return series


def rate_bin_width(duration: float, bins: int, config: BGPConfig) -> float:
    """Rate-bin width: ``duration / bins``, but never under 4 MRAI rounds.

    MRAI batching makes monitor arrivals periodic at the MRAI timescale;
    bins narrower than a few rounds inherit that as bin-to-bin
    correlation, which the estimators would misread as long memory.
    Keeping bins ≥ 4·MRAI pushes the batching below bin resolution, so
    the estimators see the *event process*, not the rate limiter.
    """
    return max(duration / bins, 4.0 * config.mrai)


def default_monitors(graph: ASGraph) -> List[int]:
    """A T-node and an M-node vantage point (highest-degree of each)."""
    monitors: List[int] = []
    for node_type in (NodeType.T, NodeType.M):
        nodes = graph.nodes_of_type(node_type)
        if nodes:
            monitors.append(max(nodes, key=graph.degree))
    if not monitors:
        raise ExperimentError("topology has no transit nodes to monitor")
    return monitors


@dataclasses.dataclass(frozen=True)
class ChurnWindow:
    """What the counted window of one :func:`replay_churn` saw."""

    #: events that mutated origin state when they fired
    executed: int
    #: events absorbed because the prefix was down/split when they fired
    absorbed: int
    #: simulated time from the window's start to convergence
    duration: float
    #: arrivals at the monitors (None when none were attached)
    trace: Optional[MonitorTrace]


def replay_churn(
    network: SimNetwork,
    originations: Iterable[Tuple[int, Prefix]],
    events: Sequence[PrefixEvent],
    *,
    max_events: int = DEFAULT_MAX_EVENTS,
    monitors: Optional[Sequence[int]] = None,
    reset_decisions: bool = False,
) -> ChurnWindow:
    """Play ``events`` against ``network`` inside a counted window.

    Warm-up, uncounted: every ``(origin, prefix)`` of ``originations``
    is announced in order, the network converges, and the clock settles
    past the MRAI gates.  Then the window opens — counters reset and
    enabled, ``monitors`` traced, and with ``reset_decisions`` every
    node's decision counters zeroed so they count the churn alone — and
    each event fires at the window's start plus its ``time``.  A
    ``FLAP`` withdraws a prefix and re-announces it ``downtime`` later;
    a ``DEAGGREGATE`` replaces a prefix by its two children and a
    ``REAGGREGATE`` puts it back.  An event whose prefix is not in the
    state it expects is absorbed.  The window closes at convergence.
    """
    network.stop_counting()
    for origin, prefix in originations:
        network.originate(origin, prefix)
    network.run_to_convergence(max_events=max_events)
    config = network.config
    settle = 2.0 * config.mrai if config.mrai > 0 else 1.0
    engine = network.engine
    engine.run(until=engine.now + settle)

    if reset_decisions:
        for node in network.nodes.values():
            node.decisions_run = 0
            node.decisions_skipped = 0
    network.start_counting()
    if monitors is not None:
        network.attach_monitors(list(monitors))
    start = engine.now
    executed = 0
    absorbed = 0

    def fire(event: PrefixEvent) -> None:
        nonlocal executed, absorbed
        node = network.node(event.origin)
        if event.kind == FLAP:
            if not node.originates(event.prefix):
                absorbed += 1  # still down from an earlier flap
                return
            executed += 1
            node.withdraw_origin(event.prefix)
            engine.schedule(event.downtime, lambda: _restore(event.origin, event.prefix))
        elif event.kind == DEAGGREGATE:
            if not node.originates(event.prefix):
                absorbed += 1
                return
            executed += 1
            low, high = event.prefix.children()
            node.withdraw_origin(event.prefix)
            node.originate(low)
            node.originate(high)
        elif event.kind == REAGGREGATE:
            low, high = event.prefix.children()
            if not (node.originates(low) and node.originates(high)):
                absorbed += 1  # the matching deaggregation never fired
                return
            executed += 1
            node.withdraw_origin(low)
            node.withdraw_origin(high)
            node.originate(event.prefix)
        else:  # pragma: no cover - the generators emit only the three kinds
            raise ExperimentError(f"unknown prefix event kind {event.kind!r}")

    def _restore(origin: int, prefix: Prefix) -> None:
        node = network.node(origin)
        if not node.originates(prefix):
            node.originate(prefix)

    for event in events:
        engine.schedule_at(start + event.time, lambda e=event: fire(e))
    network.run_to_convergence(max_events=max_events)
    duration = engine.now - start
    network.stop_counting()
    trace = network.trace
    network.detach_monitors()
    return ChurnWindow(executed, absorbed, duration, trace)


def run_workload(
    graph: ASGraph,
    spec: Optional[WorkloadSpec] = None,
    config: Optional[BGPConfig] = None,
    *,
    monitors: Optional[Sequence[int]] = None,
    seed: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> WorkloadResult:
    """Run a Poisson C-event workload and measure monitor-side churn."""
    spec = spec if spec is not None else WorkloadSpec()
    config = config if config is not None else BGPConfig()
    monitor_list = list(monitors) if monitors is not None else default_monitors(graph)

    network = SimNetwork(graph, config, seed=seed)
    events = generate_poisson_workload(graph, spec, seed=seed)
    prefix_of = {event.origin: event.prefix for event in events}
    window = replay_churn(
        network,
        [(origin, prefix_of[origin]) for origin in sorted(prefix_of)],
        events,
        max_events=max_events,
        monitors=monitor_list,
    )
    return WorkloadResult(
        n=len(graph),
        scenario=graph.scenario,
        spec=spec,
        monitors=monitor_list,
        events_executed=window.executed,
        events_skipped=window.absorbed,
        total_updates=network.counter.total,
        measured_duration=window.duration,
        trace=window.trace,
    )
