"""Growth sweeps: run the C-event experiment across network sizes.

Every figure in the paper is a sweep of some metric over the network size
``n`` (1000 → 10000 in the original; scaled down by default here).
:func:`run_growth_sweep` handles topology generation, simulation and
aggregation; the returned :class:`SweepResult` offers the series
extractors the figures need (U(X) vs n, factor curves, relative
increases).

Execution model: a sweep is decomposed into independent, picklable
:class:`SweepUnit` work items — one ``(scenario, n, origin-batch)``
simulation each — and every unit runs through a :class:`UnitQueue`,
whose transport is the calling process (one job), a process pool
(``jobs=N``) or a :class:`repro.dist.Coordinator`'s remote workers.  A
queue outlives a sweep: it takes the units of as many sweeps as its
owner submits, and collecting one sweep waits for that sweep's units
only.  Every unit derives its seeds from the sweep's master seed alone,
and unit results are merged in a fixed order (:func:`merge_sweep`), so
every transport returns bit-identical sweeps.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bgp.config import BGPConfig
from repro.bgp.route import clear_intern_caches
from repro.core.cevent import (
    CEventBatchResult,
    CEventStats,
    merge_c_event_batches,
    pick_origins,
    run_c_event_batch,
)
from repro.errors import ExperimentError
from repro.obs.telemetry import Telemetry, current_telemetry, telemetry_session
from repro.prefix.prefix import clear_prefix_intern_cache
from repro.sim.rng import origin_batch_seed, sweep_point_seeds
from repro.topology.generator import generate_topology
from repro.topology.scenarios import scenario_params
from repro.topology.types import NodeType, Relationship

if TYPE_CHECKING:
    import concurrent.futures
    import multiprocessing.sharedctypes
    from concurrent.futures import ProcessPoolExecutor

    from repro.dist.coordinator import Coordinator

#: Default size grid: same spirit as the paper's 1000..10000 at laptop scale.
DEFAULT_SIZES = (400, 800, 1200, 1600, 2000)

#: Env var for the crash-injection test hook (see :func:`maybe_inject_fault`).
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: Companion env var selecting the injected fault's behaviour:
#: ``exit`` (default — die hard) or ``sleep:<seconds>`` (hang, for
#: timeout tests).  Both fire exactly once, disarmed by the marker file.
FAULT_MODE_ENV = "REPRO_FAULT_MODE"

#: Signature of a progress callback: (scenario, n, stats).
ProgressFn = Callable[[str, int, CEventStats], None]

#: Signature of a per-unit completion callback: (unit,).  Invoked from the
#: submitting process as soon as a unit's result lands — from the pool's
#: management thread or a coordinator's connection thread unless the unit
#: ran inline, so implementations must be thread-safe
#: (``repro.obs.progress.ProgressLine`` is).
UnitDoneFn = Callable[["SweepUnit"], None]

#: What a unit runner returns: the unit's result and the counters its
#: hub collected (see :func:`_run_unit`).
UnitOutcome = Tuple[CEventBatchResult, Dict[str, int]]


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """C-event statistics across a size sweep for one scenario."""

    scenario: str
    sizes: List[int]
    stats: List[CEventStats]
    config: BGPConfig

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.stats):
            raise ExperimentError("sizes and stats length mismatch")

    def u_series(self, node_type: NodeType) -> List[float]:
        """U(X) for each size in the sweep."""
        return [s.u(node_type) for s in self.stats]

    def u_rel_series(self, node_type: NodeType, relationship: Relationship) -> List[float]:
        """U_y(X) — updates from one neighbour class — per size."""
        return [s.factors(node_type).u(relationship) for s in self.stats]

    def m_series(self, node_type: NodeType, relationship: Relationship) -> List[float]:
        """m_y(X) per size."""
        return [s.factors(node_type).m(relationship) for s in self.stats]

    def q_series(self, node_type: NodeType, relationship: Relationship) -> List[float]:
        """q_y(X) per size."""
        return [s.factors(node_type).q(relationship) for s in self.stats]

    def e_series(self, node_type: NodeType, relationship: Relationship) -> List[float]:
        """e_y(X) per size."""
        return [s.factors(node_type).e(relationship) for s in self.stats]

    def stats_at(self, n: int) -> CEventStats:
        """The stats for one specific size."""
        for size, stat in zip(self.sizes, self.stats):
            if size == n:
                return stat
        raise ExperimentError(f"size {n} not in sweep {self.sizes}")


@dataclasses.dataclass(frozen=True)
class SweepUnit:
    """One independent, picklable work item of a growth sweep.

    A unit is one ``(scenario, n, origin-batch)`` simulation.  It carries
    everything a worker process needs to reproduce its slice of the sweep
    from scratch: the worker regenerates the topology deterministically
    (cheap next to simulating on it) rather than receiving a pickled
    graph, so unit results do not depend on which process ran them.
    """

    scenario: str
    n: int
    num_origins: int
    batch_index: int
    num_batches: int
    seed: int
    config: BGPConfig
    #: (key, value) pairs, sorted by key — kept as a tuple so the unit
    #: itself stays immutable; values only need to be picklable.
    scenario_kwargs: tuple

    def __post_init__(self) -> None:
        if not 0 <= self.batch_index < self.num_batches:
            raise ExperimentError(
                f"batch index {self.batch_index} outside 0..{self.num_batches - 1}"
            )


def split_origins(origins: Sequence[int], num_batches: int) -> List[List[int]]:
    """Deterministic contiguous split of an origin list into batches.

    Sizes differ by at most one; the concatenation of all batches equals
    the input order, which is what keeps merged results independent of
    the batching granularity's *execution* (though not of the batch
    count itself, since each batch simulates on its own seeded network).
    """
    if num_batches < 1:
        raise ExperimentError(f"num_batches must be >= 1, got {num_batches}")
    origin_list = list(origins)
    base, extra = divmod(len(origin_list), num_batches)
    batches: List[List[int]] = []
    start = 0
    for index in range(num_batches):
        size = base + (1 if index < extra else 0)
        batches.append(origin_list[start : start + size])
        start += size
    return batches


def _fault_mode() -> tuple:
    """Parse ``REPRO_FAULT_MODE``: ("exit",) or ("sleep", seconds)."""
    mode = os.environ.get(FAULT_MODE_ENV, "exit")
    if mode == "exit":
        return ("exit",)
    if mode.startswith("sleep:"):
        try:
            seconds = float(mode.split(":", 1)[1])
        except ValueError as exc:
            raise ExperimentError(
                f"malformed {FAULT_MODE_ENV} value {mode!r} "
                "(want 'exit' or 'sleep:<seconds>')"
            ) from exc
        return ("sleep", seconds)
    raise ExperimentError(
        f"malformed {FAULT_MODE_ENV} value {mode!r} "
        "(want 'exit' or 'sleep:<seconds>')"
    )


def maybe_inject_fault(unit: SweepUnit, events_done: int) -> None:
    """Fault-injection hook for fault-tolerance and timeout tests.

    When ``REPRO_FAULT_INJECT`` is set to
    ``"scenario:n:batch_index:event_index:marker_path"``, the process
    executing the matching unit misbehaves once it reaches the given
    measured-event count: it dies hard (``os._exit``) by default, or
    hangs for ``REPRO_FAULT_MODE=sleep:<seconds>`` — exactly once either
    way: the marker file is created before the fault fires, and a set
    marker disarms the hook, so the retried unit survives.  Inherited by
    pool workers through the environment under both fork and spawn start
    methods.

    A no-op unless the env var is set; production runs never pay for it.
    """
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec:
        return
    try:
        scenario, n, batch_index, event_index, marker = spec.split(":", 4)
        wanted = (scenario.upper(), int(n), int(batch_index), int(event_index))
    except ValueError as exc:
        raise ExperimentError(
            f"malformed {FAULT_INJECT_ENV} spec {spec!r} "
            "(want scenario:n:batch_index:event_index:marker_path)"
        ) from exc
    mode = _fault_mode()  # validate eagerly, even when the unit won't match
    if (unit.scenario.upper(), unit.n, unit.batch_index, events_done) != wanted:
        return
    marker_path = Path(marker)
    if marker_path.exists():
        return
    marker_path.write_text("fault injected\n", encoding="utf-8")
    if mode[0] == "sleep":
        time.sleep(mode[1])
        return
    os._exit(1)


def execute_sweep_unit(unit: SweepUnit) -> CEventBatchResult:
    """Run one sweep unit from scratch (topology + origin batch).

    Module-level so ``ProcessPoolExecutor`` can pickle it by reference;
    every transport of :class:`UnitQueue` ends here, so all of them are
    one code path by construction.
    """
    params = scenario_params(unit.scenario, unit.n, **dict(unit.scenario_kwargs))
    topo_seed, sim_seed = sweep_point_seeds(unit.seed, unit.n)
    with current_telemetry().phase("topology-gen"):
        graph = generate_topology(params, seed=topo_seed)
    origin_list = pick_origins(graph, unit.num_origins, sim_seed)
    batch = split_origins(origin_list, unit.num_batches)[unit.batch_index]
    maybe_inject_fault(unit, 0)
    return run_c_event_batch(
        graph,
        unit.config,
        origins=batch,
        seed=origin_batch_seed(sim_seed, unit.batch_index, unit.num_batches),
        after_event=(
            (lambda cursor: maybe_inject_fault(unit, cursor.next_index))
            if os.environ.get(FAULT_INJECT_ENV)
            else None
        ),
    )


#: Whether a unit already ran in this process (see :func:`_execute`).
_RAN_UNIT = False


def _execute(
    unit: SweepUnit,
    checkpoint_dir: Optional[Union[str, Path]],
) -> CEventBatchResult:
    """One unit in this process, checkpointed when a directory is given.

    Every runner — the inline queue, pool workers, serial re-runs of lost
    pool units and ``repro.dist`` workers — goes through here, so each
    unit starts from the same process state.  When a unit already ran in
    this process, what it left behind goes first: the route, path and
    prefix intern tables (values of another topology, no use to this
    one) and its cyclic garbage — a network's nodes, channels and events
    reference each other, so without a collection the process grows by
    a network per unit.

    The checkpoint import is deferred because :mod:`repro.checkpoint.batch`
    imports this module.
    """
    global _RAN_UNIT
    if _RAN_UNIT:
        clear_intern_caches()
        clear_prefix_intern_cache()
        gc.collect()
    _RAN_UNIT = True
    if checkpoint_dir is None:
        return execute_sweep_unit(unit)
    from repro.checkpoint.batch import execute_sweep_unit_checkpointed

    return execute_sweep_unit_checkpointed(unit, checkpoint_dir)


def _run_unit(
    unit: SweepUnit,
    checkpoint_dir: Optional[Union[str, Path]],
) -> UnitOutcome:
    """The unit runner of every process that is not the campaign's own.

    Pool workers and ``repro.dist`` workers both run a unit through here:
    under a hub of its own, returning ``(result, counters)`` so the
    submitting side can fold the unit's counters — every kernel count,
    ``checkpoint.*`` — into its hub with :meth:`Telemetry.absorb`.
    Module-level, so a pool pickles it by reference.
    """
    with telemetry_session(Telemetry()) as hub:
        result = _execute(unit, checkpoint_dir)
    return result, hub.counters


# ----------------------------------------------------------------------
# Pool workers
# ----------------------------------------------------------------------
#: In a pool worker: the pool's start board (only under a unit timeout)
#: and this worker's slot on it — ``(ticket, start time)`` pairs the
#: parent reads to time the units from when a worker picked them up.
_BOARD: Optional[Sequence[float]] = None
_SLOT = 0


def _init_worker(
    board: Optional[Sequence[float]],
    slots: Optional["multiprocessing.sharedctypes.Synchronized"],
) -> None:
    """Pool initializer: claim a slot on the start board, if there is one.

    ``gc.freeze()`` moves everything inherited from the parent out of the
    collector's sight, so the collections :func:`_execute` runs between
    units only walk what the units themselves allocated.
    """
    global _BOARD, _SLOT
    if board is not None and slots is not None:
        with slots.get_lock():
            _SLOT = slots.value
            slots.value += 1
        _BOARD = board
    gc.freeze()


def _pool_task(
    ticket: int,
    unit: SweepUnit,
    checkpoint_dir: Optional[Union[str, Path]],
) -> UnitOutcome:
    """One unit on a pool worker.

    Stamps the start board with the ticket and the time, which is where
    ``unit_timeout`` counts from.
    """
    if _BOARD is not None:
        _BOARD[2 * _SLOT + 1] = time.monotonic()
        _BOARD[2 * _SLOT] = ticket
    return _run_unit(unit, checkpoint_dir)


def _lost(future: concurrent.futures.Future) -> bool:
    """Whether a finished future's pool failed it (vs. a result or a
    unit's own error)."""
    from concurrent.futures.process import BrokenProcessPool

    return future.cancelled() or isinstance(future.exception(), BrokenProcessPool)


#: Longest accepted ``unit_timeout``, in seconds (one day).
MAX_UNIT_TIMEOUT = 86_400.0


def check_unit_timeout(
    value: Optional[float], name: str = "unit_timeout"
) -> Optional[float]:
    """``value`` as a usable per-unit timeout; None means wait forever.

    Raises :class:`~repro.errors.ExperimentError` unless the value is
    finite and within (0, :data:`MAX_UNIT_TIMEOUT`].
    """
    if value is None:
        return None
    if not 0 < value <= MAX_UNIT_TIMEOUT:  # NaN fails every comparison
        raise ExperimentError(
            f"{name} must be within (0, {MAX_UNIT_TIMEOUT:g}], got {value}"
        )
    return float(value)


@dataclasses.dataclass(eq=False)
class _Ticket:
    """One submitted unit and, once collected, its result."""

    index: int
    unit: SweepUnit
    future: Optional[concurrent.futures.Future] = None
    #: the pool generation ``future`` belongs to
    generation: int = 0
    #: when a worker picked the unit up (monotonic clock), once seen
    started: Optional[float] = None
    result: Optional[CEventBatchResult] = None


class UnitQueue:
    """Sweep units queued on one transport, collected sweep by sweep.

    :meth:`submit` queues units (in the order given) and returns their
    tickets; :meth:`collect` waits for some tickets and returns their
    results in ticket order.  The transport is fixed at construction:

    * ``coordinator`` — a started :class:`repro.dist.Coordinator` — leases
      the units to its remote workers (``jobs`` is then ignored);
    * else ``jobs`` > 1 runs them on a process pool, started at the first
      submit and serving every later one;
    * else they run inline: :meth:`collect` executes its pending tickets
      in this process, in the order it is given them.

    The owner — a sweep execution context or a standalone
    :func:`run_growth_sweep` — can therefore queue all its work up front,
    and no sweep waits for another's slowest unit.

    Failure handling is written once, here:

    * a pool worker that dies breaks the pool (``BrokenProcessPool``); a
      unit that runs longer than ``unit_timeout`` on a pool worker —
      counted from when the worker picked it up, not from when it was
      queued — gets the pool killed.  Either way the tickets being
      collected that lost their result re-run *serially* in this process,
      from their checkpoints when configured: one bounded retry another
      crash cannot kill.  Every other unit still outstanding goes to a
      fresh pool.  A coordinator re-leases lost units by itself;
    * a unit that raises (a simulation error, or a worker's NACK) raises
      from :meth:`collect`, as it would serially;
    * ``on_unit_done`` fires exactly once per ticket, whichever of a
      completion or a retry delivered it.

    Each remote unit's counters are folded into the collecting thread's
    hub when its result is collected; an inline unit counts into that hub
    directly.  Counters ``sweep.pools`` and ``sweep.units`` count the
    pools started and the units submitted.
    """

    def __init__(
        self,
        jobs: int,
        *,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        on_unit_done: Optional[UnitDoneFn] = None,
        unit_timeout: Optional[float] = None,
        coordinator: Optional["Coordinator"] = None,
    ) -> None:
        self.jobs = jobs
        self.checkpoint_dir = checkpoint_dir
        self.on_unit_done = on_unit_done
        self.unit_timeout = unit_timeout
        self.coordinator = coordinator
        self._inline = coordinator is None and jobs <= 1
        self._pool: Optional[ProcessPoolExecutor] = None
        self._board: Optional[Sequence[float]] = None
        #: bumped whenever a pool is torn down after a failure
        self._generation = 0
        #: submitted tickets whose result is not collected yet, by index
        self._live: Dict[int, _Ticket] = {}
        self._submitted = 0
        self._notified: set = set()
        self._notify_lock = threading.Lock()

    def __enter__(self) -> "UnitQueue":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, units: Sequence[SweepUnit]) -> List[_Ticket]:
        """Queue ``units`` behind everything queued so far."""
        tickets = [
            _Ticket(index=self._submitted + offset, unit=unit)
            for offset, unit in enumerate(units)
        ]
        self._submitted += len(tickets)
        current_telemetry().inc("sweep.units", len(tickets))
        for ticket in tickets:
            self._live[ticket.index] = ticket
            if not self._inline:
                self._dispatch(ticket)
        return tickets

    def _dispatch(self, ticket: _Ticket) -> None:
        ticket.future = None
        ticket.started = None
        if self.coordinator is not None:
            future = self.coordinator.submit(ticket.unit)
        else:
            from concurrent.futures.process import BrokenProcessPool

            try:
                future = self._running_pool().submit(
                    _pool_task, ticket.index, ticket.unit, self.checkpoint_dir
                )
            except BrokenProcessPool:
                # The pool broke while nobody was collecting from it.
                self._restart(keep=(), kill=False)
                self._dispatch(ticket)
                return
        ticket.future = future
        ticket.generation = self._generation
        future.add_done_callback(
            lambda done: (
                self._notify(ticket)
                if not done.cancelled() and done.exception() is None
                else None
            )
        )

    def _running_pool(self) -> ProcessPoolExecutor:
        """The pool, started at the first call.  The pool stack (and the
        logging it imports) loads here: a serial run never pays for it."""
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            if self.checkpoint_dir is not None:
                # The workers' unit runner, imported once here rather
                # than after the fork by every worker.
                import repro.checkpoint.batch  # noqa: F401
            slots = None
            if self.unit_timeout is not None:
                # Shared memory (and the ctypes it imports) only when a
                # timeout needs the workers' start times.
                import multiprocessing

                context = multiprocessing.get_context()
                self._board = context.RawArray("d", [-1.0] * (2 * self.jobs))
                slots = context.Value("i", 0)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self._board, slots),
            )
            current_telemetry().inc("sweep.pools")
        return self._pool

    def _notify(self, ticket: _Ticket) -> None:
        if self.on_unit_done is None:
            return
        with self._notify_lock:
            if ticket.index in self._notified:
                return
            self._notified.add(ticket.index)
        self.on_unit_done(ticket.unit)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def landed(self, tickets: Sequence[_Ticket]) -> bool:
        """Whether every ticket's unit finished successfully (so
        :meth:`collect` would return without waiting or running one)."""
        return all(
            ticket.result is not None
            or (
                ticket.future is not None
                and ticket.future.done()
                and not ticket.future.cancelled()
                and ticket.future.exception() is None
            )
            for ticket in tickets
        )

    def collect(
        self,
        tickets: Sequence[_Ticket],
        on_wait: Optional[Callable[[], None]] = None,
    ) -> List[CEventBatchResult]:
        """The tickets' results in ticket order, waiting as needed.

        ``on_wait`` runs whenever the wait wakes up with tickets still
        outstanding (a unit landed, or a timeout poll): the owner's chance
        to do something with the results of *other* tickets.  Inline, the
        pending tickets run here, one after another, and nothing waits.
        """
        waiting = [ticket for ticket in tickets if ticket.result is None]
        if self._inline:
            for ticket in waiting:
                ticket.result = _execute(ticket.unit, self.checkpoint_dir)
                self._notify(ticket)
            waiting = []
        lost: List[_Ticket] = []
        timed_out: set = set()
        while waiting:
            outstanding = []
            for ticket in waiting:
                if not ticket.future.done():
                    outstanding.append(ticket)
                elif not self._take(ticket, keep=tickets):
                    lost.append(ticket)
            waiting = outstanding
            if not waiting:
                break
            if on_wait is not None:
                on_wait()
            expired = self._expired(waiting)
            if expired:
                timed_out.update(ticket.index for ticket in expired)
                self._restart(keep=tickets, kill=True)
                continue
            import concurrent.futures

            concurrent.futures.wait(
                [ticket.future for ticket in waiting],
                timeout=self._poll_seconds(),
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
        for ticket in sorted(lost, key=lambda t: t.index):
            import logging

            unit = ticket.unit
            logging.getLogger(__name__).warning(
                "worker %s while running sweep unit %s n=%d batch %d/%d; "
                "re-running serially%s",
                "timed out" if ticket.index in timed_out else "died",
                unit.scenario,
                unit.n,
                unit.batch_index,
                unit.num_batches,
                " (resuming from checkpoint)" if self.checkpoint_dir else "",
            )
            ticket.result = _execute(unit, self.checkpoint_dir)
            ticket.future = None
            self._notify(ticket)
        for ticket in tickets:
            self._live.pop(ticket.index, None)
        return [ticket.result for ticket in tickets]  # type: ignore[misc]

    def _take(self, ticket: _Ticket, *, keep: Sequence[_Ticket]) -> bool:
        """Collect one finished future; False if the pool lost it."""
        future = ticket.future
        if _lost(future):
            if ticket.generation == self._generation:
                self._restart(keep=keep, kill=False)
            return False
        result, counters = future.result()  # a unit's own error raises here
        current_telemetry().absorb(counters)
        ticket.result = result
        ticket.future = None
        return True

    def _expired(self, waiting: Sequence[_Ticket]) -> List[_Ticket]:
        """Tickets a worker has been running for longer than the timeout."""
        if self.unit_timeout is None or self._board is None:
            return []
        board = self._board
        for slot in range(self.jobs):
            ticket = self._live.get(int(board[2 * slot]))
            if ticket is not None and ticket.started is None:
                ticket.started = board[2 * slot + 1]
        now = time.monotonic()
        return [
            ticket
            for ticket in waiting
            if ticket.started is not None
            and now - ticket.started > self.unit_timeout
        ]

    def _poll_seconds(self) -> Optional[float]:
        """How long one wait may block: forever without a timeout to
        enforce, else short enough to catch an overrun promptly."""
        if self.unit_timeout is None:
            return None
        return min(0.2, self.unit_timeout / 4.0)

    def _restart(self, *, keep: Sequence[_Ticket], kill: bool) -> None:
        """Tear the pool down and queue the lost units of other sweeps on
        a fresh one; ``keep`` — the tickets being collected — are left to
        the caller's serial retry."""
        pool, self._pool, self._board = self._pool, None, None
        self._generation += 1
        if pool is not None:
            if kill:
                # Hung workers would block a graceful shutdown forever;
                # every result already delivered stays in its future.
                for process in list((getattr(pool, "_processes", None) or {}).values()):
                    process.kill()
            pool.shutdown(wait=True, cancel_futures=True)
        kept = {ticket.index for ticket in keep}
        for ticket in sorted(self._live.values(), key=lambda t: t.index):
            future = ticket.future
            if ticket.index in kept or future is None:
                continue
            if _lost(future):
                self._dispatch(ticket)

    def close(self) -> None:
        """Cancel queued units, wait for running ones, stop the workers."""
        pool, self._pool, self._board = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def sweep_units(
    scenario: str,
    sizes: Sequence[int],
    config: BGPConfig,
    num_origins: int,
    seed: int,
    scenario_kwargs: Dict[str, object],
    origin_batch_size: Optional[int],
) -> List[SweepUnit]:
    """The full work list, in deterministic (size, batch) order."""
    if not sizes:
        raise ExperimentError("empty size grid")
    if num_origins < 1:
        raise ExperimentError(f"num_origins must be >= 1, got {num_origins}")
    if origin_batch_size is not None and origin_batch_size < 1:
        raise ExperimentError(
            f"origin_batch_size must be >= 1, got {origin_batch_size}"
        )
    num_batches = (
        1
        if origin_batch_size is None
        else -(-num_origins // origin_batch_size)
    )
    kwargs_items = tuple(sorted(scenario_kwargs.items(), key=lambda kv: kv[0]))
    return [
        SweepUnit(
            scenario=scenario,
            n=n,
            num_origins=num_origins,
            batch_index=batch_index,
            num_batches=num_batches,
            seed=seed,
            config=config,
            scenario_kwargs=kwargs_items,
        )
        for n in sizes
        for batch_index in range(num_batches)
    ]


def merge_sweep(
    units: Sequence[SweepUnit],
    batch_results: Sequence[CEventBatchResult],
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """One sweep's :class:`SweepResult` from its units' results, both in
    the (size, batch) order :func:`sweep_units` lists them in."""
    first = units[0]
    num_batches = first.num_batches
    stats: List[CEventStats] = []
    with current_telemetry().phase("analysis"):
        for start in range(0, len(units), num_batches):
            n = units[start].n
            _, sim_seed = sweep_point_seeds(first.seed, n)
            result = merge_c_event_batches(
                batch_results[start : start + num_batches], seed=sim_seed
            )
            stats.append(result)
            if progress is not None:
                progress(first.scenario, n, result)
    return SweepResult(
        scenario=first.scenario.upper(),
        sizes=[unit.n for unit in units[::num_batches]],
        stats=stats,
        config=first.config,
    )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Validated worker count: None → 1 (serial), 0 → auto (usable CPUs).

    "Usable" is this process's CPU affinity mask where the platform has
    one — a container's or ``taskset``'s share of the host, not the
    host's count.  Raises :class:`~repro.errors.ExperimentError` on
    negative values — nothing downstream ever sees a
    ``ProcessPoolExecutor(max_workers<=0)``.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return jobs


def run_growth_sweep(
    scenario: str,
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    config: Optional[BGPConfig] = None,
    num_origins: int = 20,
    seed: int = 0,
    scenario_kwargs: Optional[Dict[str, object]] = None,
    progress: Optional[ProgressFn] = None,
    jobs: Optional[int] = None,
    origin_batch_size: Optional[int] = None,
) -> SweepResult:
    """Run a full size sweep for one named growth scenario.

    Topology and simulation seeds are derived per size from ``seed`` so
    different scenarios at the same (seed, size) share nothing but remain
    individually reproducible.

    ``jobs`` > 1 runs the work units on a :class:`UnitQueue` of that many
    worker processes (``0`` = one per usable CPU); results are merged in
    fixed (size, batch) order, so the returned numbers are bit-identical
    to a serial run.  ``origin_batch_size`` bounds how many origins one
    unit simulates: smaller batches expose more parallelism within a
    single size (each batch runs on its own deterministically seeded
    network, so the batch size — unlike ``jobs`` — is part of the sweep's
    reproducibility key).

    Checkpoints, unit timeouts, per-unit callbacks and remote workers
    belong to a campaign's execution context
    (:func:`repro.experiments.cache.sweep_execution`).
    """
    config = config if config is not None else BGPConfig()
    units = sweep_units(
        scenario,
        sizes,
        config,
        num_origins,
        seed,
        dict(scenario_kwargs or {}),
        origin_batch_size,
    )
    with UnitQueue(min(resolve_jobs(jobs), len(units))) as queue:
        batch_results = queue.collect(queue.submit(units))
    return merge_sweep(units, batch_results, progress)


def run_scenario_comparison(
    scenarios: Sequence[str],
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    config: Optional[BGPConfig] = None,
    num_origins: int = 20,
    seed: int = 0,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, SweepResult]:
    """Sweep several scenarios over the same size grid (Fig. 8–11 style)."""
    results: Dict[str, SweepResult] = {}
    for scenario in scenarios:
        results[scenario.upper()] = run_growth_sweep(
            scenario,
            sizes=sizes,
            config=config,
            num_origins=num_origins,
            seed=seed,
            progress=progress,
        )
    return results
