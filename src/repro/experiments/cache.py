"""Two-level memoization of expensive sweeps.

Figures 4–7 are different projections of the *same* Baseline growth sweep;
Fig. 12 reuses the Baseline NO-WRATE sweep as its denominator.  Caching by
a canonical content key — scenario, sizes, origins, the full
:class:`BGPConfig`, seed, scenario kwargs and the code version — lets a
full figure campaign run each simulation exactly once.

Two layers share one key:

* an **in-process** dict, as before, for sweeps reused within one run;
* an optional **on-disk** store (``cache_dir``) holding each sweep as
  JSON via :mod:`repro.experiments.results_io`, so re-running a campaign
  in a new process is near-instant.  The round trip is float-exact, so a
  cache-warm campaign produces byte-identical artifacts.

The key is a SHA-256 of canonical JSON, never of live Python objects:
unhashable scenario kwargs (lists, dicts) are legal and mutation-proof,
and the key is stable across processes and hash randomization.

:func:`sweep_execution` installs ambient execution policy (parallel
``jobs`` or a coordinator, ``cache_dir``, origin batching) plus hit/miss
telemetry, so callers like :func:`~repro.experiments.campaign.run_campaign`
can wire ``--jobs``/``--cache-dir`` through without threading parameters
into every figure module.  The context owns one
:class:`~repro.core.sweep.UnitQueue` for its lifetime — inline, on a
process pool or on a coordinator's workers: every sweep it computes runs
there, and :meth:`SweepExecution.plan` can queue the units of sweeps an
experiment will only ask for later (see :class:`SweepRequest`).
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import enum
import json
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from repro._version import __version__
from repro.bgp.config import BGPConfig
from repro.core.sweep import (
    SweepResult,
    SweepUnit,
    UnitDoneFn,
    UnitQueue,
    check_unit_timeout,
    merge_sweep,
    resolve_jobs,
    sweep_units,
)
from repro.errors import SerializationError
from repro.files import atomic_writer, sha256
from repro.obs.telemetry import current_telemetry
from repro.experiments.results_io import load_sweep, sweep_result_to_dict
from repro.experiments.scale import Scale

#: Bump when the simulation's measured quantities change meaning, to
#: invalidate on-disk entries written by incompatible code, or when the
#: key's inputs change shape (2: ``BGPConfig`` lost a field), so
#: ``cache gc`` prunes the entries no key can reach any more.
_KEY_VERSION = 2

_CACHE: Dict[str, SweepResult] = {}


# ----------------------------------------------------------------------
# Canonical cache keys
# ----------------------------------------------------------------------
def _canonical(value: object) -> object:
    """Reduce a value to JSON-serializable primitives, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return _canonical(value.value)
    if isinstance(value, dict):
        return {
            str(key): _canonical(val)
            for key, val in sorted(value.items(), key=lambda item: str(item[0]))
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_canonical(item) for item in items]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def sweep_cache_key(
    scenario: str,
    sizes: Sequence[int],
    origins: int,
    config: BGPConfig,
    seed: int,
    scenario_kwargs: Optional[Dict[str, object]] = None,
) -> str:
    """Content hash identifying one sweep's inputs.

    Stable across processes, hash randomization and mutable kwargs; ties
    the entry to the code version so stale on-disk results never leak
    into a newer build.
    """
    payload = {
        "key_version": _KEY_VERSION,
        "code_version": __version__,
        "scenario": scenario.upper(),
        "sizes": list(sizes),
        "origins": origins,
        "config": _canonical(config),
        "seed": seed,
        "scenario_kwargs": _canonical(dict(scenario_kwargs or {})),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8"))


class SweepRequest(NamedTuple):
    """One sweep an experiment reads: :func:`cached_sweep`'s arguments
    beyond the scale and seed every sweep of an experiment shares.

    A sweeping experiment module lists its requests in a module-level
    ``sweeps(scale, *, seed, config=None)`` and fetches its results
    through that same list (:func:`cached_sweeps`), so the plan a
    campaign queues up front is by construction what the experiment
    reads.
    """

    scenario: str
    config: Optional[BGPConfig] = None
    scenario_kwargs: Optional[Dict[str, object]] = None


# ----------------------------------------------------------------------
# Execution context: ambient policy + telemetry
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SweepExecution:
    """Policy, counters and the unit queue for the sweeps of one logical
    run."""

    jobs: Optional[int] = None
    cache_dir: Optional[Path] = None
    origin_batch_size: Optional[int] = None
    #: directory for in-progress sweep-unit checkpoints (None = disabled)
    checkpoint_dir: Optional[Path] = None
    #: live per-unit completion hook (the CLI progress line); observational
    on_unit_done: Optional[UnitDoneFn] = None
    #: upper bound on one unit's run on a pool worker, counted from when
    #: the worker picks it up
    unit_timeout: Optional[float] = None
    #: a started repro.dist Coordinator: route sweep units to remote
    #: workers instead of local processes (jobs is then ignored)
    coordinator: Optional[object] = None
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    #: aggregate simulation wall clock across all workers (the serial
    #: cost the run would have paid without parallelism or caching)
    worker_seconds: float = 0.0
    _queue: Optional[UnitQueue] = dataclasses.field(
        default=None, init=False, repr=False
    )
    #: queued sweeps nobody asked for yet: cache key → their tickets
    _planned: Dict[str, list] = dataclasses.field(
        default_factory=dict, init=False, repr=False
    )
    #: sweeps merged off the queue that no caller has read yet: their
    #: miss is counted, so the first read is not a hit
    _unread: set = dataclasses.field(default_factory=set, init=False, repr=False)

    @property
    def cache_hits(self) -> int:
        """Sweeps answered from either cache layer."""
        return self.memory_hits + self.disk_hits

    def plan(
        self, requests: Iterable[SweepRequest], scale: Scale, *, seed: int
    ) -> None:
        """Queue the units of every requested sweep that is neither cached
        (in memory or on disk) nor queued already, largest ``n`` first.

        On a pool or a coordinator, a planned sweep is merged and cached
        as soon as its last unit lands, whoever is waiting at the time;
        :func:`cached_sweep` then finds it, or waits for just its units.
        Inline, a planned sweep runs when :func:`cached_sweep` asks for it.
        """
        slots: Dict[str, list] = {}
        entries = []
        for request in requests:
            config = request.config if request.config is not None else BGPConfig()
            key = sweep_cache_key(
                request.scenario,
                scale.sizes,
                scale.origins,
                config,
                seed,
                request.scenario_kwargs,
            )
            if (
                key in slots
                or key in self._planned
                or key in _CACHE
                or (
                    self.cache_dir is not None
                    and _disk_path(self.cache_dir, key).exists()
                )
            ):
                continue
            units = self._units(
                request.scenario, scale, config, seed, request.scenario_kwargs
            )
            slots[key] = [None] * len(units)
            entries.extend((key, index, unit) for index, unit in enumerate(units))
        if not entries:
            return
        entries.sort(key=lambda entry: -entry[2].n)  # stable: plan order within n
        tickets = self._unit_queue().submit([unit for _, _, unit in entries])
        for (key, index, _), ticket in zip(entries, tickets):
            slots[key][index] = ticket
        self._planned.update(slots)

    def _units(
        self,
        scenario: str,
        scale: Scale,
        config: BGPConfig,
        seed: int,
        scenario_kwargs: Optional[Dict[str, object]],
    ) -> List[SweepUnit]:
        return sweep_units(
            scenario,
            scale.sizes,
            config,
            scale.origins,
            seed,
            dict(scenario_kwargs or {}),
            self.origin_batch_size,
        )

    def _unit_queue(self) -> UnitQueue:
        if self._queue is None:
            self._queue = UnitQueue(
                resolve_jobs(self.jobs),
                checkpoint_dir=self.checkpoint_dir,
                on_unit_done=self.on_unit_done,
                unit_timeout=self.unit_timeout,
                coordinator=self.coordinator,
            )
        return self._queue

    def _run_queued(self, key: str, units: List[SweepUnit]) -> SweepResult:
        """One sweep off the unit queue: its planned tickets, or its units
        queued now; other planned sweeps are assembled while it waits."""
        queue = self._unit_queue()
        tickets = self._planned.pop(key, None) or queue.submit(units)
        results = queue.collect(tickets, on_wait=self._assemble_landed)
        return merge_sweep(units, results)

    def _assemble_landed(self) -> None:
        """Merge and cache every planned sweep whose units have all landed."""
        queue = self._queue
        if queue is None:
            return
        for key, tickets in list(self._planned.items()):
            if queue.landed(tickets):
                del self._planned[key]
                units = [ticket.unit for ticket in tickets]
                result = merge_sweep(units, queue.collect(tickets))
                self._store(key, result, self.cache_dir)
                self._unread.add(key)

    def _store(
        self, key: str, result: SweepResult, cache_dir: Optional[Path]
    ) -> None:
        """Account for one computed sweep and keep it in both cache layers."""
        self.misses += 1
        current_telemetry().inc("cache.misses")
        self.worker_seconds += sum(
            stats.wall_clock_seconds for stats in result.stats
        )
        _CACHE[key] = result
        if cache_dir is not None:
            try:
                cache_dir.mkdir(parents=True, exist_ok=True)
                _write_entry(_disk_path(cache_dir, key), result, key)
            except OSError:
                pass  # a read-only cache dir must not fail the sweep

    def close(self) -> None:
        """Stop the unit queue: cancel queued units, let running ones
        finish, and keep every planned sweep whose units all landed — an
        interrupted run loses no finished sweep."""
        if self._queue is None:
            return
        try:
            self._queue.close()
            self._assemble_landed()
        finally:
            self._queue = None
            self._planned.clear()


_EXECUTION: "contextvars.ContextVar[SweepExecution]" = contextvars.ContextVar(
    "repro_sweep_execution", default=SweepExecution()
)


def current_execution() -> SweepExecution:
    """The calling thread's execution context (a process-wide default
    outside any :func:`sweep_execution`)."""
    return _EXECUTION.get()


@contextlib.contextmanager
def sweep_execution(
    *,
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    origin_batch_size: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    on_unit_done: Optional[UnitDoneFn] = None,
    unit_timeout: Optional[float] = None,
    coordinator: Optional[object] = None,
) -> Iterator[SweepExecution]:
    """Install an execution context for the duration of a ``with`` block.

    The context belongs to the calling thread (two campaigns in two
    threads each see their own), and on exit it stops its unit queue
    (:meth:`SweepExecution.close`).  An unusable ``unit_timeout`` raises
    :class:`~repro.errors.ExperimentError` here, before any work starts
    (:func:`~repro.core.sweep.check_unit_timeout`).
    """
    execution = SweepExecution(
        jobs=jobs,
        cache_dir=Path(cache_dir) if cache_dir is not None else None,
        origin_batch_size=origin_batch_size,
        checkpoint_dir=Path(checkpoint_dir) if checkpoint_dir is not None else None,
        on_unit_done=on_unit_done,
        unit_timeout=check_unit_timeout(unit_timeout),
        coordinator=coordinator,
    )
    token = _EXECUTION.set(execution)
    try:
        yield execution
    finally:
        try:
            execution.close()
        finally:
            _EXECUTION.reset(token)


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
def _disk_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"sweep-{key}.json"


def _write_entry(path: Path, result: SweepResult, key: str) -> None:
    """Persist one sweep with provenance metadata (atomic tmp + rename).

    The embedded ``cache_meta`` block records which key/code version
    wrote the entry: the loader ignores it (unknown top-level keys are
    skipped), but ``repro-bgp cache gc`` uses it to prune entries that
    the current build can never look up again (their content key embeds
    a different version, so they are dead weight on disk).
    """
    document = sweep_result_to_dict(result)
    document["cache_meta"] = {
        "key": key,
        "key_version": _KEY_VERSION,
        "code_version": __version__,
    }
    with atomic_writer(path) as handle:
        json.dump(document, handle, indent=1)


@dataclasses.dataclass
class CacheGcReport:
    """Outcome of one ``repro-bgp cache gc`` pass."""

    scanned: int = 0
    kept: int = 0
    pruned_files: list = dataclasses.field(default_factory=list)
    reclaimed_bytes: int = 0
    dry_run: bool = False

    @property
    def pruned(self) -> int:
        """Number of entries removed (or that would be, under dry-run)."""
        return len(self.pruned_files)

    def to_text(self) -> str:
        verb = "would prune" if self.dry_run else "pruned"
        return (
            f"cache gc: scanned {self.scanned} entr{'y' if self.scanned == 1 else 'ies'}, "
            f"kept {self.kept}, {verb} {self.pruned} "
            f"({self.reclaimed_bytes} bytes reclaimed)"
        )


def _entry_is_live(path: Path) -> bool:
    """Whether a cache file was written by the current key/code version.

    Anything unreadable, non-JSON, or lacking a matching ``cache_meta``
    block is stale: entries written before metadata existed belong to an
    older build by definition, and the content-hash filename means the
    current build can never produce their key again.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return False
    if not isinstance(data, dict):
        return False
    meta = data.get("cache_meta")
    if not isinstance(meta, dict):
        return False
    return (
        meta.get("key_version") == _KEY_VERSION
        and meta.get("code_version") == __version__
    )


def gc_cache_dir(
    cache_dir: Union[str, Path], *, dry_run: bool = False
) -> CacheGcReport:
    """Prune on-disk sweep entries a stale key/code version wrote.

    Only files matching the cache's own naming scheme
    (``sweep-*.json`` plus orphaned ``.tmp`` leftovers from interrupted
    writes) are considered; everything else in the directory is left
    alone.  Returns a :class:`CacheGcReport` with the reclaimed bytes.
    """
    cache_dir = Path(cache_dir)
    report = CacheGcReport(dry_run=dry_run)
    if not cache_dir.is_dir():
        return report
    for path in sorted(cache_dir.glob("sweep-*.json.tmp")):
        size = path.stat().st_size
        report.pruned_files.append(path)
        report.reclaimed_bytes += size
        if not dry_run:
            path.unlink(missing_ok=True)
    for path in sorted(cache_dir.glob("sweep-*.json")):
        report.scanned += 1
        if _entry_is_live(path):
            report.kept += 1
            continue
        size = path.stat().st_size
        report.pruned_files.append(path)
        report.reclaimed_bytes += size
        if not dry_run:
            path.unlink(missing_ok=True)
    return report


def cached_sweep(
    scenario: str,
    scale: Scale,
    *,
    config: Optional[BGPConfig] = None,
    seed: int = 0,
    scenario_kwargs: Optional[Dict[str, object]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """A growth sweep, memoized in-process and (optionally) on disk.

    ``cache_dir`` defaults to the ambient :func:`sweep_execution`
    context's; a miss runs on that context's unit queue.  The queue's
    transport never affects the returned numbers, so it is deliberately
    *not* part of the cache key.
    """
    config = config if config is not None else BGPConfig()
    execution = current_execution()
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
    else:
        cache_dir = execution.cache_dir

    key = sweep_cache_key(
        scenario, scale.sizes, scale.origins, config, seed, scenario_kwargs
    )
    telemetry = current_telemetry()
    cached = _CACHE.get(key)
    if cached is not None:
        if key in execution._unread:
            execution._unread.discard(key)  # computed here; its miss is counted
        else:
            execution.memory_hits += 1
            telemetry.inc("cache.memory_hits")
        return cached
    if cache_dir is not None:
        path = _disk_path(cache_dir, key)
        if path.exists():
            try:
                result = load_sweep(path)
            except SerializationError:
                pass  # corrupt or stale entry: fall through and recompute
            else:
                execution.disk_hits += 1
                telemetry.inc("cache.disk_hits")
                _CACHE[key] = result
                return result

    units = execution._units(scenario, scale, config, seed, scenario_kwargs)
    result = execution._run_queued(key, units)
    execution._store(key, result, cache_dir)
    return result


def cached_sweeps(
    requests: Sequence[SweepRequest], scale: Scale, *, seed: int
) -> List[SweepResult]:
    """Every requested sweep, in request order (see :func:`cached_sweep`)."""
    return [
        cached_sweep(
            request.scenario,
            scale,
            config=request.config,
            seed=seed,
            scenario_kwargs=request.scenario_kwargs,
        )
        for request in requests
    ]


def clear_cache() -> None:
    """Drop all in-process memoized sweeps (tests use this for isolation)."""
    _CACHE.clear()
