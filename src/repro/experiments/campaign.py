"""Campaign orchestration: run a full artifact set and persist everything.

A *campaign* is one reproducibility run: every registered experiment at a
given scale and seed, with the rendered reports, the raw series (JSON)
and a pass/fail summary written to an output directory.  EXPERIMENTS.md's
recorded section is one campaign's markdown.

:func:`run_campaign` is the one driver that runs experiments: the
``run``, ``profile``, ``campaign`` and ``serve`` verbs and the API
scheduler all hand it a :class:`CampaignSpec`.

Campaigns are interruptible: with a checkpoint directory, the campaign
records every completed experiment as it finishes (and, through the
sweep executor, every in-progress sweep unit), so a killed campaign
rerun with the same checkpoint directory skips all completed work and
produces artifacts identical to an uninterrupted run.  ``Ctrl-C``
flushes the completed results before the interrupt propagates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Set, Union

from repro._version import __version__
from repro.checkpoint.format import (
    KIND_CAMPAIGN,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.sweep import check_unit_timeout, resolve_jobs
from repro.errors import CheckpointError, ExperimentError, SerializationError
from repro.experiments.cache import sweep_execution
from repro.files import sha256
from repro.obs.progress import ProgressLine
from repro.obs.runlog import TELEMETRY_FILENAME, write_telemetry_jsonl
from repro.obs.telemetry import Telemetry, telemetry_session
from repro.experiments.registry import (
    declared_sweeps,
    experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.experiments.report import ExperimentResult
from repro.experiments.results_io import (
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.experiments.scale import Scale, get_scale

#: Signature of the structured progress hook: one JSON-serializable dict
#: per event (``campaign_started``, ``unit_done``, ``experiment_done``,
#: ``campaign_interrupted``).  Implementations must be thread-safe: unit
#: events fire from pool completion threads under parallel execution.
CampaignEventFn = Callable[[dict], None]


class CampaignCancelled(KeyboardInterrupt):
    """Cooperative cancellation of a running campaign.

    Subclasses :class:`KeyboardInterrupt` so a cancelled campaign takes
    exactly the Ctrl-C path through :func:`run_campaign`: completed
    results are flushed to the checkpoint state file and the sweep cache
    keeps every finished sweep, making a later resubmission a resume.
    """


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """One campaign request, as submitted by a CLI or API client.

    The *identity* fields — ``scale``, ``seed``, ``include_extensions``,
    ``experiments`` — plus the code version determine every measured
    number of the campaign; :meth:`key` hashes exactly those, so two specs with the
    same key are answerable by one execution.  The remaining fields are
    execution policy (parallelism, timeouts, queueing priority): they
    never change an artifact byte and are deliberately excluded from the
    key, mirroring the sweep cache's discipline.

    Construction canonicalises the identity fields, so every spelling of
    one campaign is one spec: ``scale`` becomes its preset's name and
    ``experiments`` the named ids in registry order without repeats
    (unknown presets and ids raise here, before anything runs).
    """

    scale: str = "default"
    seed: int = 0
    include_extensions: bool = False
    #: restrict the campaign to these experiment ids (None = all; an
    #: explicit subset may name extensions regardless of
    #: ``include_extensions``)
    experiments: Optional[tuple] = None
    #: sweep fan-out (None = serial, 0 = one worker per CPU)
    jobs: Optional[int] = None
    #: per-unit wall-clock bound under parallel execution
    unit_timeout: Optional[float] = None
    #: whether this campaign may read/write the shared sweep cache
    use_cache: bool = True
    #: queue priority (higher = sooner); FIFO within one priority
    priority: int = 0

    #: accepted JSON fields and their validators, for :meth:`from_dict`
    _FIELDS = None  # populated below the class body

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", self.resolve_scale().name)
        if self.experiments is not None:
            requested = {get_experiment(item).experiment_id for item in self.experiments}
            if not requested:
                raise ExperimentError("experiments subset must not be empty")
            object.__setattr__(
                self,
                "experiments",
                tuple(
                    experiment_id
                    for experiment_id in experiment_ids(include_extensions=True)
                    if experiment_id in requested
                ),
            )

    def identity(self) -> dict:
        """The fields (plus code version) that determine the artifacts."""
        return {
            "scale": self.scale,
            "seed": self.seed,
            "include_extensions": self.include_extensions,
            "experiments": (
                list(self.experiments) if self.experiments is not None else None
            ),
            "code_version": __version__,
        }

    def key(self) -> str:
        """Content hash of :meth:`identity` — the dedupe/storage key."""
        blob = json.dumps(
            self.identity(), sort_keys=True, separators=(",", ":")
        )
        return sha256(blob.encode("utf-8"))

    def resolve_scale(self) -> Scale:
        """The :class:`Scale` preset this spec names (validating)."""
        return get_scale(self.scale)

    def to_dict(self) -> dict:
        """JSON-ready representation (the API echoes it back)."""
        return {
            "scale": self.scale,
            "seed": self.seed,
            "include_extensions": self.include_extensions,
            "experiments": (
                list(self.experiments) if self.experiments is not None else None
            ),
            "jobs": self.jobs,
            "unit_timeout": self.unit_timeout,
            "use_cache": self.use_cache,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, data: object) -> "CampaignSpec":
        """Build a spec from untrusted JSON, strictly validated.

        Unknown fields, wrong types, unknown scale presets and
        out-of-range numbers all raise
        :class:`~repro.errors.ExperimentError` — the API maps that to a
        client error, never a server crash.
        """
        if not isinstance(data, dict):
            raise ExperimentError(
                f"campaign spec must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - set(cls._FIELDS)
        if unknown:
            raise ExperimentError(
                f"unknown campaign spec field(s): {', '.join(sorted(unknown))}"
            )
        kwargs = {}
        for name, validate in cls._FIELDS.items():
            if name in data:
                kwargs[name] = validate(name, data[name])
        return cls(**kwargs)


def _check_type(name: str, value: object, types: tuple, label: str) -> object:
    if isinstance(value, bool) and bool not in types:
        raise ExperimentError(f"spec field {name!r} must be {label}")
    if not isinstance(value, types):
        raise ExperimentError(f"spec field {name!r} must be {label}")
    return value


def _spec_str(name: str, value: object) -> str:
    return _check_type(name, value, (str,), "a string")  # type: ignore[return-value]


def _spec_bool(name: str, value: object) -> bool:
    return _check_type(name, value, (bool,), "a boolean")  # type: ignore[return-value]


def _spec_int(lo: int, hi: int):
    def validate(name: str, value: object) -> int:
        _check_type(name, value, (int,), "an integer")
        if not lo <= value <= hi:  # type: ignore[operator]
            raise ExperimentError(
                f"spec field {name!r} must be within {lo}..{hi}, got {value}"
            )
        return value  # type: ignore[return-value]

    return validate


def _spec_jobs(name: str, value: object) -> Optional[int]:
    """Auto (0) or at most this host's usable CPUs: a pool forks all its
    workers at the first unit, so a client must not choose more."""
    if value is None:
        return None
    return _spec_int(0, resolve_jobs(0))(name, value)


def _spec_experiments(name: str, value: object) -> Optional[tuple]:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise ExperimentError(
            f"spec field {name!r} must be a non-empty list of experiment ids"
        )
    for item in value:
        _check_type(name, item, (str,), "a list of strings")
    return tuple(value)  # canonicalised (and unknown ids refused) by the spec


def _spec_timeout(name: str, value: object) -> Optional[float]:
    if value is None:
        return None
    _check_type(name, value, (int, float), "a number")
    return check_unit_timeout(value, f"spec field {name!r}")


CampaignSpec._FIELDS = {
    "scale": _spec_str,
    "seed": _spec_int(-(2**53), 2**53),
    "include_extensions": _spec_bool,
    "experiments": _spec_experiments,
    "jobs": _spec_jobs,
    "unit_timeout": _spec_timeout,
    "use_cache": _spec_bool,
    "priority": _spec_int(-100, 100),
}


@dataclasses.dataclass(frozen=True)
class CampaignSummary:
    """Outcome of one campaign."""

    scale: str
    seed: int
    results: List[ExperimentResult]
    wall_clock_seconds: float
    output_dir: Optional[Path]
    #: sweep workers: the pool size (1 = serial) or, under a coordinator,
    #: the connected workers that completed a unit (1 when none did, as
    #: when every sweep was a cache hit)
    jobs: int = 1
    #: aggregate simulation time across all sweep workers
    worker_seconds: float = 0.0
    #: sweeps answered from the in-process or on-disk cache
    cache_hits: int = 0

    @property
    def passed(self) -> bool:
        """Whether every shape check of every experiment passed."""
        return all(result.passed for result in self.results)

    @property
    def unit_time_per_wall(self) -> float:
        """Sweep-unit seconds per campaign wall-clock second.

        Summed over workers, so it tops 1 only when units overlap; it is
        not a gain over serial (a serial campaign that spends most of its
        time outside sweep units reads well below 1).
        """
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.worker_seconds / self.wall_clock_seconds

    @property
    def check_counts(self) -> tuple[int, int]:
        """(passed, total) shape checks across the campaign."""
        total = sum(len(result.checks) for result in self.results)
        passed = sum(
            sum(1 for check in result.checks if check.passed)
            for result in self.results
        )
        return passed, total

    def to_text(self) -> str:
        """One-line-per-experiment summary."""
        passed, total = self.check_counts
        lines = [
            f"campaign scale={self.scale} seed={self.seed}: "
            f"{passed}/{total} checks passed "
            f"in {self.wall_clock_seconds:.0f}s"
        ]
        lines.append(
            f"  execution: jobs={self.jobs}, "
            f"{self.worker_seconds:.1f}s worker simulation time, "
            f"unit time {self.unit_time_per_wall:.1f}x wall, "
            f"{self.cache_hits} sweep cache hit(s)"
        )
        for result in self.results:
            status = "PASS" if result.passed else "FAIL"
            lines.append(f"  [{status}] {result.experiment_id}: {result.title}")
        return "\n".join(lines)


#: Campaign state file name under the checkpoint dir.  The checkpoint
#: payload embeds the completed experiments' full results, so a single
#: digest-protected file carries everything a resume needs.
_STATE_FILE = "campaign-state.json"


def _load_campaign_state(state_path: Path, identity: dict) -> List[ExperimentResult]:
    """Completed results of an interrupted campaign, or raise."""
    document = read_checkpoint(state_path, expected_kind=KIND_CAMPAIGN)
    recorded = {
        key: document.payload.get(key) for key in identity
    }
    if recorded != identity:
        raise CheckpointError(
            f"campaign state {state_path} was written for {recorded}, "
            f"cannot resume it as {identity}"
        )
    try:
        return [result_from_dict(item) for item in document.payload["completed"]]
    except (KeyError, TypeError, SerializationError) as exc:
        raise CheckpointError(
            f"campaign state {state_path} holds malformed results: {exc}"
        ) from exc


def run_campaign(
    spec: CampaignSpec,
    *,
    output_dir: Optional[Union[str, Path]] = None,
    echo=None,
    cache_dir: Optional[Union[str, Path]] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    telemetry: Optional[Telemetry] = None,
    show_progress: Optional[bool] = None,
    coordinator: Optional[object] = None,
    on_event: Optional[CampaignEventFn] = None,
    cancel: Optional[threading.Event] = None,
) -> CampaignSummary:
    """Run the experiments ``spec`` names; optionally persist the artifacts.

    This is the one driver behind every verb that runs experiments and
    the API scheduler: the spec carries what to compute (scale, seed,
    experiments) and how to fan it out (``jobs``, ``unit_timeout``,
    ``use_cache``); the keyword arguments carry where to put it and how
    to observe it (storage paths are caller policy — a network client
    never chooses server filesystem locations).

    The experiments are ``spec.experiments`` (already in registry order)
    or, without a subset, every paper artifact plus, with
    ``spec.include_extensions``, the extension studies.  With
    ``output_dir`` the campaign writes ``campaign.md`` (markdown of
    every result), ``campaign.json`` (raw series + checks, reloadable via
    :func:`repro.experiments.results_io.load_results`) and
    ``summary.txt``; ``echo`` receives each result's text as it
    completes, and the resume and interrupt notices go to stderr.

    Before the first experiment, the units of every sweep the remaining
    experiments declare (and no cache holds) are queued, largest ``n``
    first, on the campaign's one unit queue.  ``spec.jobs`` runs them on
    one pool of that many worker processes, and each experiment waits
    only for its own sweeps; serially, each sweep runs when an experiment
    reads it.  ``cache_dir`` enables the persistent sweep cache (unless
    ``spec.use_cache`` is false); neither changes any measured number
    (``campaign.json`` is byte-identical for every ``jobs`` value and
    for cold vs warm caches).  ``spec.unit_timeout`` bounds how long one
    sweep unit may run on a pool worker, counted from when the worker
    picks it up.

    ``coordinator`` — a started :class:`repro.dist.Coordinator`, owned
    by the caller — leases the sweep units to ``repro-bgp worker``
    processes instead of a local pool (``jobs`` and ``unit_timeout`` are
    then unused).  Every unit is deterministically seeded, so the
    artifacts stay byte-identical to a serial run — the same guarantee
    ``jobs`` carries.

    ``checkpoint_dir`` makes the campaign restartable: each completed
    experiment is recorded there as it finishes, and sweep units
    checkpoint after every C-event but the last.  A campaign state found
    there is resumed — completed experiments are restored, the
    interrupted unit continues from its checkpoint — producing artifacts
    identical to an uninterrupted run; a state of another campaign, or a
    corrupt one, raises :class:`~repro.errors.CheckpointError` before
    any work starts.  A ``KeyboardInterrupt`` flushes completed state
    before propagating, whether or not checkpointing is enabled.

    Observability: ``telemetry`` (or, when ``output_dir`` is set, a hub
    created here) is installed as the ambient sink for the campaign's
    simulations and written to ``<output_dir>/telemetry.jsonl``.  A live
    progress line (experiments done/total, ETA, cache hits) is rendered
    on stderr when it is a TTY; ``show_progress`` forces it on or off.
    ``on_event`` additionally receives one structured dict per progress
    event (campaign started, sweep unit done, experiment done,
    interrupted) — the feed behind the API's NDJSON event streams.
    Neither affects any measured number.

    ``cancel`` — a :class:`threading.Event` — requests cooperative
    cancellation: the campaign checks it between experiments and raises
    :class:`CampaignCancelled`, flushing completed state exactly like a
    ``KeyboardInterrupt`` (so a later run with the same checkpoint
    directory continues where cancellation struck).
    """
    scale = spec.resolve_scale()
    seed = spec.seed
    started = time.monotonic()
    state_path = None
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        state_path = checkpoint_dir / _STATE_FILE

    # The state payload records the identity without the code version
    # (unit checkpoints check their own release range).
    identity = {
        key: value for key, value in spec.identity().items() if key != "code_version"
    }
    results: List[ExperimentResult] = []
    if state_path is not None and state_path.exists():
        results = _load_campaign_state(state_path, identity)
        if echo is not None and results:
            print(
                f"resuming: {len(results)} completed experiment(s) restored "
                f"({', '.join(r.experiment_id for r in results)})",
                file=sys.stderr,
            )
    done: Set[str] = {result.experiment_id for result in results}

    def flush_state() -> None:
        if state_path is None or not results:
            return
        write_checkpoint(
            state_path,
            KIND_CAMPAIGN,
            {
                **identity,
                "completed": [result_to_dict(result) for result in results],
            },
        )

    ids = (
        list(spec.experiments)
        if spec.experiments is not None
        else experiment_ids(include_extensions=spec.include_extensions)
    )
    if telemetry is None and output_dir is not None:
        telemetry = Telemetry(
            meta={"run_kind": "campaign", "scale": scale.name, "seed": seed}
        )
    progress = ProgressLine(
        total=len(ids),
        label="experiments",
        enabled=show_progress,
        done=sum(1 for experiment_id in ids if experiment_id in done),
    )
    emit: CampaignEventFn = on_event if on_event is not None else (lambda event: None)
    emit(
        {
            "event": "campaign_started",
            "scale": scale.name,
            "seed": seed,
            "total": len(ids),
            "completed": progress.done,
        }
    )

    def unit_done(unit) -> None:
        emit(
            {
                "event": "unit_done",
                "scenario": unit.scenario,
                "n": unit.n,
                "batch_index": unit.batch_index,
                "num_batches": unit.num_batches,
            }
        )

    with contextlib.ExitStack() as stack:
        if telemetry is not None:
            stack.enter_context(telemetry_session(telemetry))
        execution = stack.enter_context(
            sweep_execution(
                jobs=spec.jobs,
                cache_dir=cache_dir if spec.use_cache else None,
                checkpoint_dir=checkpoint_dir,
                unit_timeout=spec.unit_timeout,
                coordinator=coordinator,
                on_unit_done=unit_done if on_event is not None else None,
            )
        )
        try:
            # Every sweep the campaign will read is queued now, largest
            # units first, on the execution's one unit queue.
            todo = [experiment_id for experiment_id in ids if experiment_id not in done]
            execution.plan(declared_sweeps(todo, scale, seed=seed), scale, seed=seed)
            for experiment_id in ids:
                if experiment_id in done:
                    continue
                if cancel is not None and cancel.is_set():
                    raise CampaignCancelled(
                        f"campaign cancelled after {len(results)} experiment(s)"
                    )
                result = run_experiment(experiment_id, scale, seed=seed)
                results.append(result)
                flush_state()
                progress.advance(
                    extra=(
                        f"{experiment_id}, "
                        f"{execution.cache_hits} cache hit(s)"
                    )
                )
                emit(
                    {
                        "event": "experiment_done",
                        "experiment_id": experiment_id,
                        "passed": result.passed,
                        "done": progress.done,
                        "total": progress.total,
                        "cache_hits": execution.cache_hits,
                    }
                )
                if echo is not None:
                    echo(result.to_text())
                    echo("")
        except KeyboardInterrupt:
            # Persist what completed (the sweep cache has already stored
            # every finished sweep), then let the interrupt propagate: a
            # warm rerun only redoes the interrupted work.  The finally
            # below terminates the progress line (idempotently — a second
            # finish here used to write a stray blank line on TTYs).
            flush_state()
            emit(
                {
                    "event": "campaign_interrupted",
                    "completed": len(results),
                    "total": len(ids),
                }
            )
            if echo is not None:
                resume = (
                    ""
                    if checkpoint_dir is None
                    else f"; rerun with --checkpoint-dir {checkpoint_dir} to continue"
                )
                print(
                    f"interrupted: {len(results)} experiment(s) completed{resume}",
                    file=sys.stderr,
                )
            raise
        finally:
            progress.finish()
    if state_path is not None:
        state_path.unlink(missing_ok=True)
    summary = CampaignSummary(
        scale=scale.name,
        seed=seed,
        results=results,
        wall_clock_seconds=time.monotonic() - started,
        output_dir=Path(output_dir) if output_dir is not None else None,
        jobs=(
            resolve_jobs(spec.jobs)
            if coordinator is None
            else max(
                1,
                sum(1 for stats in coordinator.worker_stats() if stats["units_done"]),
            )
        ),
        worker_seconds=execution.worker_seconds,
        cache_hits=execution.cache_hits,
    )
    if summary.output_dir is not None:
        summary.output_dir.mkdir(parents=True, exist_ok=True)
        (summary.output_dir / "campaign.md").write_text(
            "\n".join(result.to_markdown() for result in results),
            encoding="utf-8",
        )
        save_results(results, summary.output_dir / "campaign.json")
        (summary.output_dir / "summary.txt").write_text(
            summary.to_text() + "\n", encoding="utf-8"
        )
        if telemetry is not None:
            telemetry.set_gauge("campaign.wall_clock_seconds", summary.wall_clock_seconds)
            telemetry.set_gauge("campaign.worker_seconds", summary.worker_seconds)
            telemetry.inc("campaign.experiments", len(results))
            telemetry.inc("cache.hits.total", execution.cache_hits)
            write_telemetry_jsonl(
                telemetry, summary.output_dir / TELEMETRY_FILENAME
            )
    return summary
