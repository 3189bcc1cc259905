"""The campaign-scheduling core: spec → key → dedupe → queue → execute.

A :class:`CampaignScheduler` owns a bounded pool of executor threads and
a priority queue of :class:`CampaignJob` objects, each identified by its
spec's content key (:meth:`~repro.experiments.campaign.CampaignSpec.key`).
Submitting an identical spec while a job is queued, running, or done
joins the existing job instead of executing again — and completed
artifacts persist under ``data_dir/jobs/<id>/``, so the dedupe extends
across scheduler restarts.  Per-tenant quotas bound how much any single
API key can queue and how many of its campaigns run concurrently.

The scheduler is transport-free: :class:`~repro.api.server.ApiServer`
drives it over HTTP, tests drive it directly, and nothing here knows a
socket exists.  All public methods are thread-safe.

Cancellation maps onto the campaign layer's checkpoint/interrupt flush
path: :meth:`cancel` sets the job's cancel event, the running campaign
raises :class:`~repro.experiments.campaign.CampaignCancelled` at the
next experiment boundary (flushing completed state), and a later
resubmission of the same spec resumes from that state.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ApiError
from repro.files import atomic_writer
from repro.experiments.campaign import (
    CampaignCancelled,
    CampaignSpec,
    CampaignSummary,
    run_campaign,
)

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

#: states in which a resubmitted identical spec joins the existing job
_JOINABLE_STATES = frozenset({STATE_QUEUED, STATE_RUNNING, STATE_DONE})
#: states a job can never leave on its own
TERMINAL_STATES = frozenset({STATE_DONE, STATE_FAILED, STATE_CANCELLED})

#: artifacts a completed campaign may serve, by public name
ARTIFACT_NAMES = ("campaign.json", "campaign.md", "summary.txt", "telemetry.jsonl")

#: metadata file recording a job's terminal state inside its job dir
_JOB_META_FILE = "job.json"

#: hex digits of the spec key used as the public campaign id
_JOB_ID_LEN = 16


@dataclasses.dataclass
class CampaignJob:
    """One scheduled campaign: a spec plus its lifecycle and event log."""

    job_id: str
    spec: CampaignSpec
    tenant: str
    state: str = STATE_QUEUED
    submitted_at: float = 0.0
    #: monotonically growing structured event log (see events_since)
    events: List[dict] = dataclasses.field(default_factory=list)
    cancel_event: threading.Event = dataclasses.field(
        default_factory=threading.Event
    )
    error: Optional[str] = None
    #: filled on STATE_DONE
    passed: Optional[bool] = None
    summary_text: Optional[str] = None
    #: executions this job has gone through (a cancel + resubmit is 2)
    runs: int = 0
    #: heap-entry validity token (lazy removal of stale queue entries)
    queue_seq: int = -1

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def describe(self) -> dict:
        """JSON-ready status document (what ``GET /campaigns/<id>`` serves)."""
        return {
            "id": self.job_id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "tenant": self.tenant,
            "submitted_at": self.submitted_at,
            "runs": self.runs,
            "events": len(self.events),
            "error": self.error,
            "passed": self.passed,
            "summary": self.summary_text,
            "artifacts": list(ARTIFACT_NAMES) if self.state == STATE_DONE else [],
        }


class CampaignScheduler:
    """Bounded, fair, deduplicating executor for campaign specs.

    ``max_running`` executor threads drain a priority queue (higher
    ``spec.priority`` first, FIFO within a priority).  ``data_dir``
    holds per-job artifact directories, per-job checkpoint directories
    (which is what makes cancelled campaigns resumable) and, unless
    ``cache_dir`` points elsewhere, the shared content-addressed sweep
    cache every job reads and writes.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        *,
        max_running: int = 1,
        max_queued_per_tenant: int = 8,
        max_running_per_tenant: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_running < 1:
            raise ApiError(500, f"max_running must be >= 1, got {max_running}")
        if max_queued_per_tenant < 1 or max_running_per_tenant < 1:
            raise ApiError(500, "per-tenant quotas must be >= 1")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else self.data_dir / "sweep-cache"
        )
        self.max_running = max_running
        self.max_queued_per_tenant = max_queued_per_tenant
        self.max_running_per_tenant = max_running_per_tenant
        self._cond = threading.Condition()
        # --- state below is guarded by self._cond ---
        self._jobs: Dict[str, CampaignJob] = {}
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, job_id)
        self._seq = 0
        self._closing = False
        #: total run_campaign invocations — the dedupe proof in tests
        self.executions = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"campaign-exec-{i}", daemon=True
            )
            for i in range(max_running)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission / dedupe / quotas
    # ------------------------------------------------------------------
    def submit(
        self, spec: CampaignSpec, tenant: str = "anonymous"
    ) -> Tuple[CampaignJob, bool]:
        """Schedule ``spec`` (or join the job already answering it).

        Returns ``(job, scheduled)``: ``scheduled`` is True when this
        call caused a (re-)execution to be queued, False when the spec
        was answered by an existing queued/running/completed job.
        Raises :class:`~repro.errors.ApiError` (status 429) when the
        tenant's queued-job quota is exhausted.
        """
        job_id = spec.key()[:_JOB_ID_LEN]
        with self._cond:
            if self._closing:
                raise ApiError(503, "scheduler is shutting down")
            job = self._jobs.get(job_id)
            if job is not None and job.state in _JOINABLE_STATES:
                return job, False
            if job is None:
                restored = self._restore_completed_locked(job_id, spec, tenant)
                if restored is not None:
                    return restored, False
            queued = sum(
                1
                for other in self._jobs.values()
                if other.tenant == tenant and other.state == STATE_QUEUED
            )
            if queued >= self.max_queued_per_tenant:
                raise ApiError(
                    429,
                    f"tenant {tenant!r} already has {queued} queued "
                    f"campaign(s) (limit {self.max_queued_per_tenant})",
                )
            if job is None:
                job = CampaignJob(
                    job_id=job_id,
                    spec=spec,
                    tenant=tenant,
                    submitted_at=time.time(),
                )
                self._jobs[job_id] = job
            else:
                # failed or cancelled: requeue the same job — with the
                # checkpoint state still on disk, the new run resumes
                # instead of restarting.
                job.spec = spec
                job.state = STATE_QUEUED
                job.error = None
                job.cancel_event = threading.Event()
            self._push_locked(job)
            self._record_locked(
                job,
                {
                    "event": "job_queued",
                    "id": job.job_id,
                    "tenant": tenant,
                    "priority": spec.priority,
                    "resumed": job.runs > 0,
                },
            )
            return job, True

    def _push_locked(self, job: CampaignJob) -> None:
        self._seq += 1
        job.queue_seq = self._seq
        heapq.heappush(self._heap, (-job.spec.priority, self._seq, job.job_id))
        self._cond.notify_all()

    def _restore_completed_locked(
        self, job_id: str, spec: CampaignSpec, tenant: str
    ) -> Optional[CampaignJob]:
        """Adopt a finished job dir from a previous scheduler process.

        The job id embeds the code version, so stale artifacts from an
        older build can never be mistaken for the current spec's answer.
        """
        meta_path = self.job_dir(job_id) / _JOB_META_FILE
        if not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(meta, dict) or meta.get("state") != STATE_DONE:
            return None
        job = CampaignJob(
            job_id=job_id,
            spec=spec,
            tenant=tenant,
            state=STATE_DONE,
            submitted_at=time.time(),
            passed=meta.get("passed"),
            summary_text=meta.get("summary"),
            runs=int(meta.get("runs") or 1),
        )
        self._jobs[job_id] = job
        self._record_locked(
            job, {"event": "job_restored", "id": job_id, "from": str(meta_path)}
        )
        return job

    # ------------------------------------------------------------------
    # Lookup / events / artifacts
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> CampaignJob:
        """The job with this id, or :class:`ApiError` 404."""
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise ApiError(404, f"unknown campaign {job_id!r}")
        return job

    def list_jobs(self) -> List[dict]:
        """Status documents of every known job, newest submission first."""
        with self._cond:
            jobs = sorted(
                self._jobs.values(), key=lambda job: -job.submitted_at
            )
            return [job.describe() for job in jobs]

    def events_since(
        self, job_id: str, start: int, timeout: float = 10.0
    ) -> Tuple[List[dict], bool]:
        """Events after index ``start`` (blocking up to ``timeout``).

        Returns ``(new_events, terminal)``; an empty list with
        ``terminal=False`` means the timeout passed without news.  The
        API's NDJSON streamer long-polls this off the event loop.
        """
        job = self.get(job_id)
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if len(job.events) > start or job.terminal or self._closing:
                    # a closing scheduler ends every stream (terminal) so
                    # no client is left long-polling a dead service
                    return list(job.events[start:]), job.terminal or self._closing
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False
                self._cond.wait(timeout=remaining)

    def job_dir(self, job_id: str) -> Path:
        """Artifact directory of one job (content-addressed by spec key)."""
        return self.data_dir / "jobs" / job_id

    def artifact_path(self, job_id: str, name: str) -> Path:
        """Path of a completed job's artifact, or :class:`ApiError`."""
        job = self.get(job_id)
        if name not in ARTIFACT_NAMES:
            raise ApiError(404, f"unknown artifact {name!r}")
        if job.state != STATE_DONE:
            raise ApiError(409, f"campaign {job_id} is {job.state}, not done")
        path = self.job_dir(job_id) / name
        if not path.exists():
            raise ApiError(404, f"artifact {name} was not produced")
        return path

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> CampaignJob:
        """Request cancellation; queued jobs die now, running ones soon.

        A running campaign is interrupted cooperatively at its next
        experiment boundary, which flushes completed state through the
        checkpoint path — resubmitting the same spec later resumes.
        """
        job = self.get(job_id)
        with self._cond:
            if job.state == STATE_QUEUED:
                job.state = STATE_CANCELLED
                job.queue_seq = -1  # stale heap entry; skipped at pop
                self._record_locked(
                    job, {"event": "job_cancelled", "id": job_id, "while": "queued"}
                )
            elif job.state == STATE_RUNNING:
                job.cancel_event.set()
                self._record_locked(
                    job, {"event": "cancel_requested", "id": job_id}
                )
        return job

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_eligible_locked(self) -> Optional[CampaignJob]:
        running_by_tenant: Dict[str, int] = {}
        for other in self._jobs.values():
            if other.state == STATE_RUNNING:
                running_by_tenant[other.tenant] = (
                    running_by_tenant.get(other.tenant, 0) + 1
                )
        deferred: List[Tuple[int, int, str]] = []
        picked: Optional[CampaignJob] = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            job = self._jobs.get(entry[2])
            if job is None or job.state != STATE_QUEUED or job.queue_seq != entry[1]:
                continue  # cancelled or stale entry: drop it
            if (
                running_by_tenant.get(job.tenant, 0)
                >= self.max_running_per_tenant
            ):
                deferred.append(entry)  # fairness: tenant is saturated
                continue
            picked = job
            break
        for entry in deferred:
            heapq.heappush(self._heap, entry)
        return picked

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                job = None
                while not self._closing:
                    job = self._pop_eligible_locked()
                    if job is not None:
                        break
                    self._cond.wait(timeout=0.5)
                if job is None:
                    return
                job.state = STATE_RUNNING
                job.runs += 1
                self.executions += 1
                self._record_locked(
                    job, {"event": "job_started", "id": job.job_id, "run": job.runs}
                )
            self._execute(job)

    def _execute(self, job: CampaignJob) -> None:
        output_dir = self.job_dir(job.job_id)
        checkpoint_dir = self.data_dir / "checkpoints" / job.job_id
        try:
            summary = run_campaign(
                job.spec,
                output_dir=output_dir,
                cache_dir=self.cache_dir,
                checkpoint_dir=checkpoint_dir,
                show_progress=False,
                on_event=lambda event: self._record(job, event),
                cancel=job.cancel_event,
            )
        except CampaignCancelled:
            self._finish(job, STATE_CANCELLED)
        except Exception as exc:  # noqa: BLE001 — one job must not kill the pool
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, STATE_FAILED)
        else:
            job.passed = summary.passed
            job.summary_text = summary.to_text()
            self._finish(job, STATE_DONE, summary)

    def _finish(
        self,
        job: CampaignJob,
        state: str,
        summary: Optional[CampaignSummary] = None,
    ) -> None:
        if state == STATE_DONE:
            self._write_job_meta(job)
        with self._cond:
            job.state = state
            event = {"event": f"job_{state}", "id": job.job_id}
            if state == STATE_FAILED:
                event["error"] = job.error
            if summary is not None:
                event["passed"] = summary.passed
                event["wall_clock_seconds"] = summary.wall_clock_seconds
                event["cache_hits"] = summary.cache_hits
            self._record_locked(job, event)

    def _write_job_meta(self, job: CampaignJob) -> None:
        meta = {
            "state": STATE_DONE,
            "spec": job.spec.to_dict(),
            "identity": job.spec.identity(),
            "passed": job.passed,
            "summary": job.summary_text,
            "runs": job.runs,
        }
        path = self.job_dir(job.job_id) / _JOB_META_FILE
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_writer(path) as handle:
            json.dump(meta, handle, indent=1)

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def _record(self, job: CampaignJob, event: dict) -> None:
        with self._cond:
            self._record_locked(job, event)

    def _record_locked(self, job: CampaignJob, event: dict) -> None:
        stamped = dict(event)
        stamped["seq"] = len(job.events)
        stamped["time"] = time.time()
        job.events.append(stamped)
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, cancel_running: bool = True, timeout: float = 10.0) -> None:
        """Stop accepting work, optionally cancel running jobs, join."""
        with self._cond:
            self._closing = True
            if cancel_running:
                for job in self._jobs.values():
                    if job.state == STATE_RUNNING:
                        job.cancel_event.set()
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)

    def __enter__(self) -> "CampaignScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
