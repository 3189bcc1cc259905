"""The coordinator: a lease-based sweep-unit queue served over TCP.

One :class:`Coordinator` lives inside the campaign process (``repro-bgp
serve``).  Workers connect at any time, register, and *pull* leases.
The coordinator is one transport of :class:`~repro.core.sweep.UnitQueue`:
the queue hands it each unit through :meth:`Coordinator.submit` and gets
back a :class:`concurrent.futures.Future` that resolves to the unit's
``(result, counters)`` — what a pool future carries — so ticket order,
``on_unit_done``, counter folding and the assembly of planned sweeps are
the queue's, written once for every transport.  A campaign plans every
sweep it will read up front, so the coordinator sees all of them at
once, and a cached sweep never reaches the wire.

Scheduling is lease-based:

* a granted unit carries a **deadline**; heartbeats from the executing
  worker renew it;
* a worker that disconnects (crash, kill -9 → socket EOF) has its leases
  requeued immediately;
* a worker that goes *silent* while its connection stays open (hung
  host) has its lease expire at the deadline and the unit is re-leased
  to the next idle worker;
* duplicate results — the original worker finishing after its lease was
  re-assigned — are deduplicated by the unit's content key
  (:func:`~repro.checkpoint.batch.unit_checkpoint_key`): the first
  result wins, later ones are acknowledged as duplicates and discarded,
  and identical units submitted while one is outstanding share its
  future.  Every unit is deterministically seeded, so *which* result
  wins is irrelevant — they are bit-identical.

A NACK (a unit's own error on the worker) fails that unit's future with
:class:`~repro.errors.DistributedError`, as does :meth:`Coordinator.close`
for every unit still outstanding.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import logging
import math
import socket
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

from repro.checkpoint.batch import unit_checkpoint_key
from repro.core.cevent import CEventBatchResult
from repro.core.sweep import SweepUnit
from repro.dist.protocol import (
    MSG_HEARTBEAT,
    MSG_LEASE,
    MSG_NACK,
    MSG_REGISTER,
    MSG_RESULT,
    MSG_SHUTDOWN,
    FrameStream,
    batch_result_from_wire,
    unit_to_wire,
)
from repro.errors import DistributedError, ProtocolError
from repro.obs.progress import ProgressLine, format_eta

_LOG = logging.getLogger(__name__)

#: Default TCP port for ``repro-bgp serve`` (unassigned by IANA).
DEFAULT_PORT = 7787

#: How long an idle worker is told to wait before asking again.
_RETRY_AFTER_S = 0.5


def parse_address(address: str, *, default_port: int = DEFAULT_PORT) -> Tuple[str, int]:
    """Split ``host:port`` (port optional) into a connectable pair."""
    text = address.strip()
    if not text:
        raise DistributedError("empty coordinator address")
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise DistributedError(
                f"malformed coordinator address {address!r} (want host:port)"
            ) from exc
    else:
        host, port = text, default_port
    if not 0 <= port <= 65535:
        raise DistributedError(f"port {port} outside 0..65535")
    return host or "127.0.0.1", port


@dataclasses.dataclass
class _WorkerState:
    """Everything the coordinator tracks about one connected worker."""

    worker_id: str
    address: str
    stream: FrameStream
    connected_at: float
    units_done: int = 0
    busy_seconds: float = 0.0
    #: unit keys currently leased to this worker
    leases: set = dataclasses.field(default_factory=set)
    #: serializes frame writes (the handler thread vs the close broadcast)
    send_lock: threading.Lock = dataclasses.field(default_factory=threading.Lock)

    def send(self, message: Dict[str, object]) -> None:
        with self.send_lock:
            self.stream.send(message)

    def stats(self) -> Dict[str, object]:
        """The completion stats :meth:`Coordinator.worker_stats` reports."""
        keys = ("worker_id", "address", "units_done", "busy_seconds")
        return {key: getattr(self, key) for key in keys}


@dataclasses.dataclass
class _UnitJob:
    """One distinct outstanding unit (dedup'd by content key)."""

    key: str
    unit: SweepUnit
    #: resolves to the unit's (result, counters)
    future: concurrent.futures.Future
    #: submissions sharing this job (identical units)
    copies: int = 1
    lease_id: Optional[str] = None
    worker_id: Optional[str] = None
    deadline: float = 0.0

    @property
    def leased(self) -> bool:
        return self.lease_id is not None


def _busy_seconds(message: dict, result: CEventBatchResult) -> float:
    """The unit time a RESULT frame reports, else the result's own.

    Raises :class:`~repro.errors.ProtocolError` unless the reported time
    is absent or a finite number >= 0.
    """
    value = message.get("wall_clock_seconds")
    if value is None:
        return result.wall_clock_seconds
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (math.isfinite(value) and value >= 0)
    ):
        raise ProtocolError(
            f"wall_clock_seconds must be a finite number >= 0, got {value!r}"
        )
    return float(value) or result.wall_clock_seconds


class Coordinator:
    """Serve sweep units to pull-based workers over TCP.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    the actual endpoint.  The object is a context manager: entering
    starts the accept loop, exiting broadcasts SHUTDOWN to connected
    workers and closes the listener.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        lease_timeout: float = 60.0,
        echo: Optional[Callable[[str], None]] = None,
        show_progress: Optional[bool] = None,
    ) -> None:
        if not (math.isfinite(lease_timeout) and lease_timeout > 0):
            raise DistributedError(
                f"lease_timeout must be finite and > 0, got {lease_timeout}"
            )
        self._host = host
        self._port = port
        self.lease_timeout = lease_timeout
        #: workers should heartbeat a few times per lease window
        self.heartbeat_interval = max(0.05, lease_timeout / 4.0)
        self._echo = echo
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._closing = threading.Event()
        self._lock = threading.Lock()
        # --- all state below is guarded by self._lock ---
        self._workers: Dict[str, _WorkerState] = {}
        #: completion stats of workers that have disconnected
        self._departed: List[Dict[str, object]] = []
        self._worker_counter = 0
        self._jobs: Dict[str, _UnitJob] = {}  # outstanding units, by unit key
        self._queue: List[str] = []  # unleased job keys, FIFO
        #: live leases by lease id → unit key.  Heartbeats arrive a few
        #: times per lease window per worker; resolving them through this
        #: index keeps each beat O(1) instead of a scan over every job of
        #: a large grid.
        self._leases: Dict[str, str] = {}
        #: units submitted so far / completed
        self._progress = ProgressLine(total=0, label="units", enabled=show_progress)
        # cumulative stats (over the coordinator's lifetime)
        self.units_completed = 0
        self.dedupe_hits = 0
        self.requeues = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); raises unless :meth:`start` ran."""
        if self._listener is None:
            raise DistributedError("coordinator is not listening")
        return self._listener.getsockname()[:2]

    def start(self) -> "Coordinator":
        """Bind, listen, and start accepting workers in the background."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self._host, self._port))
        except OSError as exc:
            listener.close()
            raise DistributedError(
                f"cannot bind coordinator to {self._host}:{self._port}: {exc}"
            ) from exc
        listener.listen(64)
        # A short accept timeout keeps the loop responsive to close() and
        # lets it expire silent leases.
        listener.settimeout(0.2)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        """Shut down: fail every outstanding unit's future, broadcast
        SHUTDOWN, drop workers, stop listening."""
        if self._closing.is_set():
            return
        self._closing.set()
        with self._lock:
            workers = list(self._workers.values())
            outstanding = list(self._jobs.values())
            self._jobs.clear()
            self._queue.clear()
            self._leases.clear()
        for job in outstanding:
            job.future.set_exception(
                DistributedError("coordinator shut down with units outstanding")
            )
        for worker in workers:
            try:
                worker.send({"type": MSG_SHUTDOWN})
            except (OSError, ProtocolError):
                pass
        # Give workers a moment to say goodbye on their own (their
        # connection threads then clean up) before forcing sockets shut.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            with self._lock:
                if not self._workers:
                    break
            time.sleep(0.05)
        with self._lock:
            leftover = list(self._workers.values())
        for worker in leftover:
            worker.stream.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._listener is not None:
            self._listener.close()
        if self._progress.total:
            self._progress.finish()

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def worker_stats(self) -> List[Dict[str, object]]:
        """Completion stats per connection, closed ones first (for the
        campaign summary): a worker that reconnects has one per connection."""
        with self._lock:
            return self._departed + [w.stats() for w in self._workers.values()]

    # ------------------------------------------------------------------
    # The transport interface (what UnitQueue calls)
    # ------------------------------------------------------------------
    def submit(self, unit: SweepUnit) -> concurrent.futures.Future:
        """Queue ``unit`` for the workers.

        The returned future resolves to the unit's ``(result, counters)``,
        or fails with :class:`~repro.errors.DistributedError` when a
        worker NACKs the unit (deterministic simulation errors are not
        retried, as an inline run would have raised too) or the
        coordinator closes first.  An identical unit still outstanding
        shares its future.
        """
        if self._listener is None:
            raise DistributedError("coordinator is not listening; call start()")
        key = unit_checkpoint_key(unit)
        with self._lock:
            if self._closing.is_set():
                raise DistributedError("coordinator is shut down")
            self._progress.total += 1
            job = self._jobs.get(key)
            if job is not None:
                job.copies += 1
                self.dedupe_hits += 1
            else:
                job = _UnitJob(key=key, unit=unit, future=concurrent.futures.Future())
                self._jobs[key] = job
                self._queue.append(key)
        return job.future

    # ------------------------------------------------------------------
    # Lease bookkeeping (all *_locked helpers expect self._lock held)
    # ------------------------------------------------------------------
    def _requeue_expired_locked(self) -> None:
        now = time.monotonic()
        for key in list(self._leases.values()):
            job = self._jobs[key]
            if now > job.deadline:
                _LOG.warning(
                    "lease %s on unit n=%d batch %d expired (worker %s silent); "
                    "requeueing",
                    job.lease_id,
                    job.unit.n,
                    job.unit.batch_index,
                    job.worker_id,
                )
                self._release_job_locked(job)

    def _drop_lease_locked(self, job: _UnitJob) -> None:
        """Forget ``job``'s lease, if it has one."""
        holder = self._workers.get(job.worker_id or "")
        if holder is not None:
            holder.leases.discard(job.key)
        if job.lease_id is not None:
            self._leases.pop(job.lease_id, None)
        job.lease_id = None
        job.worker_id = None
        job.deadline = 0.0

    def _release_job_locked(self, job: _UnitJob) -> None:
        """Return a leased, unfinished job to the queue."""
        self._drop_lease_locked(job)
        self.requeues += 1
        if job.key not in self._queue:
            self._queue.append(job.key)

    def _next_lease_locked(self, worker: _WorkerState) -> Optional[_UnitJob]:
        while self._queue:
            key = self._queue.pop(0)
            job = self._jobs.get(key)
            if job is None or job.leased:
                continue
            job.lease_id = uuid.uuid4().hex
            job.worker_id = worker.worker_id
            job.deadline = time.monotonic() + self.lease_timeout
            self._leases[job.lease_id] = key
            worker.leases.add(key)
            return job
        return None

    def _progress_extra_locked(self) -> str:
        workers = len(self._workers)
        busy = sum(1 for worker in self._workers.values() if worker.leases)
        parts = [f"{busy}/{workers} worker(s) busy"]
        if self.requeues:
            parts.append(f"{self.requeues} requeued")
        if self.dedupe_hits:
            parts.append(f"{self.dedupe_hits} deduped")
        # Per-worker ETA: mean unit cost over the busy workers' throughput.
        done = [w for w in self._workers.values() if w.units_done]
        if done and workers and self._jobs:
            mean_unit = sum(w.busy_seconds for w in done) / sum(
                w.units_done for w in done
            )
            parts.append(
                f"~{format_eta(mean_unit * len(self._jobs) / workers)}/worker"
            )
        return ", ".join(parts)

    # ------------------------------------------------------------------
    # Per-connection protocol loop
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing.is_set():
            with self._lock:
                self._requeue_expired_locked()
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(None)
            threading.Thread(
                target=self._serve_connection,
                args=(conn, f"{addr[0]}:{addr[1]}"),
                name=f"dist-conn-{addr[1]}",
                daemon=True,
            ).start()
    def _serve_connection(self, conn: socket.socket, address: str) -> None:
        stream = FrameStream(conn)
        worker: Optional[_WorkerState] = None
        try:
            # Keep serving even while closing: the worker exits on its own
            # after the SHUTDOWN broadcast, and cutting the socket first
            # would RST away the buffered goodbye.  close() force-closes
            # stragglers, which lands here as OSError/EOF.
            while True:
                try:
                    message = stream.recv()
                except ProtocolError as exc:
                    _LOG.warning("dropping %s: %s", address, exc)
                    break
                if message is None:  # peer closed
                    break
                kind = message["type"]
                if kind == MSG_REGISTER:
                    worker = self._handle_register(stream, address)
                elif worker is None:
                    _LOG.warning(
                        "%s sent %s before registering; dropping", address, kind
                    )
                    break
                elif kind == MSG_LEASE:
                    self._handle_lease_request(worker)
                elif kind == MSG_HEARTBEAT:
                    self._handle_heartbeat(worker, message)
                elif kind == MSG_RESULT:
                    self._handle_result(worker, message)
                elif kind == MSG_NACK:
                    self._handle_nack(worker, message)
                elif kind == MSG_SHUTDOWN:  # worker says goodbye
                    break
        except OSError:
            pass  # connection reset mid-reply: treated like EOF below
        finally:
            stream.close()
            if worker is not None:
                self._forget_worker(worker)

    def _handle_register(
        self, stream: FrameStream, address: str
    ) -> _WorkerState:
        with self._lock:
            self._worker_counter += 1
            worker = _WorkerState(
                worker_id=f"w{self._worker_counter}",
                address=address,
                stream=stream,
                connected_at=time.monotonic(),
            )
            self._workers[worker.worker_id] = worker
        if self._echo is not None:
            self._echo(f"worker {worker.worker_id} joined from {address}")
        worker.send(
            {
                "type": MSG_REGISTER,
                "worker_id": worker.worker_id,
                "heartbeat_interval_s": self.heartbeat_interval,
                "lease_timeout_s": self.lease_timeout,
            }
        )
        return worker

    def _handle_lease_request(self, worker: _WorkerState) -> None:
        with self._lock:
            job = self._next_lease_locked(worker)
        if self._closing.is_set():
            worker.send({"type": MSG_SHUTDOWN})
            return
        if job is None:
            worker.send(
                {"type": MSG_LEASE, "unit": None, "retry_after_s": _RETRY_AFTER_S}
            )
            return
        worker.send(
            {
                "type": MSG_LEASE,
                "unit": unit_to_wire(job.unit),
                "unit_key": job.key,
                "lease_id": job.lease_id,
                "lease_timeout_s": self.lease_timeout,
            }
        )

    def _handle_heartbeat(self, worker: _WorkerState, message: dict) -> None:
        lease_id = message.get("lease_id")
        known = False
        with self._lock:
            key = self._leases.get(lease_id) if isinstance(lease_id, str) else None
            job = self._jobs.get(key) if key is not None else None
            if (
                job is not None
                and job.lease_id == lease_id
                and job.worker_id == worker.worker_id
            ):
                job.deadline = time.monotonic() + self.lease_timeout
                known = True
        worker.send({"type": MSG_HEARTBEAT, "known": known})

    def _handle_result(self, worker: _WorkerState, message: dict) -> None:
        key = message.get("unit_key")
        try:
            result = batch_result_from_wire(message["result"])
            busy_seconds = _busy_seconds(message, result)
        except (KeyError, ProtocolError) as exc:
            worker.send(
                {"type": MSG_RESULT, "accepted": False, "error": str(exc)}
            )
            return
        with self._lock:
            # The first result closes the job; late duplicates find none.
            job = self._jobs.pop(key, None) if isinstance(key, str) else None
            if job is not None:
                self._drop_lease_locked(job)
                self.units_completed += 1
                worker.units_done += 1
                worker.busy_seconds += busy_seconds
                self._progress.advance(
                    amount=job.copies, extra=self._progress_extra_locked()
                )
        if job is not None:
            job.future.set_result((result, message.get("telemetry")))
        worker.send(
            {
                "type": MSG_RESULT,
                "accepted": job is not None,
                "duplicate": job is None,
            }
        )

    def _handle_nack(self, worker: _WorkerState, message: dict) -> None:
        error = str(message.get("error") or "unit failed on worker")
        lease_id = message.get("lease_id")
        with self._lock:
            key = self._leases.get(lease_id) if isinstance(lease_id, str) else None
            job = self._jobs.pop(key) if key is not None else None
            if job is not None:
                self._drop_lease_locked(job)
        if job is not None:
            job.future.set_exception(
                DistributedError(
                    f"worker {worker.worker_id} failed unit n={job.unit.n} "
                    f"batch {job.unit.batch_index}: {error}"
                )
            )
        else:
            _LOG.warning(
                "worker %s reported an error on no live lease: %s",
                worker.worker_id,
                error,
            )
        worker.send({"type": MSG_NACK})

    def _forget_worker(self, worker: _WorkerState) -> None:
        with self._lock:
            if self._workers.pop(worker.worker_id, None) is not None:
                self._departed.append(worker.stats())
            for key in list(worker.leases):
                job = self._jobs.get(key)
                if job is not None:
                    _LOG.warning(
                        "worker %s disconnected holding unit n=%d batch %d; "
                        "requeueing",
                        worker.worker_id,
                        job.unit.n,
                        job.unit.batch_index,
                    )
                    self._release_job_locked(job)
            worker.leases.clear()
        if self._echo is not None and not self._closing.is_set():
            self._echo(f"worker {worker.worker_id} left")
