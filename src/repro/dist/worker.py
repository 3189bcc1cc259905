"""The worker: a pull-based sweep-unit execution loop.

``repro-bgp worker host:port`` runs :func:`run_worker`: connect (with
capped exponential backoff + jitter on transient failures), register,
then loop — request a lease, execute the unit through the sweep layer's
unit runner (the one pool workers use: checkpointed when a checkpoint
directory is configured, so a worker restarted after a crash resumes its
unit mid-batch instead of starting over, and under a telemetry hub of its
own), and stream the result plus that hub's counters back in one RESULT
frame.

While a unit executes, a background thread heartbeats the coordinator to
renew the lease; request/response pairs share the socket under a lock,
so the protocol stays strictly synchronous per connection.  A connection
lost mid-unit does not lose the work: the worker finishes the unit,
reconnects, re-registers and submits the result anyway — the coordinator
accepts it if the unit is still open and discards it as a duplicate if a
re-lease already completed it (results are deterministic, so either
outcome is byte-identical).
"""

from __future__ import annotations

import logging
import random
import socket
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core.sweep import _run_unit
from repro.dist.protocol import (
    MSG_HEARTBEAT,
    MSG_LEASE,
    MSG_NACK,
    MSG_REGISTER,
    MSG_RESULT,
    MSG_SHUTDOWN,
    FrameStream,
    batch_result_to_wire,
    unit_from_wire,
)
from repro.errors import (
    ConnectionLostError,
    DistributedError,
    ProtocolError,
    ReproError,
)

_LOG = logging.getLogger(__name__)


class _Connection:
    """One registered coordinator connection with serialized round trips."""

    def __init__(self, stream: FrameStream, hello: Dict[str, object]) -> None:
        self.stream = stream
        self.worker_id = str(hello.get("worker_id", "?"))
        self.heartbeat_interval = float(hello.get("heartbeat_interval_s", 5.0))
        self._lock = threading.Lock()

    def request(self, message: Dict[str, object]) -> Optional[Dict[str, object]]:
        """Send one message and read its reply (atomic on this socket)."""
        with self._lock:
            self.stream.send(message)
            return self.stream.recv()

    def close(self) -> None:
        self.stream.close()


def _connect(
    address: Tuple[str, int],
    *,
    max_attempts: int,
    backoff_base: float,
    backoff_cap: float,
    rng: random.Random,
    echo: Optional[Callable[[str], None]],
) -> _Connection:
    """Dial + register, retrying transient failures with backoff + jitter."""
    last_error: Optional[Exception] = None
    for attempt in range(max_attempts):
        if attempt:
            # Full jitter on a capped exponential: desynchronizes a fleet
            # of workers all chasing a restarting coordinator.
            delay = min(backoff_cap, backoff_base * (2 ** (attempt - 1)))
            delay *= 0.5 + rng.random() / 2.0
            time.sleep(delay)
        try:
            sock = socket.create_connection(address, timeout=10.0)
            sock.settimeout(None)
            stream = FrameStream(sock)
            stream.send({"type": MSG_REGISTER})
            hello = stream.recv()
            if hello is None or hello["type"] != MSG_REGISTER:
                stream.close()
                raise ProtocolError(
                    f"coordinator did not acknowledge registration: {hello!r}"
                )
            return _Connection(stream, hello)
        except (OSError, ProtocolError) as exc:
            last_error = exc
            _LOG.info(
                "connect attempt %d/%d to %s:%d failed: %s",
                attempt + 1,
                max_attempts,
                address[0],
                address[1],
                exc,
            )
            if echo is not None:
                echo(f"connect attempt {attempt + 1}/{max_attempts} failed: {exc}")
    raise DistributedError(
        f"cannot reach coordinator at {address[0]}:{address[1]} after "
        f"{max_attempts} attempts: {last_error}"
    )


class _HeartbeatPump:
    """Renew one lease in the background while the unit executes."""

    def __init__(self, connection: _Connection, lease_id: str) -> None:
        self._connection = connection
        self._lease_id = lease_id
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="dist-heartbeat", daemon=True
        )

    def __enter__(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self._connection.heartbeat_interval):
            try:
                reply = self._connection.request(
                    {"type": MSG_HEARTBEAT, "lease_id": self._lease_id}
                )
            except (OSError, ProtocolError):
                return  # connection gone; the main loop will reconnect
            if reply is None or reply.get("type") != MSG_HEARTBEAT:
                return


def run_worker(
    address: Union[str, Tuple[str, int]],
    *,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    max_units: Optional[int] = None,
    max_connect_attempts: int = 8,
    backoff_base: float = 0.5,
    backoff_cap: float = 15.0,
    collect_telemetry: bool = True,
    echo: Optional[Callable[[str], None]] = None,
    rng: Optional[random.Random] = None,
) -> int:
    """Serve one coordinator until it says SHUTDOWN; returns units done.

    ``max_units`` bounds how many units this worker executes before
    exiting voluntarily (tests and spot-instance style draining); the
    default runs until the campaign ends.  Transient connect failures are
    retried ``max_connect_attempts`` times with capped exponential
    backoff and full jitter; a connection lost *mid-campaign* restarts
    the same dial loop, and an already-computed result is resubmitted
    after the reconnect rather than recomputed.  A coordinator that
    answers with a frame this build cannot use (a wrong or retired
    message kind, a malformed unit) ends the session too; after
    ``max_connect_attempts`` such sessions in a row with no unit finished,
    :class:`~repro.errors.DistributedError` is raised instead of
    reconnecting again.  ``collect_telemetry=False`` sends each result
    without its unit's counters.
    """
    if isinstance(address, str):
        from repro.dist.coordinator import parse_address

        target = parse_address(address)
    else:
        target = (address[0], int(address[1]))
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
    rng = rng if rng is not None else random.Random()
    units_done = 0
    # sessions in a row that ended on an unusable frame, no unit finished
    unusable_sessions = 0
    pending_result: Optional[Dict[str, object]] = None
    connection: Optional[_Connection] = None
    try:
        while True:
            if connection is None:
                connection = _connect(
                    target,
                    max_attempts=max_connect_attempts,
                    backoff_base=backoff_base,
                    backoff_cap=backoff_cap,
                    rng=rng,
                    echo=echo,
                )
                if echo is not None:
                    echo(
                        f"registered as {connection.worker_id} with "
                        f"{target[0]}:{target[1]}"
                    )
            try:
                if pending_result is not None:
                    reply = connection.request(pending_result)
                    if reply is None:
                        raise ConnectionLostError("coordinator closed during result")
                    if reply.get("type") == MSG_SHUTDOWN:
                        return units_done
                    pending_result = None
                    units_done += 1
                    unusable_sessions = 0
                    if max_units is not None and units_done >= max_units:
                        return units_done
                    continue
                reply = connection.request({"type": MSG_LEASE})
                if reply is None:
                    raise ConnectionLostError("coordinator closed the connection")
                if reply["type"] == MSG_SHUTDOWN:
                    if echo is not None:
                        echo("coordinator says shutdown; exiting")
                    return units_done
                if reply["type"] != MSG_LEASE:
                    raise ProtocolError(
                        f"expected a lease reply, got {reply['type']!r}"
                    )
                if reply.get("unit") is None:
                    time.sleep(float(reply.get("retry_after_s", 0.5)))
                    continue
                unit = unit_from_wire(reply["unit"])
                lease_id = str(reply.get("lease_id"))
                unit_key = str(reply.get("unit_key"))
                if echo is not None:
                    echo(
                        f"leased unit {unit.scenario} n={unit.n} "
                        f"batch {unit.batch_index + 1}/{unit.num_batches}"
                    )
                started = time.monotonic()
                try:
                    with _HeartbeatPump(connection, lease_id):
                        result, counters = _run_unit(unit, checkpoint_dir)
                except ReproError as exc:
                    # Deterministic failure: retrying elsewhere cannot
                    # help, so tell the coordinator to fail the sweep.
                    connection.request(
                        {
                            "type": MSG_NACK,
                            "lease_id": lease_id,
                            "unit_key": unit_key,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    continue
                pending_result = {
                    "type": MSG_RESULT,
                    "lease_id": lease_id,
                    "unit_key": unit_key,
                    "result": batch_result_to_wire(result),
                    "wall_clock_seconds": time.monotonic() - started,
                    "telemetry": counters if collect_telemetry else {},
                }
            except (OSError, ConnectionLostError) as exc:
                _LOG.warning("connection to coordinator lost: %s", exc)
                if echo is not None:
                    echo(f"connection lost ({exc}); reconnecting")
                connection.close()
                connection = None
            except ProtocolError as exc:
                # The coordinator sent a frame this build cannot use.
                # Reconnecting reaches the same coordinator, so only a
                # bounded number of such sessions are retried.
                connection.close()
                connection = None
                unusable_sessions += 1
                if unusable_sessions >= max_connect_attempts:
                    raise DistributedError(
                        f"coordinator at {target[0]}:{target[1]} sent an "
                        f"unusable frame in {unusable_sessions} consecutive "
                        f"sessions: {exc}"
                    ) from exc
                _LOG.warning("unusable frame from coordinator: %s", exc)
                if echo is not None:
                    echo(f"unusable frame ({exc}); reconnecting")
    finally:
        if connection is not None:
            try:
                connection.request({"type": MSG_SHUTDOWN})
            except (OSError, ProtocolError):
                pass
            connection.close()
