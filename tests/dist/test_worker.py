"""Worker failure handling against a coordinator that speaks raw frames.

A coordinator that registers the worker and then answers its lease
requests with a frame the worker cannot use must not keep it
reconnecting forever: such sessions count against the worker's
connect-attempt budget, and running out is a
:class:`~repro.errors.DistributedError`.  Every run here sits under a
thread-join deadline, so a worker that loops fails the test instead of
hanging it.
"""

import json
import socket
import struct
import threading

import pytest

from repro.dist.protocol import (
    MSG_HEARTBEAT,
    MSG_LEASE,
    MSG_REGISTER,
    PROTOCOL_VERSION,
    FrameStream,
    encode_frame,
)
from repro.dist.worker import run_worker
from repro.errors import DistributedError, ProtocolError
from repro.experiments.cli import main

DEADLINE_S = 30.0


def _raw_frame(message):
    """A frame the encoder would refuse to build (a retired kind)."""
    blob = json.dumps({"v": PROTOCOL_VERSION, **message}).encode()
    return struct.pack("!I", len(blob)) + blob


class _FakeCoordinator:
    """Registers every connection, then answers each lease with ``reply``."""

    def __init__(self, reply: bytes) -> None:
        self._reply = reply
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)
        self.address = "%s:%d" % self._listener.getsockname()
        self.sessions = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            sock.settimeout(DEADLINE_S)
            self.sessions += 1
            stream = FrameStream(sock)
            try:
                while (message := stream.recv()) is not None:
                    if message["type"] == MSG_REGISTER:
                        stream.send(
                            {
                                "type": MSG_REGISTER,
                                "worker_id": f"w{self.sessions}",
                                "heartbeat_interval_s": 1.0,
                            }
                        )
                    elif message["type"] == MSG_LEASE:
                        sock.sendall(self._reply)
                    else:
                        break
            except (OSError, ProtocolError):
                pass
            finally:
                stream.close()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()


@pytest.fixture()
def coordinator_replying():
    started = []

    def start(reply: bytes) -> _FakeCoordinator:
        fake = _FakeCoordinator(reply)
        started.append(fake)
        return fake

    yield start
    for fake in started:
        fake.close()


def _within_deadline(target, *args, **kwargs):
    """``target(*args, **kwargs)`` on a thread; its return value or error."""
    outcome = {}

    def run() -> None:
        try:
            outcome["value"] = target(*args, **kwargs)
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=DEADLINE_S)
    assert not thread.is_alive(), "the worker is still reconnecting"
    return outcome


def test_wrong_reply_type_exhausts_the_attempt_budget(coordinator_replying):
    fake = coordinator_replying(encode_frame({"type": MSG_HEARTBEAT}))
    outcome = _within_deadline(
        run_worker, fake.address, max_connect_attempts=3, backoff_base=0.01
    )
    error = outcome.get("error")
    assert isinstance(error, DistributedError), outcome
    assert "expected a lease reply" in str(error)
    assert fake.sessions == 3


def test_retired_partition_frame_ends_the_worker_with_exit_2(
    coordinator_replying, capsys
):
    fake = coordinator_replying(_raw_frame({"type": "partition"}))
    outcome = _within_deadline(
        main, ["worker", fake.address, "--connect-attempts", "2", "--quiet"]
    )
    assert outcome == {"value": 2}
    assert "partition mode, which was removed" in capsys.readouterr().err
    assert fake.sessions == 2
