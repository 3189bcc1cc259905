"""End-to-end distributed sweeps: determinism and crash recovery.

The acceptance bar: a sweep distributed over real workers returns every
measured number bit-identical to the serial run — including after a
worker process is killed mid-unit and its lease is re-issued.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.bgp.config import BGPConfig
from repro.core.sweep import (
    UnitQueue,
    merge_sweep,
    run_growth_sweep,
    sweep_units,
)
from repro.dist.coordinator import Coordinator
from repro.dist.worker import run_worker
from repro.errors import DistributedError

FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)
SWEEP_KW = dict(sizes=[60, 80], config=FAST, num_origins=4, seed=9)

_ROOT = Path(__file__).resolve().parents[2]
_SRC = str(_ROOT / "src")


def _series(result):
    """Every measured number of a sweep (wall clock excluded)."""
    return [
        (
            stats.n,
            stats.origins,
            stats.down_updates_per_type,
            stats.up_updates_per_type,
            stats.mean_down_convergence,
            stats.mean_up_convergence,
            stats.measured_messages,
            {t: f.u_by_rel for t, f in stats.per_type.items()},
        )
        for stats in result.stats
    ]


def _distributed_sweep(coordinator, on_unit_done=None):
    """The Baseline sweep of SWEEP_KW on a :class:`UnitQueue` whose
    transport is ``coordinator``."""
    units = sweep_units(
        "baseline",
        SWEEP_KW["sizes"],
        FAST,
        SWEEP_KW["num_origins"],
        SWEEP_KW["seed"],
        {},
        None,
    )
    with UnitQueue(1, on_unit_done=on_unit_done, coordinator=coordinator) as queue:
        return merge_sweep(units, queue.collect(queue.submit(units)))


@pytest.fixture(scope="module")
def serial_sweep():
    return run_growth_sweep("baseline", **SWEEP_KW)


def _worker_threads(coordinator, count, **kwargs):
    """In-process workers (collect_telemetry=False: the hub is a process
    global, and these share the test process)."""
    host, port = coordinator.address
    threads = [
        threading.Thread(
            target=run_worker,
            args=(f"{host}:{port}",),
            kwargs=dict(collect_telemetry=False, **kwargs),
            daemon=True,
        )
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


def _spawn_worker_process(coordinator, tmp_path, *, fault=None):
    """A worker process; ``fault`` is a :mod:`tests.fault_launcher` spec."""
    host, port = coordinator.address
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([_SRC, str(_ROOT), env.get("PYTHONPATH", "")])
    install = (
        f"from tests.fault_launcher import install; install(r'{fault}'); "
        if fault is not None
        else ""
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            f"{install}from repro.dist.worker import run_worker; "
            f"run_worker('{host}:{port}', checkpoint_dir=r'{tmp_path}')",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestDistributedDeterminism:
    def test_two_workers_match_serial(self, serial_sweep):
        with Coordinator("127.0.0.1", 0, lease_timeout=30.0) as coord:
            threads = _worker_threads(coord, 2)
            result = _distributed_sweep(coord)
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "worker did not exit on SHUTDOWN"
        assert _series(result) == _series(serial_sweep)
        assert coord.units_completed == 2

    def test_worker_joining_mid_sweep(self, serial_sweep):
        # The second worker connects only after the sweep started; late
        # joiners must be handed work like anyone else.
        with Coordinator("127.0.0.1", 0, lease_timeout=30.0) as coord:
            _worker_threads(coord, 1)
            late = []

            def start_late(unit):
                if not late:
                    late.extend(_worker_threads(coord, 1))

            result = _distributed_sweep(coord, on_unit_done=start_late)
        assert _series(result) == _series(serial_sweep)

    def test_max_units_bounds_a_worker(self):
        # A drained worker (max_units=1) exits after one unit; a fresh
        # worker started afterwards picks up the rest of the sweep.
        with Coordinator("127.0.0.1", 0, lease_timeout=30.0) as coord:
            host, port = coord.address
            done = []

            def run_bounded():
                done.append(
                    run_worker(
                        f"{host}:{port}", max_units=1, collect_telemetry=False
                    )
                )

            bounded = threading.Thread(target=run_bounded, daemon=True)
            bounded.start()

            def start_backup(unit):
                # Fires when the bounded worker lands its one unit.
                if not done:
                    _worker_threads(coord, 1)

            result = _distributed_sweep(coord, on_unit_done=start_backup)
            bounded.join(timeout=10.0)
        assert done == [1]  # exited voluntarily after exactly one unit
        assert result.sizes == [60, 80]

    def test_no_workers_means_no_progress_then_failure_on_close(self):
        coord = Coordinator("127.0.0.1", 0, lease_timeout=30.0).start()
        error = []

        def run():
            try:
                _distributed_sweep(coord)
            except DistributedError as exc:
                error.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=0.5)
        assert thread.is_alive(), "sweep must wait for workers, not fail"
        coord.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert error, "closing mid-sweep should raise DistributedError"


class TestWorkerKillRecovery:
    def test_killed_worker_unit_is_releases_and_result_identical(
        self, serial_sweep, tmp_path, monkeypatch
    ):
        # Two real worker *processes*; whichever leases the n=80 unit
        # first dies hard (os._exit, from tests.fault_launcher) after its
        # first measured event.  The coordinator must detect the loss, re-lease
        # the unit (the marker file disarms the fault for the retry), and
        # finish with numbers bit-identical to serial.
        marker = tmp_path / "died.marker"
        fault = f"BASELINE:80:0:1:{marker}"
        with Coordinator("127.0.0.1", 0, lease_timeout=30.0) as coord:
            workers = [
                _spawn_worker_process(coord, tmp_path / "ck", fault=fault)
                for _ in range(2)
            ]
            try:
                result = _distributed_sweep(coord)
            finally:
                for proc in workers:
                    proc.terminate()
                for proc in workers:
                    proc.wait(timeout=10.0)
        assert marker.exists(), "the fault should actually have fired"
        assert coord.requeues >= 1, "the killed worker's lease must requeue"
        assert _series(result) == _series(serial_sweep)
