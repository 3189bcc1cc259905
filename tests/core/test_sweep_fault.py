"""Fault-tolerant parallel sweeps: worker death must not lose the sweep."""

import os
import threading
import time
from pathlib import Path

import pytest

from repro.bgp.config import BGPConfig
from repro.core.sweep import (
    FAULT_INJECT_ENV,
    FAULT_MODE_ENV,
    SweepUnit,
    UnitQueue,
    _run_unit,
    execute_sweep_unit,
    maybe_inject_fault,
    merge_sweep,
    run_growth_sweep,
    sweep_units,
)
from repro.errors import ExperimentError

FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)
SWEEP_KW = dict(sizes=[60, 80], config=FAST, num_origins=4, seed=9)

#: directory for _slow_run_unit's once-per-unit sleep markers
_SLOW_DIR_ENV = "REPRO_TEST_SLOW_DIR"

_real_run_unit = _run_unit


def _slow_run_unit(unit, checkpoint_dir):
    """``_run_unit`` that sleeps once per unit before executing it.

    Module-level so the process pool can pickle it by reference when a
    test installs it as ``repro.core.sweep._run_unit`` (forked workers
    inherit the patch).  The sleep is disarmed by a marker file, so the
    in-process serial retry of a timed-out unit runs at full speed.  The
    n=60 unit sleeps just past the test's ``unit_timeout`` (its worker
    finishes while the collector still waits on n=80), the n=80 unit
    sleeps far past it (its worker dies with the pool).
    """
    slow_dir = os.environ.get(_SLOW_DIR_ENV)
    if slow_dir:
        marker = Path(slow_dir) / f"slept-{unit.n}-{unit.batch_index}"
        if not marker.exists():
            marker.write_text("", encoding="utf-8")
            time.sleep(1.5 if unit.n == 60 else 3.0)
    return _real_run_unit(unit, checkpoint_dir)


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


def _pooled_sweep(**queue_kw):
    """The Baseline sweep of SWEEP_KW on a two-worker :class:`UnitQueue`."""
    units = sweep_units(
        "baseline",
        SWEEP_KW["sizes"],
        FAST,
        SWEEP_KW["num_origins"],
        SWEEP_KW["seed"],
        {},
        None,
    )
    with UnitQueue(2, **queue_kw) as queue:
        return merge_sweep(units, queue.collect(queue.submit(units)))


@pytest.fixture(scope="module")
def serial_sweep():
    return run_growth_sweep("baseline", **SWEEP_KW)


class TestWorkerDeathRecovery:
    """A worker killed mid-unit breaks the pool; the sweep must survive."""

    @pytest.mark.parametrize("with_checkpoints", [False, True], ids=["plain", "ckpt"])
    def test_sweep_survives_worker_death(
        self, serial_sweep, tmp_path, monkeypatch, with_checkpoints
    ):
        marker = tmp_path / "died.marker"
        # Kill the process running the n=80 unit after its first event.
        monkeypatch.setenv(FAULT_INJECT_ENV, f"BASELINE:80:0:1:{marker}")
        result = _pooled_sweep(
            checkpoint_dir=(tmp_path / "ck") if with_checkpoints else None
        )
        assert marker.exists(), "the fault should actually have fired"
        assert _series(result) == _series(serial_sweep)
        if with_checkpoints:
            # The serial retry resumed, completed, and cleaned up.
            assert list((tmp_path / "ck").glob("unit-*.json")) == []

    def test_unit_errors_still_propagate(self, monkeypatch):
        # Fault tolerance covers worker *death*, not simulation errors.
        with pytest.raises(ExperimentError):
            run_growth_sweep("baseline", sizes=[], config=FAST)


class TestFaultInjectionHook:
    def _unit(self):
        return SweepUnit(
            scenario="baseline",
            n=60,
            num_origins=2,
            batch_index=0,
            num_batches=1,
            seed=9,
            config=FAST,
            scenario_kwargs=(),
        )

    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_INJECT_ENV, raising=False)
        maybe_inject_fault(self._unit(), 0)  # must not raise or exit

    def test_noop_for_other_unit(self, tmp_path, monkeypatch):
        marker = tmp_path / "m"
        monkeypatch.setenv(FAULT_INJECT_ENV, f"BASELINE:999:0:0:{marker}")
        maybe_inject_fault(self._unit(), 0)
        assert not marker.exists()

    def test_disarmed_by_marker(self, tmp_path, monkeypatch):
        marker = tmp_path / "m"
        marker.write_text("already died\n", encoding="utf-8")
        monkeypatch.setenv(FAULT_INJECT_ENV, f"BASELINE:60:0:0:{marker}")
        maybe_inject_fault(self._unit(), 0)  # survives: die-once semantics
        result = execute_sweep_unit(self._unit())
        assert result.raw.events == 2

    def test_malformed_spec_rejected(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "nonsense")
        with pytest.raises(ExperimentError, match="malformed"):
            maybe_inject_fault(self._unit(), 0)


class TestHungWorkerTimeout:
    """A hung worker must trip ``unit_timeout``, not stall the sweep."""

    def test_sweep_survives_hung_worker(self, serial_sweep, tmp_path, monkeypatch):
        marker = tmp_path / "hung.marker"
        # The process running the n=80 unit sleeps far past the timeout
        # after its first event; the collector must give up on it and
        # re-run the unit serially (the marker disarms the fault there).
        monkeypatch.setenv(FAULT_INJECT_ENV, f"BASELINE:80:0:1:{marker}")
        monkeypatch.setenv(FAULT_MODE_ENV, "sleep:300")
        result = _pooled_sweep(unit_timeout=5.0, checkpoint_dir=tmp_path / "ck")
        assert marker.exists(), "the hang should actually have fired"
        assert _series(result) == _series(serial_sweep)
        # The serial retry resumed from checkpoint, completed, cleaned up.
        assert list((tmp_path / "ck").glob("unit-*.json")) == []

    def test_generous_timeout_changes_nothing(self, serial_sweep, monkeypatch):
        monkeypatch.delenv(FAULT_INJECT_ENV, raising=False)
        result = _pooled_sweep(unit_timeout=600.0)
        assert _series(result) == _series(serial_sweep)

    def test_timed_out_unit_notifies_exactly_once(
        self, serial_sweep, tmp_path, monkeypatch
    ):
        # The double-notification race: the n=60 unit sleeps past
        # unit_timeout, so the collector gives up on it — but its worker
        # finishes shortly after (while the collector still waits on the
        # slower n=80 future), resolving the future and firing the
        # done-callback.  The serial retry then completes the unit a
        # second time.  on_unit_done must still fire exactly once per
        # unit: progress counts and API event streams rely on it.
        import repro.core.sweep as sweep_mod

        monkeypatch.setenv(_SLOW_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(sweep_mod, "_run_unit", _slow_run_unit)
        seen = []
        lock = threading.Lock()

        def record(unit):
            with lock:
                seen.append((unit.n, unit.batch_index))

        result = _pooled_sweep(unit_timeout=1.0, on_unit_done=record)
        assert (tmp_path / "slept-60-0").exists(), "the slow unit never slept"
        assert _series(result) == _series(serial_sweep)
        assert sorted(seen) == [(60, 0), (80, 0)], (
            f"each unit must be notified exactly once, got {seen}"
        )


class TestFaultMode:
    def _unit(self):
        return SweepUnit(
            scenario="baseline",
            n=60,
            num_origins=2,
            batch_index=0,
            num_batches=1,
            seed=9,
            config=FAST,
            scenario_kwargs=(),
        )

    def test_sleep_mode_hangs_then_disarms(self, tmp_path, monkeypatch):
        marker = tmp_path / "m"
        monkeypatch.setenv(FAULT_INJECT_ENV, f"BASELINE:60:0:0:{marker}")
        monkeypatch.setenv(FAULT_MODE_ENV, "sleep:0.01")
        maybe_inject_fault(self._unit(), 0)  # sleeps briefly, returns
        assert marker.exists()
        maybe_inject_fault(self._unit(), 0)  # marker set: no second fault

    @pytest.mark.parametrize("bad", ["sleep:", "sleep:abc", "hang", "exit:5"])
    def test_malformed_mode_rejected(self, bad, tmp_path, monkeypatch):
        marker = tmp_path / "m"
        monkeypatch.setenv(FAULT_INJECT_ENV, f"OTHER:999:0:0:{marker}")
        monkeypatch.setenv(FAULT_MODE_ENV, bad)
        # Validated eagerly, even though the unit does not match the spec.
        with pytest.raises(ExperimentError, match="malformed"):
            maybe_inject_fault(self._unit(), 0)


class TestQueuedSweepsSurviveWorkerDeath:
    """One pool serves several sweeps: a death in one must not cost the
    others their place on the pool."""

    def test_worker_dies_in_sweep_one_while_sweep_two_is_queued(
        self, serial_sweep, tmp_path, monkeypatch
    ):
        from repro.obs.telemetry import Telemetry, telemetry_session

        marker = tmp_path / "died.marker"
        monkeypatch.setenv(FAULT_INJECT_ENV, f"BASELINE:80:0:1:{marker}")
        kw = dict(
            sizes=SWEEP_KW["sizes"],
            config=FAST,
            num_origins=SWEEP_KW["num_origins"],
            seed=SWEEP_KW["seed"],
            scenario_kwargs={},
            origin_batch_size=None,
        )
        first = sweep_units("baseline", **kw)
        second = sweep_units("tree", **kw)
        seen = []
        lock = threading.Lock()

        def record(unit):
            with lock:
                seen.append((unit.scenario, unit.n))

        hub = Telemetry()
        with telemetry_session(hub), UnitQueue(
            2, checkpoint_dir=tmp_path / "ck", on_unit_done=record
        ) as queue:
            tickets_one = queue.submit(first)
            tickets_two = queue.submit(second)
            result_one = merge_sweep(first, queue.collect(tickets_one))
            result_two = merge_sweep(second, queue.collect(tickets_two))

        assert marker.exists(), "the fault should actually have fired"
        assert _series(result_one) == _series(serial_sweep)
        monkeypatch.delenv(FAULT_INJECT_ENV)
        assert _series(result_two) == _series(run_growth_sweep("tree", **SWEEP_KW))
        # Sweep two went to a fresh pool rather than running serially here.
        assert hub.counters["sweep.pools"] == 2
        assert hub.counters["sweep.units"] == 4
        assert sorted(seen) == sorted(
            [("baseline", 60), ("baseline", 80), ("tree", 60), ("tree", 80)]
        )
        assert list((tmp_path / "ck").glob("unit-*.json")) == []
