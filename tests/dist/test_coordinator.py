"""Coordinator scheduling tests: leases, expiry, dedupe, failure paths.

These tests speak the wire protocol directly (a ``_FakeWorker`` is a raw
socket + :class:`FrameStream`), so they pin the coordinator's observable
behaviour rather than the worker implementation's.
"""

import dataclasses
import socket
import threading

import pytest

from repro.bgp.config import BGPConfig
from repro.core.sweep import (
    SweepUnit,
    UnitQueue,
    execute_sweep_unit,
    run_growth_sweep,
)
from repro.dist.coordinator import Coordinator, parse_address
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    MSG_HEARTBEAT,
    MSG_LEASE,
    MSG_NACK,
    MSG_REGISTER,
    MSG_RESULT,
    FrameStream,
    batch_result_to_wire,
    unit_from_wire,
)
from repro.errors import DistributedError
from repro.experiments import cache
from repro.experiments.cache import SweepRequest, cached_sweeps, sweep_execution
from repro.experiments.scale import Scale

FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


def _unit(n=60, batch_index=0, num_batches=1):
    return SweepUnit(
        scenario="baseline",
        n=n,
        num_origins=2,
        batch_index=batch_index,
        num_batches=num_batches,
        seed=9,
        config=FAST,
        scenario_kwargs=(),
    )


def _measured(result):
    """The batch result minus its wall-clock timing measurement."""
    return dataclasses.replace(result, wall_clock_seconds=0.0)


class _FakeWorker:
    """A raw protocol client; does exactly what each test tells it to."""

    def __init__(self, coordinator: Coordinator) -> None:
        host, port = coordinator.address
        sock = socket.create_connection((host, port), timeout=5.0)
        sock.settimeout(5.0)
        self.stream = FrameStream(sock)
        self.stream.send({"type": MSG_REGISTER})
        hello = self.stream.recv()
        assert hello["type"] == MSG_REGISTER
        self.worker_id = hello["worker_id"]

    def request(self, message):
        self.stream.send(message)
        return self.stream.recv()

    def lease(self):
        return self.request({"type": MSG_LEASE})

    def submit(self, lease_reply, result=None):
        result = result if result is not None else execute_sweep_unit(
            unit_from_wire(lease_reply["unit"])
        )
        return self.request(
            {
                "type": MSG_RESULT,
                "lease_id": lease_reply["lease_id"],
                "unit_key": lease_reply["unit_key"],
                "result": batch_result_to_wire(result),
                "wall_clock_seconds": 0.0,
                "telemetry": {},
            }
        )

    def close(self):
        self.stream.close()


class _SweepThread:
    """Collect ``units`` from a UnitQueue on the coordinator in the
    background; join to collect."""

    def __init__(self, coordinator, units):
        self.results = None
        self.error = None

        def run():
            try:
                queue = UnitQueue(1, coordinator=coordinator)
                self.results = queue.collect(queue.submit(units))
            except Exception as exc:  # re-raised by join()
                self.error = exc

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def join(self, timeout=30.0):
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "the sweep did not finish"
        if self.error is not None:
            raise self.error
        return self.results


@pytest.fixture()
def coordinator():
    with Coordinator("127.0.0.1", 0, lease_timeout=1.0) as coord:
        yield coord


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("10.0.0.1:9000") == ("10.0.0.1", 9000)

    def test_default_port(self):
        host, port = parse_address("example.net")
        assert host == "example.net"
        assert port == 7787

    def test_bare_port(self):
        assert parse_address(":9000") == ("127.0.0.1", 9000)

    @pytest.mark.parametrize("bad", ["", "host:notaport", "host:70000"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(DistributedError):
            parse_address(bad)


class TestLeasing:
    def test_register_hello_carries_intervals(self, coordinator):
        worker = _FakeWorker(coordinator)
        assert worker.worker_id == "w1"
        assert [stats["worker_id"] for stats in coordinator.worker_stats()] == ["w1"]
        worker.close()

    def test_lease_without_work_says_retry(self, coordinator):
        worker = _FakeWorker(coordinator)
        reply = worker.lease()
        assert reply["type"] == MSG_LEASE
        assert reply["unit"] is None
        assert reply["retry_after_s"] > 0
        worker.close()

    def test_lease_execute_submit(self, coordinator):
        unit = _unit()
        sweep = _SweepThread(coordinator, [unit])
        worker = _FakeWorker(coordinator)
        reply = worker.lease()
        assert unit_from_wire(reply["unit"]) == unit
        assert reply["lease_id"]
        ack = worker.submit(reply)
        assert ack["accepted"] is True
        (result,) = sweep.join()
        assert _measured(result) == _measured(execute_sweep_unit(unit))
        assert coordinator.units_completed == 1
        worker.close()

    def test_identical_units_deduped(self, coordinator):
        # The same unit twice in one sweep is executed once, and its
        # result fills both submission-order slots.
        unit = _unit()
        sweep = _SweepThread(coordinator, [unit, unit])
        worker = _FakeWorker(coordinator)
        reply = worker.lease()
        worker.submit(reply)
        first, second = sweep.join()
        assert first == second
        assert coordinator.dedupe_hits == 1
        assert coordinator.units_completed == 1
        worker.close()

    def test_heartbeat_renews_known_lease(self, coordinator):
        sweep = _SweepThread(coordinator, [_unit()])
        worker = _FakeWorker(coordinator)
        reply = worker.lease()
        ack = worker.request(
            {"type": MSG_HEARTBEAT, "lease_id": reply["lease_id"]}
        )
        assert ack == {"type": MSG_HEARTBEAT, "known": True, "v": PROTOCOL_VERSION}
        ack = worker.request({"type": MSG_HEARTBEAT, "lease_id": "bogus"})
        assert ack["known"] is False
        worker.submit(reply)
        sweep.join()
        worker.close()

    def test_heartbeat_for_expired_lease_says_unknown(self, coordinator):
        # Once a silent worker's lease expires and the unit is re-leased,
        # the original lease id must answer ``known: false`` — the lease
        # index drops entries at release, not only at completion.
        unit = _unit()
        sweep = _SweepThread(coordinator, [unit])
        silent = _FakeWorker(coordinator)
        stale = silent.lease()
        assert stale["unit"] is not None

        backup = _FakeWorker(coordinator)
        reply = None
        for _ in range(50):  # lease_timeout=1.0s; poll until re-offered
            reply = backup.lease()
            if reply["unit"] is not None:
                break
            threading.Event().wait(0.1)
        assert reply["unit"] is not None, "unit was never re-leased"

        ack = silent.request(
            {"type": MSG_HEARTBEAT, "lease_id": stale["lease_id"]}
        )
        assert ack["known"] is False
        backup.submit(reply)
        sweep.join()
        silent.close()
        backup.close()

    def test_heartbeat_with_foreign_lease_says_unknown(self, coordinator):
        # A lease id is only valid from the worker that holds it: another
        # worker replaying it must not renew the deadline.
        unit = _unit()
        sweep = _SweepThread(coordinator, [unit])
        holder = _FakeWorker(coordinator)
        reply = holder.lease()
        assert reply["unit"] is not None

        imposter = _FakeWorker(coordinator)
        ack = imposter.request(
            {"type": MSG_HEARTBEAT, "lease_id": reply["lease_id"]}
        )
        assert ack["known"] is False
        # ... while the holder's own heartbeat still renews.
        ack = holder.request(
            {"type": MSG_HEARTBEAT, "lease_id": reply["lease_id"]}
        )
        assert ack["known"] is True
        holder.submit(reply)
        sweep.join()
        holder.close()
        imposter.close()

    def test_heartbeat_with_non_string_lease_id_says_unknown(self, coordinator):
        worker = _FakeWorker(coordinator)
        ack = worker.request({"type": MSG_HEARTBEAT, "lease_id": 7})
        assert ack["known"] is False
        worker.close()


class TestFailureRecovery:
    def test_silent_worker_lease_expires_and_unit_is_released(self, coordinator):
        # Worker A leases the unit and goes silent (no heartbeat, socket
        # still open).  After lease_timeout the unit must be offered to
        # worker B, and B's result completes the sweep.
        unit = _unit()
        sweep = _SweepThread(coordinator, [unit])
        silent = _FakeWorker(coordinator)
        granted = silent.lease()
        assert granted["unit"] is not None

        backup = _FakeWorker(coordinator)
        deadline_reply = None
        for _ in range(50):  # lease_timeout=1.0s; poll until re-offered
            deadline_reply = backup.lease()
            if deadline_reply["unit"] is not None:
                break
            threading.Event().wait(0.1)
        assert deadline_reply["unit"] is not None, "unit was never re-leased"
        assert coordinator.requeues == 1
        backup.submit(deadline_reply)
        (result,) = sweep.join()
        assert _measured(result) == _measured(execute_sweep_unit(unit))
        silent.close()
        backup.close()

    def test_disconnect_requeues_immediately(self, coordinator):
        unit = _unit()
        sweep = _SweepThread(coordinator, [unit])
        doomed = _FakeWorker(coordinator)
        assert doomed.lease()["unit"] is not None
        doomed.close()  # EOF: the coordinator must requeue without waiting

        backup = _FakeWorker(coordinator)
        reply = None
        for _ in range(50):
            reply = backup.lease()
            if reply["unit"] is not None:
                break
            threading.Event().wait(0.05)
        assert reply["unit"] is not None
        backup.submit(reply)
        sweep.join()
        assert coordinator.requeues == 1
        backup.close()

    def test_departed_worker_keeps_its_stats(self, coordinator):
        # A worker that ran a unit and left (``worker --max-units 1``)
        # still counts in summary.txt's jobs= and serve's worker lines.
        sweep = _SweepThread(coordinator, [_unit()])
        worker = _FakeWorker(coordinator)
        assert worker.submit(worker.lease())["accepted"] is True
        sweep.join()
        worker.close()
        for _ in range(100):
            if coordinator._departed:
                break
            threading.Event().wait(0.02)
        assert not coordinator._workers
        (stats,) = coordinator.worker_stats()
        assert stats["worker_id"] == worker.worker_id
        assert stats["units_done"] == 1
        # Stats are per connection: a worker that comes back registers
        # anew and gets an entry of its own next to the departed one.
        again = _FakeWorker(coordinator)
        departed, connected = coordinator.worker_stats()
        assert departed == stats
        assert connected["worker_id"] == again.worker_id != worker.worker_id
        assert connected["units_done"] == 0
        again.close()

    def test_duplicate_result_discarded(self, coordinator):
        # The original leaseholder finishing after a re-lease completed
        # the unit gets a polite "duplicate" ack and changes nothing.
        unit = _unit()
        sweep = _SweepThread(coordinator, [unit])
        worker_a = _FakeWorker(coordinator)
        reply_a = worker_a.lease()
        result = execute_sweep_unit(unit)
        ack_a = worker_a.submit(reply_a, result=result)
        assert ack_a["accepted"] is True
        ack_late = worker_a.submit(reply_a, result=result)
        assert ack_late["accepted"] is False
        assert ack_late["duplicate"] is True
        (merged,) = sweep.join()
        assert merged == result
        assert coordinator.units_completed == 1
        worker_a.close()

    def test_nack_fails_the_sweep(self, coordinator):
        sweep = _SweepThread(coordinator, [_unit()])
        worker = _FakeWorker(coordinator)
        reply = worker.lease()
        worker.request(
            {
                "type": MSG_NACK,
                "lease_id": reply["lease_id"],
                "unit_key": reply["unit_key"],
                "error": "ExperimentError: boom",
            }
        )
        with pytest.raises(DistributedError, match="boom"):
            sweep.join()
        worker.close()

    def test_unusable_wall_clock_rejected_before_any_state_change(
        self, coordinator
    ):
        # A RESULT whose reported unit time is no finite number >= 0 is
        # rejected like a malformed result: the worker gets its reply, the
        # job stays open, and the real result still completes the unit.
        unit = _unit()
        sweep = _SweepThread(coordinator, [unit])
        worker = _FakeWorker(coordinator)
        reply = worker.lease()
        result = batch_result_to_wire(execute_sweep_unit(unit))
        for bad in ("soon", -1.0, [1.0]):
            ack = worker.request(
                {
                    "type": MSG_RESULT,
                    "lease_id": reply["lease_id"],
                    "unit_key": reply["unit_key"],
                    "result": result,
                    "wall_clock_seconds": bad,
                }
            )
            assert ack["accepted"] is False
            assert "wall_clock_seconds" in ack["error"]
        assert coordinator.units_completed == 0
        assert worker.submit(reply)["accepted"] is True
        sweep.join()
        assert coordinator.units_completed == 1
        assert coordinator.worker_stats()[0]["units_done"] == 1
        worker.close()

    def test_malformed_result_rejected_not_fatal(self, coordinator):
        sweep = _SweepThread(coordinator, [_unit()])
        worker = _FakeWorker(coordinator)
        reply = worker.lease()
        ack = worker.request(
            {
                "type": MSG_RESULT,
                "lease_id": reply["lease_id"],
                "unit_key": reply["unit_key"],
                "result": {"seed": 1},
            }
        )
        assert ack["accepted"] is False
        worker.submit(reply)  # the real result still lands
        sweep.join()
        worker.close()


class TestLifecycle:
    def test_submit_requires_start(self):
        coord = Coordinator("127.0.0.1", 0)
        with pytest.raises(DistributedError, match="not listening"):
            coord.submit(_unit())

    def test_close_mid_sweep_raises(self, coordinator):
        sweep = _SweepThread(coordinator, [_unit()])
        coordinator.close()
        with pytest.raises(DistributedError, match="shut down"):
            sweep.join()

    def test_rejects_invalid_lease_timeout(self):
        with pytest.raises(DistributedError, match="lease_timeout"):
            Coordinator("127.0.0.1", 0, lease_timeout=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_lease_timeout(self, value):
        # A NaN deadline never passes, so a silent worker's lease would
        # never expire.
        with pytest.raises(DistributedError, match="finite"):
            Coordinator("127.0.0.1", 0, lease_timeout=value)


class TestServedCampaignPlans:
    """Under a coordinator, a campaign's plan reaches the workers at once."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self):
        cache.clear_cache()
        yield
        cache.clear_cache()

    def test_plan_leases_every_sweep_largest_n_first(self, coordinator):
        scale = Scale(name="tiny-served", sizes=(60, 70), origins=2, metric_sources=10)
        requests = [SweepRequest("BASELINE", FAST), SweepRequest("TREE", FAST)]
        worker = _FakeWorker(coordinator)
        with sweep_execution(coordinator=coordinator) as execution:
            execution.plan(requests, scale, seed=9)
            # Every unit of both sweeps is offered before any result of
            # the first one is in.
            replies = [worker.lease() for _ in range(4)]
            assert [
                (unit.scenario, unit.n)
                for unit in (unit_from_wire(reply["unit"]) for reply in replies)
            ] == [("BASELINE", 70), ("TREE", 70), ("BASELINE", 60), ("TREE", 60)]
            for reply in replies:
                assert worker.submit(reply)["accepted"] is True
            baseline, tree = cached_sweeps(requests, scale, seed=9)
        assert execution.misses == 2
        for sweep, request in zip((baseline, tree), requests):
            serial = run_growth_sweep(
                request.scenario,
                sizes=scale.sizes,
                config=FAST,
                num_origins=scale.origins,
                seed=9,
            )
            assert [stats.measured_messages for stats in sweep.stats] == [
                stats.measured_messages for stats in serial.stats
            ]
        worker.close()
