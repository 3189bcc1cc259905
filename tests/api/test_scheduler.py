"""CampaignScheduler tests: dedupe, quotas, priority, cancel, restore.

Campaign execution is replaced by a gated fake (``fake_runs``), so these
tests control exactly when a "campaign" starts, blocks, fails or
finishes — scheduling behaviour is pinned without simulating anything.
The real-execution integration lives in ``tests/api/test_server.py``.
"""

import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import scheduler as scheduler_module
from repro.api.scheduler import (
    ARTIFACT_NAMES,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    CampaignScheduler,
)
from repro.errors import ApiError, ExperimentError
from repro.experiments.campaign import (
    CampaignCancelled,
    CampaignSpec,
    CampaignSummary,
)


@pytest.fixture()
def fake_runs(monkeypatch):
    """Replace the scheduler's run_campaign with a gated, observable fake.

    Every run blocks until ``release`` is set (checking its cancel event
    every 10ms), then writes the four public artifacts and returns an
    empty summary.  Seeds in ``fail_seeds`` raise instead.
    """
    state = SimpleNamespace(
        started=[], release=threading.Event(), fail_seeds=set()
    )

    def run(spec, *, output_dir=None, cancel=None, on_event=None, **kwargs):
        state.started.append(spec.seed)
        while not state.release.wait(0.01):
            if cancel is not None and cancel.is_set():
                raise CampaignCancelled("cancelled by test")
        if cancel is not None and cancel.is_set():
            raise CampaignCancelled("cancelled by test")
        if spec.seed in state.fail_seeds:
            raise ExperimentError("synthetic failure")
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in ARTIFACT_NAMES:
            (out / name).write_text(
                f"{name} for seed {spec.seed}\n", encoding="utf-8"
            )
        return CampaignSummary(
            scale=spec.scale,
            seed=spec.seed,
            results=[],
            wall_clock_seconds=0.01,
            output_dir=out,
        )

    monkeypatch.setattr(scheduler_module, "run_campaign", run)
    return state


@pytest.fixture()
def sched(tmp_path):
    scheduler = CampaignScheduler(
        tmp_path / "data",
        max_running=1,
        max_queued_per_tenant=2,
        max_running_per_tenant=1,
    )
    yield scheduler
    scheduler.close()


def _wait(predicate, timeout=10.0, message="condition never became true"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(message)


def _wait_terminal(scheduler, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, terminal = scheduler.events_since(job_id, 0, timeout=0.2)
        if terminal:
            return scheduler.get(job_id)
    raise AssertionError(f"job {job_id} never reached a terminal state")


class TestDedupe:
    def test_identical_specs_share_one_execution(self, sched, fake_runs):
        spec = CampaignSpec(scale="smoke", seed=1)
        job_a, scheduled_a = sched.submit(spec, tenant="alice")
        job_b, scheduled_b = sched.submit(
            CampaignSpec(scale="smoke", seed=1), tenant="bob"
        )
        assert scheduled_a is True
        assert scheduled_b is False
        assert job_a is job_b
        fake_runs.release.set()
        job = _wait_terminal(sched, job_a.job_id)
        assert job.state == STATE_DONE
        assert sched.executions == 1
        # joining after completion is also served by the same job
        job_c, scheduled_c = sched.submit(spec, tenant="carol")
        assert job_c is job_a
        assert scheduled_c is False
        assert sched.executions == 1
        assert fake_runs.started == [1]

    def test_execution_knobs_do_not_fork_identity(self, sched, fake_runs):
        fake_runs.release.set()
        job_a, _ = sched.submit(CampaignSpec(scale="smoke", seed=2))
        job_b, scheduled = sched.submit(
            CampaignSpec(
                scale="smoke", seed=2, jobs=4, unit_timeout=30.0, priority=9
            )
        )
        assert job_a is job_b
        assert scheduled is False

    def test_equivalent_spellings_share_one_execution(self, sched, fake_runs):
        spellings = [
            [{"scale": "SMOKE"}, {"scale": "smoke"}],
            [
                {"scale": "smoke", "experiments": ["fig07", "fig04"]},
                {"scale": "smoke", "experiments": ["fig04", "fig07"]},
                {"scale": "smoke", "experiments": ["fig04", "fig04", "fig07"]},
            ],
        ]
        fake_runs.release.set()
        for group in spellings:
            jobs = [
                sched.submit(CampaignSpec.from_dict(body))[0] for body in group
            ]
            assert len({job.job_id for job in jobs}) == 1
            _wait_terminal(sched, jobs[0].job_id)
        assert sched.executions == len(spellings)

    def test_different_identities_run_separately(self, sched, fake_runs):
        fake_runs.release.set()
        job_a, _ = sched.submit(CampaignSpec(scale="smoke", seed=3))
        job_b, _ = sched.submit(CampaignSpec(scale="smoke", seed=4))
        assert job_a.job_id != job_b.job_id
        _wait_terminal(sched, job_a.job_id)
        _wait_terminal(sched, job_b.job_id)
        assert sched.executions == 2


class TestQuotas:
    def test_queued_quota_answers_429(self, sched, fake_runs):
        first, _ = sched.submit(CampaignSpec(scale="smoke", seed=10), "alice")
        _wait(
            lambda: sched.get(first.job_id).state == STATE_RUNNING,
            message="first job never started",
        )
        sched.submit(CampaignSpec(scale="smoke", seed=11), "alice")
        sched.submit(CampaignSpec(scale="smoke", seed=12), "alice")
        with pytest.raises(ApiError) as excinfo:
            sched.submit(CampaignSpec(scale="smoke", seed=13), "alice")
        assert excinfo.value.status == 429
        # another tenant is unaffected by alice's full queue
        other, scheduled = sched.submit(
            CampaignSpec(scale="smoke", seed=13), "bob"
        )
        assert scheduled is True
        fake_runs.release.set()
        _wait_terminal(sched, other.job_id)

    def test_running_quota_defers_not_rejects(self, tmp_path, fake_runs):
        # Two executor slots, but one tenant may only occupy one of them:
        # their second job must wait even while a slot sits idle, and a
        # different tenant's job overtakes it.
        scheduler = CampaignScheduler(
            tmp_path / "data",
            max_running=2,
            max_queued_per_tenant=8,
            max_running_per_tenant=1,
        )
        try:
            first, _ = scheduler.submit(
                CampaignSpec(scale="smoke", seed=20), "alice"
            )
            second, _ = scheduler.submit(
                CampaignSpec(scale="smoke", seed=21), "alice"
            )
            other, _ = scheduler.submit(
                CampaignSpec(scale="smoke", seed=22), "bob"
            )
            _wait(lambda: 20 in fake_runs.started and 22 in fake_runs.started)
            assert 21 not in fake_runs.started
            assert scheduler.get(second.job_id).state == STATE_QUEUED
            fake_runs.release.set()
            _wait_terminal(scheduler, second.job_id)
            assert sorted(fake_runs.started) == [20, 21, 22]
        finally:
            scheduler.close()


class TestPriority:
    def test_higher_priority_overtakes_fifo(self, sched, fake_runs):
        blocker, _ = sched.submit(CampaignSpec(scale="smoke", seed=30), "a")
        _wait(lambda: 30 in fake_runs.started)
        low, _ = sched.submit(
            CampaignSpec(scale="smoke", seed=31, priority=0), "b"
        )
        high, _ = sched.submit(
            CampaignSpec(scale="smoke", seed=32, priority=5), "c"
        )
        fake_runs.release.set()
        _wait_terminal(sched, low.job_id)
        _wait_terminal(sched, high.job_id)
        assert fake_runs.started == [30, 32, 31]


class TestCancel:
    def test_cancel_queued_job_never_runs(self, sched, fake_runs):
        blocker, _ = sched.submit(CampaignSpec(scale="smoke", seed=40))
        _wait(lambda: 40 in fake_runs.started)
        queued, _ = sched.submit(CampaignSpec(scale="smoke", seed=41))
        cancelled = sched.cancel(queued.job_id)
        assert cancelled.state == STATE_CANCELLED
        fake_runs.release.set()
        _wait_terminal(sched, blocker.job_id)
        assert 41 not in fake_runs.started
        assert sched.executions == 1

    def test_cancel_running_then_resubmit_requeues(self, sched, fake_runs):
        spec = CampaignSpec(scale="smoke", seed=42)
        job, _ = sched.submit(spec)
        _wait(lambda: 42 in fake_runs.started)
        sched.cancel(job.job_id)
        job = _wait_terminal(sched, job.job_id)
        assert job.state == STATE_CANCELLED
        # resubmission schedules a new run of the same job object
        rejob, scheduled = sched.submit(CampaignSpec(scale="smoke", seed=42))
        assert rejob is job
        assert scheduled is True
        fake_runs.release.set()
        job = _wait_terminal(sched, job.job_id)
        assert job.state == STATE_DONE
        assert job.runs == 2
        queued_events = [
            e for e in job.events if e["event"] == "job_queued"
        ]
        assert [e["resumed"] for e in queued_events] == [False, True]

    def test_failed_job_resubmit_requeues(self, sched, fake_runs):
        fake_runs.fail_seeds.add(43)
        fake_runs.release.set()
        job, _ = sched.submit(CampaignSpec(scale="smoke", seed=43))
        job = _wait_terminal(sched, job.job_id)
        assert job.state == STATE_FAILED
        assert "synthetic failure" in job.error
        fake_runs.fail_seeds.clear()
        _, scheduled = sched.submit(CampaignSpec(scale="smoke", seed=43))
        assert scheduled is True
        job = _wait_terminal(sched, job.job_id)
        assert job.state == STATE_DONE
        assert job.error is None


class TestArtifactsAndEvents:
    def test_artifacts_served_when_done(self, sched, fake_runs):
        fake_runs.release.set()
        job, _ = sched.submit(CampaignSpec(scale="smoke", seed=50))
        _wait_terminal(sched, job.job_id)
        path = sched.artifact_path(job.job_id, "campaign.json")
        assert path.read_text(encoding="utf-8") == "campaign.json for seed 50\n"

    def test_artifact_guards(self, sched, fake_runs):
        job, _ = sched.submit(CampaignSpec(scale="smoke", seed=51))
        with pytest.raises(ApiError) as excinfo:
            sched.artifact_path(job.job_id, "campaign.json")
        assert excinfo.value.status == 409  # not done yet
        with pytest.raises(ApiError) as excinfo:
            sched.artifact_path(job.job_id, "../../etc/passwd")
        assert excinfo.value.status == 404  # whitelist, not paths
        with pytest.raises(ApiError) as excinfo:
            sched.get("no-such-job")
        assert excinfo.value.status == 404
        fake_runs.release.set()
        _wait_terminal(sched, job.job_id)

    def test_event_log_is_ordered_and_terminal(self, sched, fake_runs):
        fake_runs.release.set()
        job, _ = sched.submit(CampaignSpec(scale="smoke", seed=52))
        _wait_terminal(sched, job.job_id)
        events, terminal = sched.events_since(job.job_id, 0, timeout=0.1)
        assert terminal is True
        assert [e["seq"] for e in events] == list(range(len(events)))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "job_queued"
        assert kinds[-1] == "job_done"
        # the cursor protocol: replay from an offset yields the tail
        tail, _ = sched.events_since(job.job_id, len(events) - 1, timeout=0.1)
        assert tail == events[-1:]


class TestRestore:
    def test_done_job_adopted_across_restart(self, tmp_path, fake_runs):
        fake_runs.release.set()
        spec = CampaignSpec(scale="smoke", seed=60)
        with CampaignScheduler(tmp_path / "data") as first:
            job, _ = first.submit(spec)
            _wait_terminal(first, job.job_id)
            assert job.state == STATE_DONE
        with CampaignScheduler(tmp_path / "data") as second:
            restored, scheduled = second.submit(
                CampaignSpec(scale="smoke", seed=60)
            )
            assert scheduled is False
            assert restored.state == STATE_DONE
            assert second.executions == 0
            path = second.artifact_path(restored.job_id, "summary.txt")
            assert "seed 60" in path.read_text(encoding="utf-8")

    def test_unfinished_job_not_adopted(self, tmp_path, fake_runs):
        # Only a job.json written at DONE makes a dir adoptable; a bare
        # artifact directory (crash mid-run) is re-executed.
        spec = CampaignSpec(scale="smoke", seed=61)
        with CampaignScheduler(tmp_path / "data") as first:
            job_id = first.submit(spec)[0].job_id
            first.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        fake_runs.release.set()
        with CampaignScheduler(tmp_path / "data") as second:
            job, scheduled = second.submit(CampaignSpec(scale="smoke", seed=61))
            assert scheduled is True
            _wait_terminal(second, job.job_id)
            assert second.executions == 1


class TestLifecycle:
    def test_submit_after_close_rejected(self, tmp_path, fake_runs):
        scheduler = CampaignScheduler(tmp_path / "data")
        scheduler.close()
        with pytest.raises(ApiError) as excinfo:
            scheduler.submit(CampaignSpec(scale="smoke", seed=70))
        assert excinfo.value.status == 503

    def test_close_cancels_running_jobs(self, tmp_path, fake_runs):
        scheduler = CampaignScheduler(tmp_path / "data")
        job, _ = scheduler.submit(CampaignSpec(scale="smoke", seed=71))
        _wait(lambda: 71 in fake_runs.started)
        scheduler.close()  # cancel_running=True by default
        assert scheduler.get(job.job_id).state == STATE_CANCELLED
