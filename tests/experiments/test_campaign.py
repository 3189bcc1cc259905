"""Tests for campaign orchestration."""

import concurrent.futures
import os
import threading

import pytest

from repro.core import sweep
from repro.core.sweep import resolve_jobs
from repro.errors import ReproError
from repro.experiments import cache
from repro.experiments import campaign as campaign_module
from repro.experiments.campaign import (
    CampaignCancelled,
    CampaignSpec,
    run_campaign,
)
from repro.experiments.registry import experiment_ids
from repro.experiments.results_io import load_results
from repro.experiments.scale import PRESETS, Scale

TINY = Scale(name="tiny-campaign", sizes=(100, 200), origins=2, metric_sources=10)


@pytest.fixture(scope="module", autouse=True)
def tiny_preset():
    """TINY registered as a named preset, so specs can name it."""
    PRESETS[TINY.name] = TINY
    try:
        yield TINY.name
    finally:
        PRESETS.pop(TINY.name, None)


def tiny(**fields):
    """A seed-5 campaign spec at the TINY scale."""
    return CampaignSpec(**{"scale": TINY.name, "seed": 5, **fields})


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    cache.clear_cache()
    output = tmp_path_factory.mktemp("campaign")
    summary = run_campaign(tiny(), output_dir=output)
    cache.clear_cache()
    return summary, output


class TestRunCampaign:
    def test_covers_all_paper_artifacts(self, campaign):
        summary, _ = campaign
        assert [r.experiment_id for r in summary.results] == experiment_ids(
            include_extensions=False
        )

    def test_check_counts(self, campaign):
        summary, _ = campaign
        passed, total = summary.check_counts
        assert total >= 30
        assert 0 <= passed <= total

    def test_summary_text(self, campaign):
        summary, _ = campaign
        text = summary.to_text()
        assert "campaign scale=tiny-campaign seed=5" in text
        assert "fig04" in text

    def test_artifacts_written(self, campaign):
        _, output = campaign
        assert (output / "campaign.md").exists()
        assert (output / "summary.txt").exists()
        loaded = load_results(output / "campaign.json")
        assert [r.experiment_id for r in loaded] == experiment_ids(
            include_extensions=False
        )

    def test_markdown_contains_every_figure(self, campaign):
        _, output = campaign
        markdown = (output / "campaign.md").read_text(encoding="utf-8")
        for experiment_id in experiment_ids(include_extensions=False):
            assert f"### {experiment_id}" in markdown

    def test_wall_clock_recorded(self, campaign):
        summary, _ = campaign
        assert summary.wall_clock_seconds > 0

    def test_worker_seconds_recorded(self, campaign):
        summary, _ = campaign
        assert summary.worker_seconds > 0
        assert "execution: jobs=1" in summary.to_text()

    def test_summary_reports_unit_time_not_speedup(self, campaign):
        summary, output = campaign
        text = (output / "summary.txt").read_text(encoding="utf-8")
        assert "speedup" not in text
        assert f"unit time {summary.unit_time_per_wall:.1f}x wall," in text


class TestParallelCampaign:
    """Tier-1 smoke: a tiny 2-job campaign with a persistent cache."""

    def test_two_job_campaign_matches_serial(self, campaign, tmp_path):
        _, serial_output = campaign
        cache.clear_cache()
        output = tmp_path / "parallel"
        summary = run_campaign(
            tiny(jobs=2), output_dir=output, cache_dir=tmp_path / "cache"
        )
        cache.clear_cache()
        assert summary.jobs == 2
        # The acceptance bar: parallel execution changes no measured number,
        # so the persisted artifact is byte-identical to the serial run's.
        assert (output / "campaign.json").read_bytes() == (
            serial_output / "campaign.json"
        ).read_bytes()

    def test_warm_cache_campaign_reuses_sweeps(self, campaign, tmp_path):
        _, serial_output = campaign
        cache_dir = tmp_path / "cache"
        cache.clear_cache()
        cold = run_campaign(tiny(), cache_dir=cache_dir)
        cache.clear_cache()
        warm = run_campaign(tiny(), output_dir=tmp_path / "warm", cache_dir=cache_dir)
        cache.clear_cache()
        assert cold.worker_seconds > 0  # cold run actually simulated
        assert warm.cache_hits > 0
        assert warm.worker_seconds == 0.0  # nothing was re-simulated
        assert (tmp_path / "warm" / "campaign.json").read_bytes() == (
            serial_output / "campaign.json"
        ).read_bytes()

    def test_summary_records_the_pool_size_used(self, tmp_path, monkeypatch):
        # jobs=0 means one worker per usable CPU: the summary reports
        # that count, not the 0 that asked for it.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cache.clear_cache()
        summary = run_campaign(tiny(jobs=0, experiments=("fig04",)), output_dir=tmp_path)
        cache.clear_cache()
        assert summary.jobs == 2
        assert "execution: jobs=2," in (tmp_path / "summary.txt").read_text()

    @pytest.mark.parametrize(
        "units_done, jobs", [((3, 1, 0), 2), ((0, 0, 0), 1)], ids=["two-busy", "none-busy"]
    )
    def test_summary_records_the_coordinated_workers_that_ran_units(
        self, tmp_path, units_done, jobs
    ):
        # Under a coordinator the summary counts the workers that
        # completed a unit, not ``spec.jobs``; with none (every sweep a
        # cache hit, say) it reads 1, as a serial run's does.
        class ThreeWorkerCoordinator:
            """Runs each unit inline; reports the given per-worker counts."""

            def submit(self, unit):
                future = concurrent.futures.Future()
                future.set_result(sweep._run_unit(unit, None))
                return future

            def worker_stats(self):
                return [
                    {"worker_id": worker_id, "address": "127.0.0.1:0",
                     "units_done": done, "busy_seconds": 0.0}
                    for worker_id, done in zip("abc", units_done)
                ]

        cache.clear_cache()
        summary = run_campaign(
            tiny(experiments=("fig04",)),
            output_dir=tmp_path,
            coordinator=ThreeWorkerCoordinator(),
        )
        cache.clear_cache()
        assert summary.jobs == jobs
        assert f"execution: jobs={jobs}," in (tmp_path / "summary.txt").read_text()


class TestCampaignObservability:
    def test_telemetry_jsonl_written(self, campaign):
        from repro.obs import read_jsonl, summarize_records

        _, output = campaign
        records = read_jsonl(output / "telemetry.jsonl")
        assert records[0]["kind"] == "meta"
        assert records[0]["run_kind"] == "campaign"
        assert records[0]["scale"] == "tiny-campaign"
        assert records[-1]["kind"] == "summary"
        snapshot = summarize_records(records)
        # The campaign's simulations reported into the ambient hub ...
        assert snapshot["counters"]["network.deliveries"] > 0
        assert snapshot["summary"]["engine_events"] > 0
        assert snapshot["summary"]["events_per_sec"] > 0
        # ... with the per-phase wall-clock breakdown of the sweep loop.
        names = {phase["name"] for phase in snapshot["phases"]}
        assert {"topology-gen", "warmup", "measured", "analysis"} <= names
        # cache accounting: the TINY campaign reuses the Baseline sweep
        assert snapshot["counters"].get("cache.memory_hits", 0) > 0

    def test_telemetry_does_not_change_artifacts(self, campaign, tmp_path):
        # Telemetry and the progress line are pure observers: forcing the
        # progress line on and collecting telemetry yields a byte-identical
        # campaign.json.
        _, serial_output = campaign
        cache.clear_cache()
        output = tmp_path / "observed"
        summary = run_campaign(tiny(), output_dir=output, show_progress=False)
        cache.clear_cache()
        assert summary.passed == load_and_pass(serial_output)
        assert (output / "campaign.json").read_bytes() == (
            serial_output / "campaign.json"
        ).read_bytes()

    def test_progress_line_forced_on(self, tmp_path, capsys):
        cache.clear_cache()
        run_campaign(tiny(), show_progress=True)
        cache.clear_cache()
        err = capsys.readouterr().err
        assert "experiments:" in err
        assert "(100%)" in err


def load_and_pass(output):
    return all(result.passed for result in load_results(output / "campaign.json"))


class TestCampaignSpec:
    def test_key_covers_identity_only(self, tiny_preset):
        base = CampaignSpec(scale=tiny_preset, seed=5)
        assert base.key() == CampaignSpec(
            scale=tiny_preset, seed=5, jobs=2, unit_timeout=30.0, priority=9
        ).key()
        assert base.key() != CampaignSpec(scale=tiny_preset, seed=6).key()
        assert base.key() != CampaignSpec(
            scale=tiny_preset, seed=5, include_extensions=True
        ).key()

    def test_from_dict_round_trip(self, tiny_preset):
        spec = CampaignSpec(scale=tiny_preset, seed=3, jobs=1, priority=-1)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            ["not", "an", "object"],
            {"scale": "tiny-campaign", "surprise": 1},
            {"scale": 7},
            {"seed": "zero"},
            {"seed": 2**60},
            {"include_extensions": 1},
            {"jobs": -1},
            {"jobs": True},
            {"unit_timeout": 0},
            {"unit_timeout": float("nan")},
            {"unit_timeout": 1e9},
            {"use_cache": "yes"},
            {"priority": 1000},
            {"scale": "no-such-preset"},
            {"jobs": resolve_jobs(0) + 1},  # more workers than usable CPUs
        ],
    )
    def test_from_dict_rejects_malformed(self, tiny_preset, bad):
        with pytest.raises(ReproError):
            CampaignSpec.from_dict(bad)

    @pytest.mark.parametrize(
        "spelling, canonical",
        [
            ({"scale": "SMOKE"}, {"scale": "smoke"}),
            ({"experiments": ["fig07", "fig04"]}, {"experiments": ["fig04", "fig07"]}),
            (
                {"experiments": ["fig04", "FIG04", "fig07"]},
                {"experiments": ["fig04", "fig07"]},
            ),
        ],
    )
    def test_equivalent_spellings_share_one_key(self, spelling, canonical):
        spec = CampaignSpec.from_dict(spelling)
        assert spec == CampaignSpec.from_dict(canonical)
        assert spec.key() == CampaignSpec.from_dict(canonical).key()
        assert spec.to_dict() == CampaignSpec.from_dict(canonical).to_dict()

    def test_spelled_scale_runs_the_canonical_campaign(self, campaign, tmp_path):
        _, serial_output = campaign
        cache.clear_cache()
        summary = run_campaign(
            tiny(scale=TINY.name.upper()),
            output_dir=tmp_path / "spec-run",
            show_progress=False,
        )
        cache.clear_cache()
        assert summary.scale == TINY.name
        assert (tmp_path / "spec-run" / "campaign.json").read_bytes() == (
            serial_output / "campaign.json"
        ).read_bytes()


class TestCampaignEventsAndCancel:
    def test_on_event_stream_shape(self, tmp_path):
        cache.clear_cache()
        events = []
        run_campaign(tiny(), show_progress=False, on_event=events.append)
        cache.clear_cache()
        kinds = [event["event"] for event in events]
        assert kinds[0] == "campaign_started"
        total = len(experiment_ids(include_extensions=False))
        assert kinds.count("experiment_done") == total
        assert events[0]["total"] == total
        done_events = [e for e in events if e["event"] == "experiment_done"]
        assert [e["experiment_id"] for e in done_events] == experiment_ids(
            include_extensions=False
        )
        assert done_events[-1]["done"] == total

    def test_cancel_flushes_and_resume_completes(self, campaign, tmp_path):
        # Cancel after the second experiment: completed results must be
        # flushed through the checkpoint path, and a resumed run must
        # produce artifacts byte-identical to an uninterrupted campaign.
        _, serial_output = campaign
        checkpoint_dir = tmp_path / "ck"
        cancel = threading.Event()

        def trip(event):
            if event["event"] == "experiment_done" and event["done"] == 2:
                cancel.set()

        cache.clear_cache()
        with pytest.raises(CampaignCancelled):
            run_campaign(
                tiny(),
                checkpoint_dir=checkpoint_dir,
                show_progress=False,
                on_event=trip,
                cancel=cancel,
            )
        assert (checkpoint_dir / "campaign-state.json").exists()
        summary = run_campaign(
            tiny(),
            output_dir=tmp_path / "resumed",
            checkpoint_dir=checkpoint_dir,
            show_progress=False,
        )
        cache.clear_cache()
        assert len(summary.results) == len(
            experiment_ids(include_extensions=False)
        )
        assert (tmp_path / "resumed" / "campaign.json").read_bytes() == (
            serial_output / "campaign.json"
        ).read_bytes()

    def test_cancel_before_start_runs_nothing(self, tmp_path):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(CampaignCancelled):
            run_campaign(
                tiny(),
                checkpoint_dir=tmp_path / "ck",
                show_progress=False,
                cancel=cancel,
            )


class TestCoordinatorLifecycle:
    def test_coordinator_closed_when_setup_fails(self, monkeypatch, tmp_path):
        # Regression: a failure entering the sweep execution context must
        # not leak serve's listening socket and accept thread past the
        # raise.
        import repro.dist as dist
        from repro.experiments.cli import main

        created = []
        real_coordinator = dist.Coordinator

        class Recording(real_coordinator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        def boom(**kwargs):
            raise RuntimeError("injected failure entering sweep execution")

        monkeypatch.setattr(dist, "Coordinator", Recording)
        monkeypatch.setattr(campaign_module, "sweep_execution", boom)
        with pytest.raises(RuntimeError, match="injected failure"):
            main(
                ["serve", "--scale", "smoke", "--bind", "127.0.0.1:0",
                 "-o", str(tmp_path / "out")]
            )
        assert len(created) == 1
        coordinator = created[0]
        assert coordinator._closing.is_set(), "coordinator was never closed"
        assert (
            coordinator._accept_thread is not None
            and not coordinator._accept_thread.is_alive()
        ), "accept thread leaked past the failed campaign"
        assert coordinator._listener.fileno() == -1, "listener socket leaked"


class TestCampaignSubset:
    def test_spec_round_trips_experiments(self, tiny_preset):
        spec = CampaignSpec(
            scale=tiny_preset, seed=1, experiments=("fig01", "fig04")
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["experiments"] == ["fig01", "fig04"]

    def test_subset_is_part_of_identity(self, tiny_preset):
        base = CampaignSpec(scale=tiny_preset, seed=1)
        subset = CampaignSpec(scale=tiny_preset, seed=1, experiments=("fig01",))
        assert base.key() != subset.key()
        assert subset.key() == CampaignSpec(
            scale=tiny_preset, seed=1, experiments=("fig01",), jobs=4
        ).key()

    @pytest.mark.parametrize(
        "bad",
        [
            {"experiments": []},
            {"experiments": ["no-such-experiment"]},
            {"experiments": "fig01"},
            {"experiments": [1]},
        ],
    )
    def test_spec_rejects_bad_subsets(self, tiny_preset, bad):
        with pytest.raises(ReproError):
            CampaignSpec.from_dict({"scale": tiny_preset, **bad})

    def test_run_campaign_respects_subset(self, tmp_path):
        cache.clear_cache()
        try:
            summary = run_campaign(
                tiny(experiments=["fig04", "fig01"]),
                output_dir=tmp_path,
                show_progress=False,
            )
        finally:
            cache.clear_cache()
        # Canonicalised to registry order regardless of request order.
        assert [r.experiment_id for r in summary.results] == ["fig01", "fig04"]
        loaded = load_results(tmp_path / "campaign.json")
        assert [r.experiment_id for r in loaded] == ["fig01", "fig04"]

    def test_run_campaign_rejects_bad_subset(self):
        with pytest.raises(ReproError):
            run_campaign(tiny(experiments=[]), show_progress=False)
        with pytest.raises(ReproError):
            run_campaign(tiny(experiments=["nope"]), show_progress=False)
