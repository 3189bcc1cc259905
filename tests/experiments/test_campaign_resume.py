"""Resumable campaigns: interrupt, flush, resume, identical artifacts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import cache
from repro.experiments import campaign as campaign_module
from repro.checkpoint.format import KIND_CAMPAIGN, write_checkpoint
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.results_io import result_to_dict
from repro.experiments.scale import PRESETS, Scale
from repro.errors import CheckpointError

TINY = Scale(name="tiny-resume", sizes=(100, 200), origins=2, metric_sources=10)

#: fig04 and fig05 share one Baseline sweep; fig12 adds a WRATE sweep —
#: a two-sweep campaign slice that keeps these tests affordable.
SLICE = ["fig04", "fig05", "fig12"]


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch):
    monkeypatch.setitem(PRESETS, TINY.name, TINY)
    cache.clear_cache()
    yield
    cache.clear_cache()


def tiny(seed=5):
    return CampaignSpec(scale=TINY.name, seed=seed)


@pytest.fixture
def sliced_registry(monkeypatch):
    monkeypatch.setattr(
        campaign_module,
        "experiment_ids",
        lambda include_extensions=False: list(SLICE),
    )


class TestKeyboardInterrupt:
    def test_interrupt_flushes_and_resume_is_identical(
        self, tmp_path, monkeypatch, sliced_registry
    ):
        # Reference: one uninterrupted run.
        reference = tmp_path / "reference"
        run_campaign(tiny(), output_dir=reference)
        cache.clear_cache()

        # Interrupted run: Ctrl-C arrives while fig12 is executing.
        real_run = campaign_module.run_experiment

        def interrupted_run(experiment_id, scale, seed=0):
            if experiment_id == "fig12":
                raise KeyboardInterrupt
            return real_run(experiment_id, scale, seed=seed)

        monkeypatch.setattr(campaign_module, "run_experiment", interrupted_run)
        output = tmp_path / "output"
        checkpoints = tmp_path / "checkpoints"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                tiny(),
                output_dir=output,
                cache_dir=tmp_path / "cache",
                checkpoint_dir=checkpoints,
            )
        monkeypatch.setattr(campaign_module, "run_experiment", real_run)

        # The flush: completed experiments were persisted before exiting.
        assert (checkpoints / "campaign-state.json").exists()

        # Resume: completed work is skipped, only fig12 runs.
        cache.clear_cache()
        ran = []

        def counting_run(experiment_id, scale, seed=0):
            ran.append(experiment_id)
            return real_run(experiment_id, scale, seed=seed)

        monkeypatch.setattr(campaign_module, "run_experiment", counting_run)
        summary = run_campaign(
            tiny(),
            output_dir=output,
            cache_dir=tmp_path / "cache",
            checkpoint_dir=checkpoints,
        )
        assert ran == ["fig12"]
        assert [r.experiment_id for r in summary.results] == SLICE

        # Identity: the resumed campaign's artifacts match the
        # uninterrupted run byte for byte.
        assert (output / "campaign.json").read_bytes() == (
            reference / "campaign.json"
        ).read_bytes()
        assert (output / "campaign.md").read_bytes() == (
            reference / "campaign.md"
        ).read_bytes()

        # Success removes the campaign state file.
        assert not (checkpoints / "campaign-state.json").exists()

    def test_flush_creates_checkpoint_dir(self, tmp_path, monkeypatch):
        """Regression: the first flush must mkdir the checkpoint dir.

        fig01 is synthetic (no sweep), so nothing else has created the
        directory by the time the campaign flushes its state.
        """
        monkeypatch.setattr(
            campaign_module,
            "experiment_ids",
            lambda include_extensions=False: ["fig01", "fig04"],
        )
        real_run = campaign_module.run_experiment

        def interrupted_run(experiment_id, scale, seed=0):
            if experiment_id == "fig04":
                raise KeyboardInterrupt
            return real_run(experiment_id, scale, seed=seed)

        monkeypatch.setattr(campaign_module, "run_experiment", interrupted_run)
        checkpoints = tmp_path / "nested" / "checkpoints"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tiny(), checkpoint_dir=checkpoints)
        assert (checkpoints / "campaign-state.json").exists()

    def test_interrupt_without_checkpoint_dir_still_propagates(
        self, monkeypatch, sliced_registry, tmp_path
    ):
        def boom(experiment_id, scale, seed=0):
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign_module, "run_experiment", boom)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tiny(), output_dir=tmp_path / "out")


class TestResumeValidation:
    def test_resume_refuses_different_campaign(
        self, tmp_path, monkeypatch, sliced_registry
    ):
        real_run = campaign_module.run_experiment

        def interrupted_run(experiment_id, scale, seed=0):
            if experiment_id == "fig12":
                raise KeyboardInterrupt
            return real_run(experiment_id, scale, seed=seed)

        monkeypatch.setattr(campaign_module, "run_experiment", interrupted_run)
        checkpoints = tmp_path / "checkpoints"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tiny(), checkpoint_dir=checkpoints)
        monkeypatch.setattr(campaign_module, "run_experiment", real_run)
        with pytest.raises(CheckpointError, match="cannot resume"):
            run_campaign(tiny(seed=6), checkpoint_dir=checkpoints)

    def test_corrupt_state_is_refused(self, tmp_path, sliced_registry):
        checkpoints = tmp_path / "checkpoints"
        checkpoints.mkdir()
        (checkpoints / "campaign-state.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            run_campaign(tiny(), checkpoint_dir=checkpoints)

    def test_resume_with_no_state_runs_from_scratch(
        self, tmp_path, sliced_registry
    ):
        summary = run_campaign(tiny(), checkpoint_dir=tmp_path / "empty")
        assert [r.experiment_id for r in summary.results] == SLICE

    def test_state_of_the_documented_layout_resumes(
        self, tmp_path, monkeypatch, sliced_registry
    ):
        # The campaign-state payload is the identity (scale, seed,
        # include_extensions, experiments) plus the completed results —
        # the layout earlier releases wrote, so their states resume.
        (reference,) = run_campaign(
            CampaignSpec(scale=TINY.name, seed=5, experiments=("fig04",))
        ).results
        checkpoints = tmp_path / "checkpoints"
        write_checkpoint(
            checkpoints / "campaign-state.json",
            KIND_CAMPAIGN,
            {
                "scale": TINY.name,
                "seed": 5,
                "include_extensions": False,
                "experiments": None,
                "completed": [result_to_dict(reference)],
            },
        )
        ran = []
        real_run = campaign_module.run_experiment

        def counting_run(experiment_id, scale, seed=0):
            ran.append(experiment_id)
            return real_run(experiment_id, scale, seed=seed)

        monkeypatch.setattr(campaign_module, "run_experiment", counting_run)
        summary = run_campaign(tiny(), checkpoint_dir=checkpoints)
        assert ran == ["fig05", "fig12"]
        assert [r.experiment_id for r in summary.results] == SLICE
        assert not (checkpoints / "campaign-state.json").exists()


_DRIVER = """
import sys
from repro.experiments import campaign as campaign_module
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.scale import PRESETS, Scale

campaign_module.experiment_ids = lambda include_extensions=False: ["fig04"]
PRESETS["tiny-resume"] = Scale(
    name="tiny-resume", sizes=(100, 200), origins=2, metric_sources=10
)
summary = run_campaign(
    CampaignSpec(scale="tiny-resume", seed=5),
    output_dir=sys.argv[1],
    cache_dir=sys.argv[2],
    checkpoint_dir=sys.argv[3],
)
"""


@pytest.mark.slow
class TestKilledProcess:
    """The acceptance scenario: SIGKILL-grade death mid-sweep, then resume."""

    def _run(self, tmp_path, label, *, fault=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env.pop("REPRO_FAULT_INJECT", None)
        if fault is not None:
            env["REPRO_FAULT_INJECT"] = fault
        out = tmp_path / label
        return (
            subprocess.run(
                [
                    sys.executable,
                    "-c",
                    _DRIVER,
                    str(out),
                    str(tmp_path / f"cache-{label}"),
                    str(tmp_path / f"ck-{label}"),
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            ),
            out,
        )

    def test_killed_campaign_resumes_identically(self, tmp_path):
        # Reference: uninterrupted.
        proc, reference = self._run(tmp_path, "reference")
        assert proc.returncode == 0, proc.stderr

        # Killed: the process dies hard (os._exit) one event into the
        # n=200 unit of fig04's sweep — after a unit checkpoint was written.
        marker = tmp_path / "died.marker"
        proc, output = self._run(
            tmp_path, "killed", fault=f"BASELINE:200:0:1:{marker}"
        )
        assert proc.returncode == 1
        assert marker.exists()
        assert not (output / "campaign.json").exists()
        checkpoints = tmp_path / "ck-killed"
        assert list(checkpoints.glob("unit-*.json")), "unit checkpoint expected"

        # Resume: the same command, on the killed run's cache and
        # checkpoint dirs.
        proc2, _ = self._run(tmp_path, "killed")
        assert proc2.returncode == 0, proc2.stderr
        assert (output / "campaign.json").read_bytes() == (
            reference / "campaign.json"
        ).read_bytes()
        assert list(checkpoints.glob("unit-*.json")) == []
