"""One pool per campaign: planned sweeps, the unit queue and what it keeps.

Under ``jobs`` > 1 a campaign queues the units of every sweep its
experiments declare before the first one runs, on one pool for the whole
campaign.  These tests pin what that must not change (artifacts, kernel
counters, the plan vs what experiments read) and what it adds (one pool,
timeouts counted from a unit's start, per-thread execution context).
"""

import inspect
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.core.sweep as sweep_module
from repro.bgp.config import BGPConfig
from repro.experiments import cache
from repro.experiments import fig10
from repro.experiments.cache import (
    current_execution,
    sweep_cache_key,
    sweep_execution,
)
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.registry import experiment_ids, get_experiment
from repro.experiments.scale import PRESETS, Scale, get_scale
from repro.obs.telemetry import Telemetry, current_telemetry, telemetry_session

TINY = Scale(name="tiny-pool", sizes=(100, 200), origins=2, metric_sources=10)
SMOKE = get_scale("smoke")
SRC = Path(__file__).resolve().parents[2] / "src"

_real_run_unit = sweep_module._run_unit


def _unit_taking_a_second(unit, checkpoint_dir):
    """``_run_unit`` plus one second of sleep (installed into the pool's
    workers by monkeypatching before the pool forks)."""
    time.sleep(1.0)
    return _real_run_unit(unit, checkpoint_dir)


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch):
    monkeypatch.setitem(PRESETS, TINY.name, TINY)
    cache.clear_cache()
    yield
    cache.clear_cache()


def _counters(output: Path) -> dict:
    return {
        record["name"]: record["value"]
        for record in map(
            json.loads, (output / "telemetry.jsonl").read_text().splitlines()
        )
        if record["kind"] == "counter"
    }


class TestPlanEqualsReads:
    """The plan a campaign queues is exactly what its experiments read."""

    @pytest.fixture
    def reads(self, monkeypatch):
        keys = []
        real = cache.cached_sweep

        def spy(scenario, scale, *, config=None, seed=0, scenario_kwargs=None, **kw):
            keys.append(
                sweep_cache_key(
                    scenario,
                    scale.sizes,
                    scale.origins,
                    config if config is not None else BGPConfig(),
                    seed,
                    scenario_kwargs,
                )
            )
            return real(
                scenario,
                scale,
                config=config,
                seed=seed,
                scenario_kwargs=scenario_kwargs,
                **kw,
            )

        monkeypatch.setattr(cache, "cached_sweep", spy)
        return keys

    @staticmethod
    def _declared(experiment_id, seed):
        return [
            sweep_cache_key(
                request.scenario,
                SMOKE.sizes,
                SMOKE.origins,
                request.config if request.config is not None else BGPConfig(),
                seed,
                request.scenario_kwargs,
            )
            for request in get_experiment(experiment_id).sweeps(SMOKE, seed=seed)
        ]

    @pytest.mark.parametrize(
        "experiment_id",
        [e for e in experiment_ids() if get_experiment(e).sweeps is not None],
    )
    def test_sweeping_experiment_reads_what_it_declares(self, experiment_id, reads):
        get_experiment(experiment_id).run(SMOKE, seed=1)
        assert reads == self._declared(experiment_id, 1)

    @pytest.mark.parametrize(
        "experiment_id",
        [e for e in experiment_ids() if get_experiment(e).sweeps is None],
    )
    def test_experiment_without_declaration_reads_no_sweep(self, experiment_id):
        module = inspect.getmodule(get_experiment(experiment_id).run)
        assert "cached_sweep" not in inspect.getsource(module)

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_a_changed_declaration_breaks_the_experiment(self, monkeypatch, change):
        # run() fetches through its own declaration and unpacks it
        # strictly, so a declaration that drifts fails loudly.
        declared = fig10.sweeps

        def drifted(scale, *, seed, config=None):
            requests = declared(scale, seed=seed, config=config)
            if change == "drop":
                return requests[:-1]
            return requests + [cache.SweepRequest("TREE", config)]

        monkeypatch.setattr(fig10, "sweeps", drifted)
        with pytest.raises(ValueError):
            fig10.run(TINY, seed=1)


class TestOnePoolPerCampaign:
    SLICE = ["fig04", "fig07", "fig10", "fig11", "fig12"]

    def test_jobs_and_warm_cache_give_identical_artifacts(self, tmp_path):
        reference = None
        for jobs in (1, 2, 3):
            cache.clear_cache()
            hub = Telemetry()
            output = tmp_path / f"jobs{jobs}"
            run_campaign(
                CampaignSpec(scale="smoke", seed=2, experiments=self.SLICE, jobs=jobs),
                output_dir=output,
                cache_dir=tmp_path / "cache" if jobs == 2 else None,
                telemetry=hub,
            )
            artifact = (output / "campaign.json").read_bytes()
            reference = reference if reference is not None else artifact
            assert artifact == reference, f"jobs={jobs}"
            # 9 sweeps of 2 sizes, BASELINE shared by four experiments
            # and fig12's WRATE configs included: one pool, every unit.
            if jobs > 1:
                assert hub.counters["sweep.pools"] == 1
                assert hub.counters["sweep.units"] == 18
            else:
                assert "sweep.pools" not in hub.counters
        # Warm: the plan finds everything cached and starts no pool.
        cache.clear_cache()
        hub = Telemetry()
        summary = run_campaign(
            CampaignSpec(scale="smoke", seed=2, experiments=self.SLICE, jobs=2),
            output_dir=tmp_path / "warm",
            cache_dir=tmp_path / "cache",
            telemetry=hub,
        )
        assert (tmp_path / "warm" / "campaign.json").read_bytes() == reference
        assert summary.worker_seconds == 0.0
        assert "sweep.pools" not in hub.counters

    def test_pool_workers_report_their_counters(self, tmp_path):
        runs = {}
        for jobs in (None, 2):
            cache.clear_cache()
            output = tmp_path / f"jobs{jobs}"
            run_campaign(
                CampaignSpec(
                    scale=TINY.name, seed=5, experiments=("fig04", "fig12"), jobs=jobs
                ),
                output_dir=output,
                checkpoint_dir=tmp_path / f"ck{jobs}",
            )
            runs[jobs] = _counters(output)
        kernel = {
            name: value
            for name, value in runs[None].items()
            if name.startswith(("network.", "node.", "mrai."))
            or name == "checkpoint.writes"
        }
        assert {"network.deliveries", "node.updates", "mrai.sends"} <= set(kernel)
        assert kernel["checkpoint.writes"] > 0
        assert {name: runs[2].get(name) for name in kernel} == kernel

    def test_unit_timeout_counts_from_unit_start(self, tmp_path, monkeypatch):
        # fig11 reads three sweeps: six one-second units on two workers.
        # The last pair waits ~2 s in the queue, so a 2.5 s bound on
        # queueing + running would kill a healthy pool; counted from when
        # a worker picks a unit up, no unit comes near it.
        run_campaign(
            CampaignSpec(scale=TINY.name, seed=5, experiments=("fig11",)),
            output_dir=tmp_path / "serial",
        )
        cache.clear_cache()
        monkeypatch.setattr(sweep_module, "_run_unit", _unit_taking_a_second)
        hub = Telemetry()
        started = time.monotonic()
        run_campaign(
            CampaignSpec(
                scale=TINY.name, seed=5, experiments=("fig11",), jobs=2, unit_timeout=2.5
            ),
            output_dir=tmp_path / "pooled",
            telemetry=hub,
        )
        assert time.monotonic() - started > 2.5, "units should have queued"
        assert hub.counters["sweep.pools"] == 1, "a unit timed out"
        assert (tmp_path / "pooled" / "campaign.json").read_bytes() == (
            tmp_path / "serial" / "campaign.json"
        ).read_bytes()


class TestContextPerThread:
    def test_threads_see_only_their_own_contexts(self, tmp_path):
        barrier = threading.Barrier(2)
        seen = {}

        def worker(name):
            hub = Telemetry(meta={"name": name})
            with telemetry_session(hub), sweep_execution(
                jobs=2, checkpoint_dir=tmp_path / name
            ) as execution:
                barrier.wait()  # both contexts installed at once
                seen[name] = (
                    current_telemetry() is hub,
                    current_execution() is execution,
                )
                barrier.wait()

        threads = [threading.Thread(target=worker, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"a": (True, True), "b": (True, True)}
        assert current_execution().checkpoint_dir is None


_DRIVER = """
import sys
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.scale import PRESETS, Scale

PRESETS["tiny-pool"] = Scale(
    name="tiny-pool", sizes=(100, 200), origins=2, metric_sources=10
)
run_campaign(
    CampaignSpec(scale="tiny-pool", seed=5, experiments=("fig04", "fig12"), jobs=2),
    output_dir=sys.argv[1],
    cache_dir=sys.argv[2],
    checkpoint_dir=sys.argv[3],
)
"""


@pytest.mark.slow
class TestKilledPooledCampaign:
    """SIGKILL of a ``--jobs 2`` campaign and its workers, then resume."""

    def _command(self, tmp_path, label):
        return [
            sys.executable,
            "-c",
            _DRIVER,
            str(tmp_path / f"out-{label}"),
            str(tmp_path / f"cache-{label}"),
            str(tmp_path / f"ck-{label}"),
        ]

    def _env(self, **extra):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_FAULT")}
        env["PYTHONPATH"] = str(SRC)
        env.update(extra)
        return env

    def test_killed_campaign_resumes_identically(self, tmp_path):
        reference = subprocess.run(
            self._command(tmp_path, "reference"),
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert reference.returncode == 0, reference.stderr

        # A worker hangs one event into a Baseline n=200 unit, after its
        # first checkpoint; the whole process group is then SIGKILLed.
        marker = tmp_path / "hung.marker"
        process = subprocess.Popen(
            self._command(tmp_path, "killed"),
            env=self._env(
                REPRO_FAULT_INJECT=f"BASELINE:200:0:1:{marker}",
                REPRO_FAULT_MODE="sleep:120",
            ),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not marker.exists() and process.poll() is None:
                assert time.monotonic() < deadline, "the fault never fired"
                time.sleep(0.05)
        finally:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        output = tmp_path / "out-killed"
        assert not (output / "campaign.json").exists()
        assert list((tmp_path / "ck-killed").glob("unit-*.json"))

        resumed = subprocess.run(
            self._command(tmp_path, "killed"),
            env=self._env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (output / "campaign.json").read_bytes() == (
            tmp_path / "out-reference" / "campaign.json"
        ).read_bytes()
        assert list((tmp_path / "ck-killed").glob("unit-*.json")) == []
