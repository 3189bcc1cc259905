"""Tests for sweep memoization (in-process and on-disk)."""

import json

import pytest

from repro.bgp.config import BGPConfig
from repro.experiments import cache
from repro.experiments.cache import (
    cached_sweep,
    clear_cache,
    current_execution,
    gc_cache_dir,
    sweep_cache_key,
    sweep_execution,
)
from repro.experiments.results_io import sweep_result_to_dict
from repro.experiments.scale import Scale

FAST = BGPConfig(mrai=1.0, link_delay=0.001, processing_time_max=0.01)
TINY = Scale(name="tiny", sizes=(80,), origins=1)


class TestCachedSweep:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_second_call_returns_same_object(self):
        a = cached_sweep("BASELINE", TINY, config=FAST, seed=1)
        b = cached_sweep("BASELINE", TINY, config=FAST, seed=1)
        assert a is b
        assert len(cache._CACHE) == 1

    def test_config_distinguishes_entries(self):
        cached_sweep("BASELINE", TINY, config=FAST, seed=1)
        cached_sweep("BASELINE", TINY, config=FAST.replace(wrate=True), seed=1)
        assert len(cache._CACHE) == 2

    def test_seed_distinguishes_entries(self):
        cached_sweep("BASELINE", TINY, config=FAST, seed=1)
        cached_sweep("BASELINE", TINY, config=FAST, seed=2)
        assert len(cache._CACHE) == 2

    def test_scenario_kwargs_distinguish_entries(self):
        cached_sweep("STATIC-MIDDLE", TINY, config=FAST, seed=1)
        cached_sweep(
            "STATIC-MIDDLE",
            TINY,
            config=FAST,
            seed=1,
            scenario_kwargs={"reference_n": 80},
        )
        assert len(cache._CACHE) == 2

    def test_clear(self):
        cached_sweep("BASELINE", TINY, config=FAST, seed=1)
        clear_cache()
        assert len(cache._CACHE) == 0


class TestCanonicalKey:
    """Regression: keys were built from raw (possibly unhashable) values."""

    def test_unhashable_kwargs_are_legal(self):
        key = sweep_cache_key(
            "BASELINE",
            (80,),
            1,
            FAST,
            0,
            {"weights": [1, 2, 3], "table": {"a": 1}},
        )
        assert isinstance(key, str) and len(key) == 64

    def test_key_is_stable_across_equal_inputs(self):
        a = sweep_cache_key("BASELINE", (80,), 1, FAST, 0, {"x": [1, 2]})
        b = sweep_cache_key("baseline", [80], 1, BGPConfig(
            mrai=1.0, link_delay=0.001, processing_time_max=0.01
        ), 0, {"x": [1, 2]})
        assert a == b

    def test_key_depends_on_every_input(self):
        base = sweep_cache_key("BASELINE", (80,), 1, FAST, 0, None)
        assert base != sweep_cache_key("TREE", (80,), 1, FAST, 0, None)
        assert base != sweep_cache_key("BASELINE", (80, 160), 1, FAST, 0, None)
        assert base != sweep_cache_key("BASELINE", (80,), 2, FAST, 0, None)
        assert base != sweep_cache_key(
            "BASELINE", (80,), 1, FAST.replace(wrate=True), 0, None
        )
        assert base != sweep_cache_key("BASELINE", (80,), 1, FAST, 1, None)
        assert base != sweep_cache_key("BASELINE", (80,), 1, FAST, 0, {"k": 1})

    def test_kwargs_order_is_irrelevant(self):
        a = sweep_cache_key("BASELINE", (80,), 1, FAST, 0, {"a": 1, "b": 2})
        b = sweep_cache_key("BASELINE", (80,), 1, FAST, 0, {"b": 2, "a": 1})
        assert a == b

    def test_mutating_kwargs_after_keying_is_safe(self):
        kwargs = {"weights": [1, 2]}
        before = sweep_cache_key("BASELINE", (80,), 1, FAST, 0, kwargs)
        kwargs["weights"].append(3)
        after = sweep_cache_key("BASELINE", (80,), 1, FAST, 0, kwargs)
        assert before != after


class TestDiskCache:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_miss_writes_entry(self, tmp_path):
        cached_sweep("BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path)
        assert list(tmp_path.glob("sweep-*.json"))

    def test_warm_cache_skips_simulation(self, tmp_path, monkeypatch):
        first = cached_sweep("BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path)
        clear_cache()  # drop the in-process layer, keep the disk layer

        def boom(*args, **kwargs):
            raise AssertionError("cache miss: simulation re-ran")

        monkeypatch.setattr(cache.SweepExecution, "_run_queued", boom)
        second = cached_sweep(
            "BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path
        )
        assert sweep_result_to_dict(second) == sweep_result_to_dict(first)

    def test_different_inputs_do_not_collide(self, tmp_path):
        cached_sweep("BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path)
        clear_cache()
        cached_sweep("BASELINE", TINY, config=FAST, seed=2, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("sweep-*.json"))) == 2

    def test_corrupt_entry_recomputes(self, tmp_path):
        cached_sweep("BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path)
        clear_cache()
        for path in tmp_path.glob("sweep-*.json"):
            path.write_text("{ not json", encoding="utf-8")
        result = cached_sweep(
            "BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path
        )
        assert result.sizes == [80]

    def test_disk_round_trip_is_exact(self, tmp_path):
        first = cached_sweep("BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path)
        clear_cache()
        second = cached_sweep(
            "BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path
        )
        assert sweep_result_to_dict(second) == sweep_result_to_dict(first)
        assert second.config == first.config


class TestSweepExecutionContext:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_context_supplies_cache_dir_and_counts(self, tmp_path):
        with sweep_execution(cache_dir=tmp_path) as execution:
            cached_sweep("BASELINE", TINY, config=FAST, seed=1)
            cached_sweep("BASELINE", TINY, config=FAST, seed=1)
            assert execution.misses == 1
            assert execution.memory_hits == 1
            assert execution.worker_seconds > 0
        clear_cache()
        with sweep_execution(cache_dir=tmp_path) as execution:
            cached_sweep("BASELINE", TINY, config=FAST, seed=1)
            assert execution.disk_hits == 1
            assert execution.cache_hits == 1
            assert execution.misses == 0

    def test_context_restored_after_block(self, tmp_path):
        outer = current_execution()
        with sweep_execution(jobs=2, cache_dir=tmp_path):
            assert current_execution().jobs == 2
        assert current_execution() is outer


class TestCacheGc:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def _populate_mixed_dir(self, tmp_path):
        """One live entry plus every flavour of stale file gc must prune."""
        cached_sweep("BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path)
        (live,) = tmp_path.glob("sweep-*.json")

        stale_version = tmp_path / "sweep-deadbeef.json"
        document = json.loads(live.read_text(encoding="utf-8"))
        document["cache_meta"]["key_version"] = -1
        stale_version.write_text(json.dumps(document), encoding="utf-8")

        legacy = tmp_path / "sweep-cafebabe.json"
        document = json.loads(live.read_text(encoding="utf-8"))
        del document["cache_meta"]  # written before provenance existed
        legacy.write_text(json.dumps(document), encoding="utf-8")

        corrupt = tmp_path / "sweep-0badf00d.json"
        corrupt.write_text("{ not json", encoding="utf-8")

        orphan = tmp_path / "sweep-f33db33f.json.tmp"
        orphan.write_text("interrupted write", encoding="utf-8")

        unrelated = tmp_path / "notes.txt"
        unrelated.write_text("hands off", encoding="utf-8")
        return live, [stale_version, legacy, corrupt, orphan], unrelated

    def test_prunes_stale_entries_only(self, tmp_path):
        live, stale, unrelated = self._populate_mixed_dir(tmp_path)
        report = gc_cache_dir(tmp_path)
        assert live.exists()
        assert unrelated.exists()
        assert not any(path.exists() for path in stale)
        assert report.scanned == 4  # the sweep-*.json files, tmp aside
        assert report.kept == 1
        assert report.pruned == 4
        assert sorted(report.pruned_files) == sorted(stale)
        assert report.reclaimed_bytes > 0

    def test_dry_run_deletes_nothing(self, tmp_path):
        live, stale, unrelated = self._populate_mixed_dir(tmp_path)
        report = gc_cache_dir(tmp_path, dry_run=True)
        assert all(path.exists() for path in stale)
        assert live.exists() and unrelated.exists()
        assert report.pruned == 4
        assert report.dry_run is True
        assert "would prune" in report.to_text()

    def test_kept_entry_still_loads(self, tmp_path):
        self._populate_mixed_dir(tmp_path)
        gc_cache_dir(tmp_path)
        clear_cache()
        result = cached_sweep(
            "BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path
        )
        assert result.sizes == [80]

    def test_stale_code_version_pruned(self, tmp_path, monkeypatch):
        cached_sweep("BASELINE", TINY, config=FAST, seed=1, cache_dir=tmp_path)
        monkeypatch.setattr(cache, "__version__", "999.0.0")
        report = gc_cache_dir(tmp_path)
        assert report.pruned == 1
        assert list(tmp_path.glob("sweep-*.json")) == []

    def test_missing_dir_is_empty_report(self, tmp_path):
        report = gc_cache_dir(tmp_path / "nope")
        assert report.scanned == 0
        assert report.pruned == 0
        assert "pruned 0" in report.to_text()
