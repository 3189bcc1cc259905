"""Tests for growth sweeps."""

import dataclasses
import os
import threading

import pytest

from repro.bgp.config import BGPConfig
from repro.core.sweep import (
    SweepResult,
    SweepUnit,
    UnitQueue,
    execute_sweep_unit,
    resolve_jobs,
    run_growth_sweep,
    run_scenario_comparison,
    split_origins,
    sweep_units,
)
from repro.errors import ExperimentError
from repro.topology.types import NodeType, Relationship

FAST = BGPConfig(mrai=1.0, link_delay=0.001, processing_time_max=0.01)
SIZES = (80, 160)


def measured_numbers(sweep):
    """Every deterministic quantity of a sweep (timings excluded)."""
    from repro.experiments.results_io import sweep_result_to_dict

    data = sweep_result_to_dict(sweep)
    for stats in data["stats"]:
        del stats["wall_clock_seconds"]
    return data


class TestRunGrowthSweep:
    def test_basic_sweep(self):
        sweep = run_growth_sweep(
            "BASELINE", sizes=SIZES, config=FAST, num_origins=2, seed=1
        )
        assert sweep.sizes == list(SIZES)
        assert len(sweep.stats) == 2
        assert sweep.scenario == "BASELINE"
        assert all(s.n == n for s, n in zip(sweep.stats, SIZES))

    def test_series_extractors(self):
        sweep = run_growth_sweep(
            "BASELINE", sizes=SIZES, config=FAST, num_origins=2, seed=1
        )
        u = sweep.u_series(NodeType.T)
        assert len(u) == 2 and all(v > 0 for v in u)
        assert len(sweep.m_series(NodeType.T, Relationship.CUSTOMER)) == 2
        assert len(sweep.q_series(NodeType.M, Relationship.PROVIDER)) == 2
        assert len(sweep.e_series(NodeType.M, Relationship.PROVIDER)) == 2

    def test_stats_at(self):
        sweep = run_growth_sweep(
            "BASELINE", sizes=SIZES, config=FAST, num_origins=2, seed=1
        )
        assert sweep.stats_at(80).n == 80
        with pytest.raises(ExperimentError):
            sweep.stats_at(999)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ExperimentError):
            run_growth_sweep("BASELINE", sizes=(), config=FAST)

    def test_progress_callback(self):
        seen = []
        run_growth_sweep(
            "BASELINE",
            sizes=(80,),
            config=FAST,
            num_origins=1,
            seed=1,
            progress=lambda scenario, n, stats: seen.append((scenario, n)),
        )
        assert seen == [("BASELINE", 80)]

    def test_scenario_kwargs_forwarded(self):
        sweep = run_growth_sweep(
            "STATIC-MIDDLE",
            sizes=(80, 160),
            config=FAST,
            num_origins=1,
            seed=1,
            scenario_kwargs={"reference_n": 80},
        )
        # transit population frozen at its n=80 value
        small = sweep.stats_at(80)
        large = sweep.stats_at(160)
        assert small.per_type[NodeType.M].node_count == large.per_type[
            NodeType.M
        ].node_count

    def test_reproducibility(self):
        a = run_growth_sweep("BASELINE", sizes=(80,), config=FAST, num_origins=2, seed=5)
        b = run_growth_sweep("BASELINE", sizes=(80,), config=FAST, num_origins=2, seed=5)
        assert a.u_series(NodeType.T) == b.u_series(NodeType.T)


class TestParallelExecution:
    """Serial vs parallel sweeps must be bit-identical."""

    def test_jobs_do_not_change_results(self):
        kwargs = dict(sizes=SIZES, config=FAST, num_origins=3, seed=2)
        serial = run_growth_sweep("BASELINE", **kwargs)
        parallel = run_growth_sweep("BASELINE", jobs=4, **kwargs)
        assert measured_numbers(parallel) == measured_numbers(serial)

    def test_jobs_do_not_change_batched_results(self):
        kwargs = dict(
            sizes=SIZES, config=FAST, num_origins=4, seed=2, origin_batch_size=2
        )
        serial = run_growth_sweep("BASELINE", **kwargs)
        parallel = run_growth_sweep("BASELINE", jobs=4, **kwargs)
        assert measured_numbers(parallel) == measured_numbers(serial)

    def test_default_path_matches_jobs_one(self):
        kwargs = dict(sizes=(80,), config=FAST, num_origins=2, seed=3)
        assert measured_numbers(
            run_growth_sweep("BASELINE", **kwargs)
        ) == measured_numbers(run_growth_sweep("BASELINE", jobs=1, **kwargs))

    def test_batched_merge_preserves_origin_set(self):
        kwargs = dict(sizes=(80,), config=FAST, num_origins=4, seed=2)
        unbatched = run_growth_sweep("BASELINE", **kwargs)
        batched = run_growth_sweep("BASELINE", origin_batch_size=2, **kwargs)
        assert batched.stats[0].origins == unbatched.stats[0].origins
        assert batched.stats[0].per_type.keys() == unbatched.stats[0].per_type.keys()

    def test_progress_callback_order_under_parallelism(self):
        seen = []
        run_growth_sweep(
            "BASELINE",
            sizes=SIZES,
            config=FAST,
            num_origins=2,
            seed=1,
            jobs=2,
            progress=lambda scenario, n, stats: seen.append(n),
        )
        assert seen == list(SIZES)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            run_growth_sweep(
                "BASELINE", sizes=(80,), config=FAST, num_origins=1, jobs=-1
            )

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ExperimentError):
            run_growth_sweep(
                "BASELINE",
                sizes=(80,),
                config=FAST,
                num_origins=1,
                origin_batch_size=0,
            )

    @pytest.mark.parametrize("origin_batch_size", [None, 1])
    @pytest.mark.parametrize("num_origins", [0, -1])
    def test_no_origins_rejected(self, num_origins, origin_batch_size):
        with pytest.raises(ExperimentError, match="num_origins"):
            run_growth_sweep(
                "BASELINE",
                sizes=(80,),
                config=FAST,
                num_origins=num_origins,
                origin_batch_size=origin_batch_size,
            )


class TestInlineQueue:
    def test_runs_units_here_in_order_and_notifies_each_once(self):
        # One job: the queue starts no pool; collect runs the units in
        # the calling thread, in (size, batch) order, exactly as a serial
        # loop over execute_sweep_unit would.
        units = sweep_units("BASELINE", SIZES, FAST, 2, 1, {}, None)
        seen = []

        def record(unit):
            seen.append((unit, threading.get_ident()))

        with UnitQueue(1, on_unit_done=record) as queue:
            tickets = queue.submit(units)
            assert not queue.landed(tickets) and seen == []
            results = queue.collect(tickets)
            assert queue.landed(tickets)
        assert seen == [(unit, threading.get_ident()) for unit in units]
        assert [
            dataclasses.replace(result, wall_clock_seconds=0.0) for result in results
        ] == [
            dataclasses.replace(execute_sweep_unit(unit), wall_clock_seconds=0.0)
            for unit in units
        ]


class TestSweepUnits:
    def test_split_origins_contiguous_and_complete(self):
        origins = [1, 2, 3, 4, 5, 6, 7]
        batches = split_origins(origins, 3)
        assert batches == [[1, 2, 3], [4, 5], [6, 7]]
        assert split_origins(origins, 1) == [origins]
        # More batches than origins: trailing batches are empty but legal.
        assert split_origins([1], 3) == [[1], [], []]

    def test_unit_is_picklable_and_deterministic(self):
        import pickle

        unit = SweepUnit(
            scenario="BASELINE",
            n=80,
            num_origins=2,
            batch_index=0,
            num_batches=1,
            seed=1,
            config=FAST,
            scenario_kwargs=(),
        )
        clone = pickle.loads(pickle.dumps(unit))
        a = execute_sweep_unit(unit)
        b = execute_sweep_unit(clone)
        assert a.origins == b.origins
        assert a.raw.events == b.raw.events
        assert a.raw.total_updates == b.raw.total_updates
        assert a.measured_messages == b.measured_messages

    def test_unit_batch_index_validated(self):
        with pytest.raises(ExperimentError):
            SweepUnit(
                scenario="BASELINE",
                n=80,
                num_origins=2,
                batch_index=2,
                num_batches=2,
                seed=1,
                config=FAST,
                scenario_kwargs=(),
            )


class TestComparison:
    def test_multiple_scenarios(self):
        results = run_scenario_comparison(
            ["BASELINE", "TREE"], sizes=(80,), config=FAST, num_origins=2, seed=1
        )
        assert set(results) == {"BASELINE", "TREE"}
        assert results["TREE"].u_series(NodeType.T)[0] == pytest.approx(2.0)


class TestSweepResultValidation:
    def test_length_mismatch_rejected(self):
        sweep = run_growth_sweep("BASELINE", sizes=(80,), config=FAST, num_origins=1)
        with pytest.raises(ExperimentError):
            SweepResult(
                scenario="X", sizes=[80, 160], stats=sweep.stats, config=FAST
            )


class TestResolveJobs:
    def test_none_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_is_auto(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(6)), raising=False
        )
        assert resolve_jobs(0) == 6

    def test_zero_counts_the_affinity_mask_not_the_host(self, monkeypatch):
        # A container or `taskset -c 0,2` run: the host has 64 CPUs, this
        # process may use two of them.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)
        assert resolve_jobs(0) == 2

    def test_zero_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_jobs(0) == 6

    def test_zero_with_unknown_cpu_count_falls_back_to_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(0) == 1

    def test_positive_passes_through(self):
        assert resolve_jobs(3) == 3

    @pytest.mark.parametrize("bad", [-1, -8])
    def test_negative_rejected(self, bad):
        with pytest.raises(ExperimentError, match="jobs must be >= 0"):
            resolve_jobs(bad)

    def test_jobs_zero_sweep_matches_serial(self, monkeypatch):
        # jobs=0 = one worker per CPU; clamp the auto value so the test
        # stays cheap while still exercising the parallel path.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = run_growth_sweep(
            "BASELINE", sizes=SIZES, config=FAST, num_origins=2, seed=1
        )
        auto = run_growth_sweep(
            "BASELINE", sizes=SIZES, config=FAST, num_origins=2, seed=1, jobs=0
        )
        assert measured_numbers(auto) == measured_numbers(serial)
