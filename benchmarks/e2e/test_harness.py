"""Self-tests of the end-to-end ledger harness.

Run by path (tier-1 does not collect ``benchmarks/``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
import re
import sys
import textwrap
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import E2E_METRICS, LAYER_METRICS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


# ----------------------------------------------------------------------
# statistics and spans
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, percentile",
    [(10, None), (20, None), (21, 52), (60, 83), (100, 90), (400, 97), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, percentile):
    values = list(range(count, 0, -1))  # unsorted on purpose
    tail = stats.tail_percentile(values)
    if percentile is None:
        assert tail is None
        return
    assert tail[0] == percentile
    beyond = sum(1 for value in values if value > tail[1])
    assert beyond >= stats.TAIL_SAMPLES
    # one percentile higher would leave fewer than ten beyond it
    higher_rank = -(-(percentile + 1) * count // 100)
    assert count - higher_rank < stats.TAIL_SAMPLES


def test_self_time_subtracts_children_only_once():
    spans = [
        stats.Span(0, "core.unit", None, "w", 0.0, 10.0),
        stats.Span(1, "topology.generate", 0, "w", 1.0, 3.0),
        stats.Span(2, "core.cevent", 0, "w", 3.0, 9.0),
        stats.Span(3, "sim.build", 2, "w", 3.0, 4.0),  # grandchild: not the root's to subtract
    ]
    assert stats.self_times(spans) == {
        "core.unit": 2.0, "topology.generate": 2.0, "core.cevent": 5.0, "sim.build": 1.0,
    }


def test_tracer_records_parents_and_workload():
    tracer = stats.Tracer("growth-serial")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent, inner.workload) == (None, outer.span_id, "growth-serial")
    assert outer.duration >= inner.duration >= 0


# ----------------------------------------------------------------------
# failing children
# ----------------------------------------------------------------------
FAKE_CLI = textwrap.dedent(
    """
    import json, sys
    mode, args = sys.argv[1], sys.argv[2:]
    if args == ["--version"]:
        sys.exit(0)
    if mode == "exit1":
        sys.exit(1)
    if mode == "hang":
        import time
        time.sleep(60)
    target = args[args.index("-o") + 1]
    nodes = int(args[args.index("-n") + 1]) if mode == "good" else 1
    with open(target, "w") as handle:
        json.dump({"nodes": [{"id": i} for i in range(nodes)]}, handle)
    """
)


@pytest.fixture
def fake_cli(tmp_path):
    script = tmp_path / "fake_cli.py"
    script.write_text(FAKE_CLI, encoding="utf-8")
    return lambda mode: [sys.executable, str(script), mode]


@pytest.mark.parametrize("mode, failed", [("good", False), ("exit1", True), ("wrong", True)])
def test_failed_child_counts_and_exits_non_zero(fake_cli, mode, failed, capsys, tmp_path):
    out = tmp_path / "result.json"
    code = run.main(
        ["--quick", "--workload", "topo-generate", "--reps", "2", "--out", str(out)],
        cli=fake_cli(mode),
    )
    record = json.loads(out.read_text())["workloads"]["topo-generate"]
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert record["attempted"] == 2
    if failed:
        assert code != 0 and not line["correct"] and line["failed"] == 2
        assert record["metrics"]["failed_frac"]["median"] == 1.0
        assert "wall_s" not in record["metrics"]  # a failed operation has no timing
    else:
        assert code == 0 and line["correct"] and line["failed"] == 0
        assert record["metrics"]["failed_frac"]["median"] == 0.0
        assert line["metrics"]["wall_s"]["value"] > 0


def test_child_timeout_is_a_failure(fake_cli, tmp_path):
    runner = wl.Runner(tmp_path, cli=fake_cli("hang"), timeout_s=0.5)
    started = time.perf_counter()
    child = runner.run(["topology", "generate", "-n", "5", "-o", "x.json"])
    assert child.timed_out and child.returncode != 0
    assert time.perf_counter() - started < 10
    operation = wl.Operation("cold", [], tmp_path / "x.json")
    error, _ = wl.judge(wl.WORKLOADS["topo-generate"], wl.QUICK, operation, child, None)
    assert "timed out" in error


def test_unreaped_child_is_killed_on_the_way_out(fake_cli, tmp_path):
    runner = wl.Runner(tmp_path, cli=fake_cli("hang"))
    with pytest.raises(KeyboardInterrupt):
        with runner.spawn(["x"], None) as (process, _):
            raise KeyboardInterrupt  # what a Ctrl-C inside wait4 looks like
    assert process.returncode == -9


def test_silent_api_child_is_a_failed_operation(fake_cli, tmp_path):
    sys.path.insert(0, str(wl.SRC_DIR))
    import layers

    runner = wl.Runner(tmp_path, cli=fake_cli("hang"), timeout_s=0.5)
    facts = layers.Facts()
    started = time.perf_counter()
    layers._probe_api(stats.Tracer("w"), facts, runner, 0, tmp_path, 1.0)
    assert time.perf_counter() - started < 10
    assert facts.failures == ["api child announced its port"]
    assert "api.overhead_s" not in facts.metrics()


def test_digest_mismatch_is_a_failure(fake_cli, tmp_path):
    runner = wl.Runner(tmp_path, cli=fake_cli("good"))
    artifact = tmp_path / "t.json"
    child = runner.run(["topology", "generate", "-n", str(wl.QUICK.topo_nodes), "-o", artifact])
    operation = wl.Operation("cold", [], artifact)
    workload = wl.WORKLOADS["topo-generate"]
    error, digest = wl.judge(workload, wl.QUICK, operation, child, None)
    assert error is None
    assert wl.judge(workload, wl.QUICK, operation, child, digest)[0] is None
    assert "digest" in wl.judge(workload, wl.QUICK, operation, child, "0" * 64)[0]


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _document(**metrics):
    return {
        "mode": "e2e", "seed": 0,
        "workloads": {
            "w": {
                "metrics": {
                    name: {"median": stats.median(values), "values": values, "n": len(values)}
                    for name, values in metrics.items()
                },
                "work_units": 60,
            }
        },
    }


def _verdicts(base, change):
    return {metric: outcome for _, metric, _, _, outcome in compare.compare_documents(base, change)}


def test_compare_verdicts():
    bound = E2E_METRICS["wall_s"]["bound"]
    base = _document(wall_s=[10.0, 10.1, 10.2], peak_rss_mb=[100.0, 100.0], failed_frac=[0.0])
    assert set(_verdicts(base, base).values()) == {"ok"}

    def walls(*factors):
        return _document(wall_s=[10.1 * factor for factor in factors])

    slow = 1 + bound + 0.05
    slower = _document(
        wall_s=[10.1 * slow] * 3, peak_rss_mb=[104.0, 104.0], failed_frac=[0.0]
    )
    assert _verdicts(base, slower) == {
        "wall_s": "worse", "peak_rss_mb": "ok", "failed_frac": "ok", "work_units": "ok",
    }
    # within the bound
    assert _verdicts(base, walls(1 + bound - 0.05))["wall_s"] == "ok"
    # repetitions spread wider than the bound and the ranges overlap
    assert _verdicts(base, walls(0.9, slow, slow + 0.1))["wall_s"] == "unresolved"
    # just as noisy, but every run is slower than every base run: resolved
    assert _verdicts(base, walls(slow, slow + 0.2, slow + 0.4))["wall_s"] == "worse"
    # any failure is worse than none
    assert _verdicts(base, _document(failed_frac=[0.25]))["failed_frac"] == "worse"
    # higher is better
    rates = _document(work_per_s=[6.0, 6.0])
    assert _verdicts(rates, _document(work_per_s=[6.0 * (1 - bound) - 0.1] * 2))["work_per_s"] == "worse"
    assert _verdicts(rates, _document(work_per_s=[7.0, 7.0]))["work_per_s"] == "ok"
    # a measurement the base has and the change lost
    lost = _document(wall_s=[10.0, 10.1, 10.2], failed_frac=[0.0])
    assert _verdicts(base, lost)["peak_rss_mb"] == "missing"
    lost["workloads"] = {}
    assert set(_verdicts(base, lost).values()) == {"missing"}


def test_compare_exact_counters_and_exit_code(tmp_path, capsys):
    base = _document(wall_s=[10.0, 10.1])
    base["workloads"]["w"]["metrics"]["sim.events"] = {"median": 1000, "n": 1}
    change = json.loads(json.dumps(base))
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(base))
    paths[1].write_text(json.dumps(change))
    assert run.main(["--compare", *map(str, paths)]) == 0
    change["workloads"]["w"]["metrics"]["sim.events"]["median"] = 1001
    paths[1].write_text(json.dumps(change))
    assert run.main(["--compare", *map(str, paths)]) == 1
    assert "worse" in capsys.readouterr().out
    del change["workloads"]["w"]["metrics"]["sim.events"]  # a lost counter fails too
    paths[1].write_text(json.dumps(change))
    assert run.main(["--compare", *map(str, paths)]) == 1
    assert "missing" in capsys.readouterr().out
    change["seed"] = 1  # other inputs: nothing to compare
    paths[1].write_text(json.dumps(change))
    assert run.main(["--compare", *map(str, paths)]) == 2


# ----------------------------------------------------------------------
# names and the seed pool
# ----------------------------------------------------------------------
def test_names_are_contract_safe():
    for name in [*wl.WORKLOADS, *E2E_METRICS, *LAYER_METRICS]:
        assert NAME.match(name), name
    for spec in [*E2E_METRICS.values(), *LAYER_METRICS.values()]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", spec["unit"]), spec
    assert len(LAYER_METRICS) <= 128


def test_expected_pool_has_a_digest_per_workload():
    expected = wl.Expected.load()
    assert len(set(expected.seeds)) == len(expected.seeds) >= 10
    for seed in expected.seeds:
        assert set(expected.digests[str(seed)]) == set(wl.WORKLOADS)
    assert expected.program_seed(0) == expected.seeds[0]
    assert expected.program_seed(len(expected.seeds) + 1) == expected.seeds[1]


# ----------------------------------------------------------------------
# the whole thing, smoke-sized
# ----------------------------------------------------------------------
def test_quick_run_finishes_inside_thirty_seconds(tmp_path, capsys):
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    code = run.main(["--quick", "--out", str(out)])
    elapsed = time.perf_counter() - started
    document = json.loads(out.read_text())
    assert code == 0
    assert set(document["workloads"]) == set(wl.WORKLOADS)
    for name, record in document["workloads"].items():
        assert record["failed"] == 0 and record["attempted"] >= 1, name
        assert {"wall_s", "work_per_s", "peak_rss_mb", "setup_s"} <= set(record["metrics"])
        assert ("warm_wall_s" in record["metrics"]) == (name == "campaign-pool-ckpt")
    assert document["host"]["nproc"] and document["workloads"]["growth-serial"]["commands"]
    assert not (run.HERE / ".scratch").exists()
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"
