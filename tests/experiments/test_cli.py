"""Tests for the repro-bgp command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.registry import experiment_ids


#: What a process pays before it simulates anything and a verb loads only
#: when it uses it: OpenSSL's binding (``hashlib`` maps libcrypto) and the
#: process-pool stack, which imports ``logging``.
_FLOOR = ("_hashlib", "multiprocessing", "_multiprocessing", "concurrent", "logging")


def _modules_after(argv, tmp_path):
    """The ``repro``, scipy, networkx and :data:`_FLOOR` modules a fresh
    interpreter holds after ``main(argv)``."""
    roots = ("repro", "scipy", "networkx", *_FLOOR)
    script = (
        "import json, sys\n"
        "from repro.experiments.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as stop:\n"
        "    code = stop.code\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        f"                        if m.split('.')[0] in {roots!r})))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(modules, *prefixes):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


class TestImportHygiene:
    """Each verb imports what it runs: the parser imports nothing, and
    :func:`main` imports only the dispatched verb's module."""

    def test_cli_start_up_loads_no_analysis_library(self, tmp_path):
        """Every CLI child pays the import of ``repro.experiments.cli``;
        scipy and networkx serve a handful of verbs and load when those
        run, not before — not for ``--version``, not for the generator."""
        script = (
            "import json, sys\n"
            "from repro.experiments.cli import main\n"
            "def heavy():\n"
            "    return sorted({'scipy', 'networkx'} & set(sys.modules))\n"
            "try:\n"
            "    main(['--version'])\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0\n"
            "after_version = heavy()\n"
            f"assert main(['topology', 'generate', '-n', '80', '-o', {str(tmp_path / 't.json')!r}]) == 0\n"
            "print(json.dumps({'version': after_version, 'generate': heavy()}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == {
            "version": [],
            "generate": [],
        }

    def test_version_loads_only_the_cli(self, tmp_path):
        assert _modules_after(["--version"], tmp_path) == [
            "repro",
            "repro._version",
            "repro.experiments",
            "repro.experiments.cli",
        ]

    def test_topology_generate_loads_no_simulator(self, tmp_path):
        modules = _modules_after(
            ["topology", "generate", "-n", "80", "-o", "t.json"], tmp_path
        )
        assert "repro.topology.generator" in modules
        assert _loaded(
            modules,
            "repro.bgp", "repro.sim", "repro.core", "repro.experiments.registry",
            "repro.api", "repro.dist", "_hashlib",
        ) == []

    def test_simulate_loads_no_service_or_analysis(self, tmp_path):
        assert main(
            ["topology", "generate", "-n", "80", "-o", str(tmp_path / "t.json")]
        ) == 0
        modules = _modules_after(["simulate", "t.json", "--origins", "1"], tmp_path)
        assert "repro.core.cevent" in modules
        assert _loaded(
            modules,
            "repro.api", "repro.dist", "repro.measured", "repro.analysis",
            "scipy", "networkx", "_hashlib",
        ) == []

    def test_serial_campaign_loads_no_openssl_or_pool(self, tmp_path):
        """Keys and checkpoint digests hash with CPython's built-in SHA-256,
        and a run that starts no pool imports none of its stack."""
        modules = _modules_after(
            ["campaign", "--scale", "smoke", "--experiment", "fig07", "-o", "out"],
            tmp_path,
        )
        assert "repro.experiments.campaign" in modules
        assert _loaded(modules, *_FLOOR) == []

    def test_pool_campaign_loads_no_openssl(self, tmp_path):
        modules = _modules_after(
            ["campaign", "--scale", "smoke", "--experiment", "fig07",
             "--jobs", "2", "-o", "out"],
            tmp_path,
        )
        assert "concurrent.futures.process" in modules  # the pool did start
        assert _loaded(modules, "_hashlib") == []


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "fig04", "--scale", "smoke", "--seed", "7"]
        )
        assert args.experiment == "fig04"
        assert args.scale == "smoke"
        assert args.seed == 7

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig04", "--scale", "galactic"])

    def test_execution_options(self, tmp_path):
        args = build_parser().parse_args(
            ["campaign", "-o", "out", "--jobs", "4", "--cache-dir", str(tmp_path)]
        )
        assert args.jobs == 4
        assert args.cache_dir == tmp_path
        args = build_parser().parse_args(["run", "fig04", "--jobs", "2"])
        assert args.jobs == 2
        assert args.cache_dir is None

    def test_execution_options_default_off(self):
        args = build_parser().parse_args(["campaign", "-o", "out"])
        assert args.jobs is None
        assert args.cache_dir is None
        assert args.checkpoint_dir is None

    def test_checkpoint_options(self, tmp_path):
        args = build_parser().parse_args(
            [
                "campaign",
                "-o",
                "out",
                "--checkpoint-dir",
                str(tmp_path),
            ]
        )
        assert args.checkpoint_dir == tmp_path

    @pytest.mark.parametrize("verb", ["campaign", "serve"])
    def test_resume_is_not_an_option(self, verb, tmp_path):
        # A checkpoint directory resumes what it holds; there is no flag.
        argv = [verb, "-o", "out", "--checkpoint-dir", str(tmp_path)]
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--resume"])
        assert exc.value.code == 2

    def test_corrupt_campaign_state_exits_2(self, tmp_path, capsys):
        (tmp_path / "campaign-state.json").write_text("{", encoding="utf-8")
        argv = ["campaign", "--scale", "smoke", "--experiment", "fig01",
                "--checkpoint-dir", str(tmp_path), "-o", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig04"],
            ["campaign", "-o", "out"],
            ["profile", "fig04"],
            ["worker", "localhost:7787"],
            ["api", "--data-dir", "state"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_checkpoint_cadence_is_not_an_option(self, argv):
        # A unit checkpoints after every C-event but the last; the
        # argument lists are otherwise valid.
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--checkpoint-every", "1"])
        assert exc.value.code == 2

    def test_scale_choices_are_the_presets(self):
        from repro.experiments.cli import SCALE_NAMES
        from repro.experiments.scale import PRESETS

        assert SCALE_NAMES == tuple(sorted(PRESETS))

    def test_checkpoint_subcommand_args(self, tmp_path):
        args = build_parser().parse_args(
            ["checkpoint", "inspect", str(tmp_path / "a.json")]
        )
        assert args.checkpoint_command == "inspect"
        args = build_parser().parse_args(
            ["checkpoint", "verify", "a.json", "b.json"]
        )
        assert args.checkpoint_command == "verify"
        assert len(args.paths) == 2


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == experiment_ids()

    def test_run_fig01(self, capsys):
        code = main(["run", "fig01", "--scale", "smoke", "--seed", "1"])
        out = capsys.readouterr().out
        assert "fig01" in out
        assert "shape checks" in out
        assert code in (0, 1)

    def test_run_with_plot(self, capsys):
        main(["run", "fig01", "--scale", "smoke", "--seed", "1", "--plot"])
        out = capsys.readouterr().out
        # an ASCII chart with the axis line and legend glyphs
        assert "+---" in out
        assert "o=" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99", "--scale", "smoke"]) == 2
        assert "error" in capsys.readouterr().err

    def test_markdown_output(self, tmp_path, capsys):
        target = tmp_path / "out" / "fig01.md"
        main(["run", "fig01", "--scale", "smoke", "--markdown", str(target)])
        capsys.readouterr()
        assert target.exists()
        assert "fig01" in target.read_text(encoding="utf-8")


class TestTopologyCommands:
    def test_generate_json_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        assert main(
            ["topology", "generate", "-n", "150", "--seed", "1", "-o", str(out)]
        ) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["topology", "metrics", str(out)]) == 0
        output = capsys.readouterr().out
        assert "clustering" in output

    def test_generate_as_rel_by_extension(self, tmp_path, capsys):
        out = tmp_path / "topo.as-rel"
        assert main(
            ["topology", "generate", "-n", "120", "--seed", "1", "-o", str(out)]
        ) == 0
        text = out.read_text(encoding="utf-8")
        assert "|-1" in text and "|0" in text
        capsys.readouterr()

    def test_txt_output_reads_back(self, tmp_path, capsys):
        """``.txt`` is as-rel for the writer and every reader alike."""
        out = tmp_path / "topo.txt"
        assert main(
            ["topology", "generate", "-n", "120", "--seed", "1", "-o", str(out)]
        ) == 0
        assert "(as-rel)" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8").startswith("# generated by repro")
        assert main(["topology", "metrics", str(out)]) == 0
        assert main(["simulate", str(out), "--origins", "1", "--mrai", "1"]) == 0
        assert "convergence" in capsys.readouterr().out

    def test_generate_refuses_a_format_it_cannot_write(self, tmp_path, capsys):
        out = tmp_path / "topo.gz"
        assert main(["topology", "generate", "-n", "100", "-o", str(out)]) == 2
        assert "cannot write serial-1" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_scenario(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        assert main(
            [
                "topology", "generate", "-n", "100", "--scenario", "TREE",
                "--seed", "2", "-o", str(out),
            ]
        ) == 0
        assert "TREE" in capsys.readouterr().out

    def test_validate_ok(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        main(["topology", "generate", "-n", "100", "--seed", "3", "-o", str(out)])
        capsys.readouterr()
        assert main(["topology", "validate", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_dot_export(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        main(["topology", "generate", "-n", "100", "--seed", "6", "-o", str(topo)])
        out = tmp_path / "topo.dot"
        assert main(["topology", "dot", str(topo), "-o", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8").startswith("digraph")

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(
            ["topology", "generate", "-n", "100", "--scenario", "NOPE", "-o", str(out)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestSimulateCommand:
    def test_simulate_on_generated_topology(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        main(["topology", "generate", "-n", "120", "--seed", "4", "-o", str(out)])
        capsys.readouterr()
        code = main(
            ["simulate", str(out), "--origins", "2", "--mrai", "1", "--seed", "1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "U" in output and "convergence" in output

    def test_simulate_wrate_flag(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        main(["topology", "generate", "-n", "100", "--seed", "4", "-o", str(out)])
        capsys.readouterr()
        assert main(
            ["simulate", str(out), "--origins", "1", "--mrai", "1", "--wrate"]
        ) == 0
        assert "WRATE" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_mrai_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "topo.json"
        main(["topology", "generate", "-n", "60", "--seed", "1", "-o", str(out)])
        capsys.readouterr()
        code = main(["simulate", str(out), "--origins", "1", f"--mrai={value}"])
        assert code == 2
        assert "mrai must be finite" in capsys.readouterr().err

    def test_rib_backend_is_not_an_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(tmp_path / "t.json"), "--rib-backend", "dict"])
        assert exc.value.code == 2

    def test_negative_origins_exits_2(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        main(["topology", "generate", "-n", "60", "--seed", "1", "-o", str(out)])
        capsys.readouterr()
        assert main(["simulate", str(out), "--origins=-3"]) == 2
        assert "error: number of origins must be >= 0" in capsys.readouterr().err


class TestWorkloadCommand:
    def test_workload_report(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        main(["topology", "generate", "-n", "120", "--seed", "5", "-o", str(out)])
        capsys.readouterr()
        code = main(
            [
                "workload", str(out), "--duration", "120", "--rate", "0.1",
                "--downtime", "10", "--mrai", "1", "--bin", "10",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "monitor" in output and "peak/mean" in output


class TestCheckpointCommand:
    @pytest.fixture
    def checkpoint_file(self, tmp_path):
        from repro.checkpoint import KIND_CAMPAIGN, write_checkpoint

        path = tmp_path / "state.json"
        write_checkpoint(
            path,
            KIND_CAMPAIGN,
            {"scale": "tiny", "seed": 3, "completed": [{"experiment_id": "fig04"}]},
        )
        return path

    def test_inspect(self, checkpoint_file, capsys):
        assert main(["checkpoint", "inspect", str(checkpoint_file)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
        assert "fig04" in out
        assert "digest_ok" in out

    def test_inspect_unreadable_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["checkpoint", "inspect", str(missing)]) == 1
        assert "missing.json" in capsys.readouterr().err

    def test_verify_ok(self, checkpoint_file, capsys):
        assert main(["checkpoint", "verify", str(checkpoint_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_detects_corruption(self, checkpoint_file, capsys):
        import json

        data = json.loads(checkpoint_file.read_text(encoding="utf-8"))
        data["payload"]["seed"] = 999
        checkpoint_file.write_text(json.dumps(data), encoding="utf-8")
        assert main(["checkpoint", "verify", str(checkpoint_file)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "digest mismatch" in out


class TestProfileCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile", "fig01"])
        assert args.experiment == "fig01"
        assert args.output is None
        assert args.top == 10
        assert args.no_profile is False

    def test_profile_fig01(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["profile", "fig01", "--scale", "smoke", "--seed", "1"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        # human-readable summary: run totals, phases and hotspots
        assert "run summary" in out
        assert "events/sec" in out
        assert "per-phase breakdown" in out
        assert "top 10 functions by cumulative time" in out
        assert "cumtime" in out
        # and the JSONL artifact next to it
        default = tmp_path / "fig01-telemetry.jsonl"
        assert default.exists()
        from repro.obs import read_jsonl

        records = read_jsonl(default)
        assert records[0]["kind"] == "meta"
        assert records[0]["experiment"] == "fig01"
        assert records[-1]["kind"] == "summary"

    def test_profile_explicit_output_and_no_profile(self, tmp_path, capsys):
        target = tmp_path / "out" / "t.jsonl"
        code = main(
            [
                "profile",
                "fig01",
                "--scale",
                "smoke",
                "--no-profile",
                "-o",
                str(target),
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert target.exists()
        assert "run summary" in out
        assert "top 10 functions" not in out  # cProfile skipped

    def test_profile_unknown_experiment_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "fig99", "--scale", "smoke"]) == 2
        assert "error" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_of_profile_run(self, tmp_path, capsys):
        target = tmp_path / "telemetry.jsonl"
        main(["profile", "fig01", "--scale", "smoke", "-o", str(target)])
        capsys.readouterr()
        # by direct file path
        assert main(["stats", str(target)]) == 0
        out = capsys.readouterr().out
        assert "run summary" in out
        assert "experiment=fig01" in out
        # and by run directory
        assert main(["stats", str(tmp_path)]) == 0
        assert "run summary" in capsys.readouterr().out

    def test_stats_missing_log_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err


class TestDistributedOptions:
    def test_campaign_has_no_distributed_options(self, tmp_path):
        # ``serve --bind`` / ``--lease-timeout`` is the one spelling.
        for option in (["--distributed", "0.0.0.0:7787"], ["--lease-timeout", "30"]):
            with pytest.raises(SystemExit) as exc:
                main(["campaign", "-o", str(tmp_path / "out"), *option])
            assert exc.value.code == 2

    def test_campaign_distributed_defaults_off(self):
        args = build_parser().parse_args(["campaign", "-o", "out"])
        assert not hasattr(args, "distributed")
        assert args.unit_timeout is None

    def test_jobs_zero_is_accepted(self):
        args = build_parser().parse_args(["campaign", "-o", "out", "--jobs", "0"])
        assert args.jobs == 0

    def test_serve_args(self, tmp_path):
        args = build_parser().parse_args(
            [
                "serve",
                "--scale",
                "smoke",
                "-o",
                str(tmp_path),
                "--bind",
                "127.0.0.1:0",
                "--lease-timeout",
                "5",
            ]
        )
        assert args.command == "serve"
        assert args.bind == "127.0.0.1:0"
        assert args.lease_timeout == 5.0

    def test_serve_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scale", "smoke"])

    @pytest.mark.parametrize(
        "option",
        [
            ["--partitions", "2"],
            ["--mrai", "5"],
            ["--wrate"],
            ["--topology", "t.json"],
            ["--origins", "4"],
            # read by no one under a coordinator
            ["--jobs", "2"],
            ["--unit-timeout", "5"],
            ["--checkpoint-every", "2"],
        ],
    )
    def test_serve_has_no_partition_mode_options(self, tmp_path, option):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "-o", str(tmp_path / "out"), *option])
        assert exc.value.code == 2

    def test_worker_args(self, tmp_path):
        args = build_parser().parse_args(
            [
                "worker",
                "localhost:7787",
                "--checkpoint-dir",
                str(tmp_path),
                "--max-units",
                "3",
                "--connect-attempts",
                "2",
                "--quiet",
            ]
        )
        assert args.command == "worker"
        assert args.address == "localhost:7787"
        assert args.checkpoint_dir == tmp_path
        assert args.max_units == 3
        assert args.connect_attempts == 2
        assert args.quiet is True

    def test_worker_requires_address(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_worker_unreachable_coordinator_exits_2(self, capsys):
        # Port 1 on localhost refuses immediately; one attempt, no retry
        # stall.  A DistributedError must surface as a clean exit code.
        rc = main(
            ["worker", "127.0.0.1:1", "--connect-attempts", "1", "--quiet"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestUnitTimeoutIsChecked:
    """``run``, ``campaign`` and ``profile`` refuse an unusable timeout
    before running anything (the API checks the same rule on its spec)."""

    VERBS = {
        "run": lambda tmp: ["run", "fig04", "--scale", "smoke"],
        "campaign": lambda tmp: [
            "campaign", "--scale", "smoke", "--experiment", "fig04",
            "--jobs", "2", "-o", str(tmp / "out"),
        ],
        "profile": lambda tmp: [
            "profile", "fig04", "--scale", "smoke", "--no-profile",
            "-o", str(tmp / "fig04.jsonl"),
        ],
    }

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_unusable_value_exits_2(self, tmp_path, capsys, verb, value):
        argv = self.VERBS[verb](tmp_path) + [f"--unit-timeout={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: unit_timeout must be within (0, 86400]" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestCacheGcCommand:
    def test_parser(self, tmp_path):
        args = build_parser().parse_args(["cache", "gc", str(tmp_path), "--dry-run"])
        assert args.command == "cache"
        assert args.cache_command == "gc"
        assert args.cache_dir == tmp_path
        assert args.dry_run is True

    def test_gc_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_gc_runs_and_reports(self, tmp_path, capsys):
        stale = tmp_path / "sweep-feedface.json"
        stale.write_text("{ not json", encoding="utf-8")
        assert main(["cache", "gc", str(tmp_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would prune sweep-feedface.json" in out
        assert stale.exists()
        assert main(["cache", "gc", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pruned sweep-feedface.json" in out
        assert "cache gc: scanned 1" in out
        assert not stale.exists()


class TestTopologyImportAndStats:
    FIXTURE = "tests/topology/data/fixture_serial1.txt"

    def test_import_writes_json_and_report(self, tmp_path, capsys):
        out = tmp_path / "measured.json"
        report = tmp_path / "report.json"
        assert main(
            [
                "topology", "import", self.FIXTURE,
                "-o", str(out), "--report-json", str(report),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "205 edge(s) parsed" in output
        assert out.exists()
        payload = report.read_text(encoding="utf-8")
        assert '"edges_parsed": 205' in payload

    def test_import_gzip(self, tmp_path, capsys):
        out = tmp_path / "measured.json"
        assert main(
            ["topology", "import", self.FIXTURE + ".gz", "-o", str(out)]
        ) == 0
        assert out.exists()
        capsys.readouterr()

    def test_import_malformed_exits_2(self, tmp_path, capsys):
        bad = "tests/topology/data/fixture_serial1_malformed.txt"
        assert main(
            ["topology", "import", bad, "-o", str(tmp_path / "x.json")]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_single_graph(self, capsys):
        assert main(["topology", "stats", self.FIXTURE]) == 0
        output = capsys.readouterr().out
        assert "jdd pairs" in output
        assert "top betweenness" in output

    def test_stats_fidelity_report(self, tmp_path, capsys):
        generated = tmp_path / "gen.json"
        assert main(
            ["topology", "generate", "-n", "150", "--seed", "1",
             "-o", str(generated)]
        ) == 0
        capsys.readouterr()
        payload = tmp_path / "fidelity.json"
        assert main(
            [
                "topology", "stats", str(generated),
                "--against", self.FIXTURE,
                "--pivots", "32", "--json", str(payload),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "jdd" in output and "clustering_spectrum" in output
        assert '"jdd_distance"' in payload.read_text(encoding="utf-8")

    def test_fidelity_json_deterministic(self, tmp_path, capsys):
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(
                [
                    "topology", "stats", self.FIXTURE,
                    "--against", self.FIXTURE,
                    "--pivots", "16", "--json", str(out),
                ]
            ) == 0
            payloads.append(out.read_bytes())
        capsys.readouterr()
        assert payloads[0] == payloads[1]


class TestOneAsRelationshipReader:
    """Every verb reads an AS-relationship file one way, gzip'd or not."""

    FIXTURE = Path("tests/topology/data/fixture_serial1.txt")

    def test_plain_and_gzip_snapshot_read_as_one_graph(self):
        from repro.experiments.commands.topology import load_topology

        plain = load_topology(self.FIXTURE)
        gz = load_topology(Path(f"{self.FIXTURE}.gz"))
        assert plain.scenario == gz.scenario == "measured:fixture_serial1"
        assert list(plain.node_ids) == list(gz.node_ids) == list(range(len(plain)))
        assert [plain.node(v).node_type for v in plain.node_ids] == [
            gz.node(v).node_type for v in gz.node_ids
        ]
        assert list(plain.edges()) == list(gz.edges())
        assert [plain.adjacency_order(v) for v in plain.node_ids] == [
            gz.adjacency_order(v) for v in gz.node_ids
        ]

    def test_plain_and_gzip_snapshot_simulate_to_the_same_bytes(self, tmp_path, capsys):
        artifacts = []
        for name, path in (("plain", self.FIXTURE), ("gz", f"{self.FIXTURE}.gz")):
            out = tmp_path / f"{name}.json"
            assert main(
                ["simulate", str(path), "--origins", "4", "--seed", "1",
                 "--churn-json", str(out)]
            ) == 0
            artifacts.append(out.read_bytes())
        capsys.readouterr()
        assert artifacts[0] == artifacts[1]

    BAD_LINES = {
        "duplicate": ("1|2|-1", "duplicate edge 1|2|-1"),
        "conflict": ("2|1|-1", "conflicting relationship"),
        "self-loop": ("3|3|0", "self-loop at AS 3"),
    }

    VERBS = {
        "topology-metrics": ["topology", "metrics", "{path}"],
        "topology-validate": ["topology", "validate", "{path}"],
        "topology-dot": ["topology", "dot", "{path}", "-o", "{tmp}/t.dot"],
        "topology-stats": ["topology", "stats", "{path}"],
        "topology-stats-against": ["topology", "stats", "{good}", "--against", "{path}"],
        "topology-import": ["topology", "import", "{path}", "-o", "{tmp}/t.json"],
        "simulate": ["simulate", "{path}", "--origins", "1"],
        "workload": ["workload", "{path}", "--duration", "10"],
        "analyze": ["analyze", "churn", "--topology", "{path}", "--duration", "10"],
    }

    @pytest.mark.parametrize("verb", sorted(VERBS))
    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_bad_line_fails_with_file_and_line_in_every_verb(
        self, kind, verb, tmp_path, capsys
    ):
        line, message = self.BAD_LINES[kind]
        good = tmp_path / "good.txt"
        good.write_text("1|2|-1\n2|3|0\n", encoding="utf-8")
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n1|2|-1\n{line}\n2|4|-1\n", encoding="utf-8")
        argv = [
            arg.format(path=path, good=good, tmp=tmp_path) for arg in self.VERBS[verb]
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: {message}" in err


class TestAnalyzeCommand:
    def test_parser_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "churn"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "churn", "--series", "x", "--synthetic", "0.7"]
            )

    def test_synthetic_self_check(self, tmp_path, capsys):
        payload = tmp_path / "report.json"
        assert main(
            [
                "analyze", "churn", "--synthetic", "0.75",
                "--points", "1024", "--resamples", "25",
                "--json", str(payload),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "synthetic fGn, H=0.75" in output
        assert "dfa1" in output and "consensus H" in output
        assert "measured churn band" in output
        assert '"hurst"' in payload.read_text(encoding="utf-8")

    def test_series_file_whitespace(self, tmp_path, capsys):
        from repro.analysis import fractional_gaussian_noise

        series = fractional_gaussian_noise(256, 0.6, seed=1)
        path = tmp_path / "series.txt"
        path.write_text(" ".join(f"{v:.6f}" for v in series))
        assert main(
            ["analyze", "churn", "--series", str(path), "--resamples", "25"]
        ) == 0
        assert "series file" in capsys.readouterr().out

    def test_series_file_json(self, tmp_path, capsys):
        import json

        from repro.analysis import fractional_gaussian_noise

        series = fractional_gaussian_noise(256, 0.6, seed=1)
        path = tmp_path / "series.json"
        path.write_text(json.dumps([round(v, 6) for v in series]))
        assert main(
            ["analyze", "churn", "--series", str(path), "--resamples", "25"]
        ) == 0
        capsys.readouterr()

    def test_topology_workload_with_too_little_churn_exits_2(self, tmp_path, capsys):
        """The ``--topology`` series gets ext-longmem's bin-count check."""
        topology = tmp_path / "t.json"
        assert main(["topology", "generate", "-n", "100", "-o", str(topology)]) == 0
        capsys.readouterr()
        assert main(
            [
                "analyze", "churn", "--topology", str(topology),
                "--duration", "2000", "--rate", "0.0002", "--mrai", "5",
            ]
        ) == 2
        assert "too little churn to analyse" in capsys.readouterr().err

    def test_degenerate_series_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text(" ".join(["5.0"] * 256))
        assert main(["analyze", "churn", "--series", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCampaignSubsetFlag:
    def test_experiment_flag_accumulates(self):
        args = build_parser().parse_args(
            ["campaign", "-o", "out", "--experiment", "fig01",
             "--experiment", "ext-longmem"]
        )
        assert args.experiment == ["fig01", "ext-longmem"]

    def test_serve_accepts_experiment_flag(self):
        args = build_parser().parse_args(
            ["serve", "-o", "out", "--experiment", "fig01"]
        )
        assert args.experiment == ["fig01"]

    def test_default_is_none(self):
        args = build_parser().parse_args(["campaign", "-o", "out"])
        assert args.experiment is None
