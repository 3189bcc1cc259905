"""Command-line entry point: ``repro-bgp``.

Subcommands:

* ``list`` / ``run`` — the paper's tables and figures (see
  :mod:`repro.experiments.registry`);
* ``topology generate | metrics | validate`` — create, inspect and check
  AS-level topologies on disk (JSON or CAIDA as-rel format);
* ``topology import | stats`` — import measured CAIDA serial-1 snapshots
  (strict validation, import report) and compute the richer structural
  metrics; ``stats --against`` prints the generated-vs-measured fidelity
  report (dK-2, clustering spectrum, betweenness distances);
* ``analyze churn`` — Hurst/DFA long-memory report for a churn series
  (from a file, a fresh workload on a topology, or synthetic fGn);
* ``simulate`` — run a C-event experiment on a stored topology and print
  the per-type churn and factor decomposition; ``--partitions K`` runs
  it graph-partitioned (identical statistics, K lockstep members) and
  ``--churn-json`` writes a mode-comparable artifact;
* ``workload`` — run a Poisson C-event stream and report what a monitor
  sees (rates, burstiness);
* ``profile`` — run one experiment under telemetry + cProfile and report
  events/sec, the per-phase wall-clock breakdown and the hottest
  functions (also writes the run's ``telemetry.jsonl``);
* ``stats`` — render the telemetry log of a previous run (a run
  directory or a ``telemetry.jsonl`` path);
* ``serve`` / ``worker`` — distributed execution: ``serve`` runs a
  campaign as a lease-based coordinator (or, with ``--partitions K``,
  splits ONE simulation over K workers in conservative lockstep),
  ``worker`` connects (from any host) and serves either mode, with
  byte-identical artifacts;
* ``api`` — campaign-as-a-service: an asyncio HTTP server accepting
  campaign specs as JSON, deduplicating identical requests, queueing
  them under per-tenant quotas and streaming live progress as NDJSON
  (see :mod:`repro.api`);
* ``cache gc`` — prune on-disk sweep-cache entries written by a stale
  key/code version and report the reclaimed bytes.

Examples::

    repro-bgp run fig04 --scale default
    repro-bgp serve --bind 127.0.0.1:7787 --scale default -o runs/dist
    repro-bgp worker 127.0.0.1:7787
    repro-bgp api --bind 127.0.0.1:7788 --data-dir runs/service
    repro-bgp cache gc ~/.cache/repro-sweeps
    repro-bgp topology generate -n 1000 --scenario DENSE-CORE -o dense.json
    repro-bgp topology metrics dense.json
    repro-bgp topology import 20260801.as-rel.txt.gz -o measured.json
    repro-bgp topology stats dense.json --against measured.json
    repro-bgp analyze churn --synthetic 0.75 --json longmem.json
    repro-bgp simulate dense.json --origins 10 --wrate
    repro-bgp simulate dense.json --partitions 4 --churn-json churn.json
    repro-bgp serve --partitions 2 --topology dense.json -o runs/part
    repro-bgp workload dense.json --duration 600 --rate 0.05
    repro-bgp profile fig04 --scale smoke -o fig04-telemetry.jsonl
    repro-bgp stats runs/campaign-2026-08/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro._version import __version__
from repro.bgp.config import BGPConfig
from repro.core.cevent import run_c_event_experiment
from repro.core.workload import WorkloadSpec, run_workload
from repro.errors import ReproError
from repro.experiments.registry import experiment_ids, run_all, run_experiment
from repro.experiments.report import format_table
from repro.experiments.scale import PRESETS, get_scale
from repro.topology.dot import save_dot
from repro.topology.generator import generate_topology
from repro.topology.metrics import summarize
from repro.topology.scenarios import scenario_names, scenario_params
from repro.topology.serialization import load_as_rel, load_json, save_as_rel, save_json
from repro.topology.types import NODE_TYPE_ORDER, RELATIONSHIP_ORDER
from repro.topology.validation import find_violations


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-bgp",
        description=(
            "Reproduce 'On the scalability of BGP' (CoNEXT 2008): paper "
            "figures, topology tooling, and ad-hoc churn simulations."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. fig04, or 'all'")
    run_parser.add_argument(
        "--scale",
        choices=sorted(PRESETS),
        default=None,
        help="scale preset (default: REPRO_SCALE env or 'default')",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="master seed")
    run_parser.add_argument(
        "--markdown",
        type=Path,
        default=None,
        help="also write the result(s) as markdown to this file",
    )
    run_parser.add_argument(
        "--plot",
        action="store_true",
        help="also render each result as an ASCII chart",
    )
    run_parser.add_argument(
        "--log-y", action="store_true", help="log-scale the --plot y axis"
    )
    run_parser.add_argument(
        "--extensions",
        action="store_true",
        help="with 'all': also run the ext-* extension studies",
    )
    _add_execution_options(run_parser)

    campaign_parser = sub.add_parser(
        "campaign", help="run all experiments and persist md/json/summary"
    )
    campaign_parser.add_argument(
        "--scale", choices=sorted(PRESETS), default=None,
    )
    campaign_parser.add_argument("--seed", type=int, default=0)
    campaign_parser.add_argument("-o", "--output", type=Path, required=True)
    campaign_parser.add_argument("--extensions", action="store_true")
    campaign_parser.add_argument(
        "--experiment",
        action="append",
        default=None,
        metavar="ID",
        help=(
            "restrict the campaign to this experiment id (repeatable; "
            "may name extensions regardless of --extensions)"
        ),
    )
    campaign_parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue an interrupted campaign from --checkpoint-dir: "
            "completed experiments are restored, the interrupted sweep "
            "resumes from its last unit checkpoint"
        ),
    )
    _add_execution_options(campaign_parser)
    _add_distributed_options(campaign_parser)

    serve_parser = sub.add_parser(
        "serve",
        help=(
            "run a campaign as a distributed coordinator: sweep units are "
            "leased to connected 'repro-bgp worker' processes"
        ),
    )
    serve_parser.add_argument(
        "--scale", choices=sorted(PRESETS), default=None,
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("-o", "--output", type=Path, required=True)
    serve_parser.add_argument("--extensions", action="store_true")
    serve_parser.add_argument(
        "--experiment",
        action="append",
        default=None,
        metavar="ID",
        help="restrict the campaign to this experiment id (repeatable)",
    )
    serve_parser.add_argument("--resume", action="store_true")
    serve_parser.add_argument(
        "--bind",
        default="127.0.0.1:7787",
        metavar="HOST:PORT",
        help="address to listen on (default: 127.0.0.1:7787)",
    )
    serve_parser.add_argument(
        "--lease-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "how long a silent worker keeps a unit leased before it is "
            "given to another worker (campaign mode) or how long to wait "
            "for a silent partition member before aborting (default: 60)"
        ),
    )
    serve_parser.add_argument(
        "--partitions",
        type=int,
        default=0,
        metavar="K",
        help=(
            "partition mode: instead of a campaign, run ONE simulation "
            "split over K connected workers in conservative lockstep "
            "(requires --topology; churn statistics are identical to a "
            "serial run)"
        ),
    )
    serve_parser.add_argument(
        "--topology",
        type=Path,
        default=None,
        metavar="FILE",
        help="(partition mode) topology file to simulate",
    )
    serve_parser.add_argument(
        "--origins",
        type=int,
        default=10,
        metavar="N",
        help="(partition mode) number of C-events to measure (default: 10)",
    )
    _add_bgp_options(serve_parser)
    _add_execution_options(serve_parser)

    api_parser = sub.add_parser(
        "api",
        help=(
            "serve campaigns over HTTP: JSON specs in, deduplicated "
            "executions, NDJSON progress streams and cached artifacts out"
        ),
    )
    api_parser.add_argument(
        "--bind",
        default="127.0.0.1:7788",
        metavar="HOST:PORT",
        help="address to listen on (default: 127.0.0.1:7788; port 0 = ephemeral)",
    )
    api_parser.add_argument(
        "--data-dir",
        type=Path,
        required=True,
        metavar="DIR",
        help=(
            "service state root: per-campaign artifacts, checkpoints and "
            "(unless --cache-dir overrides it) the shared sweep cache"
        ),
    )
    api_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="shared sweep cache directory (default: <data-dir>/sweep-cache)",
    )
    api_parser.add_argument(
        "--max-running",
        type=int,
        default=1,
        metavar="N",
        help="campaigns executing concurrently across all tenants (default: 1)",
    )
    api_parser.add_argument(
        "--max-queued-per-tenant",
        type=int,
        default=8,
        metavar="N",
        help="queued campaigns one tenant may hold before 429 (default: 8)",
    )
    api_parser.add_argument(
        "--max-running-per-tenant",
        type=int,
        default=1,
        metavar="N",
        help="campaigns one tenant may have executing at once (default: 1)",
    )
    api_parser.add_argument(
        "--api-keys",
        default=None,
        metavar="KEY[,KEY...]",
        help=(
            "comma-separated accepted X-Api-Key values; when set, requests "
            "without a listed key are rejected (default: open, keys only "
            "name tenants for quota accounting)"
        ),
    )
    api_parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="write a unit checkpoint every N measured C-events (default: 1)",
    )

    worker_parser = sub.add_parser(
        "worker",
        help="pull and execute sweep units from a 'repro-bgp serve' coordinator",
    )
    worker_parser.add_argument(
        "address", metavar="HOST:PORT", help="coordinator to connect to"
    )
    worker_parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "checkpoint in-progress units there and resume them after a "
            "worker crash (results are byte-identical either way)"
        ),
    )
    worker_parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="write a unit checkpoint every N measured C-events (default: 1)",
    )
    worker_parser.add_argument(
        "--max-units", type=int, default=None, metavar="N",
        help="exit after executing N units (default: run until shutdown)",
    )
    worker_parser.add_argument(
        "--connect-attempts", type=int, default=8, metavar="N",
        help="transient connect failures to retry with backoff (default: 8)",
    )
    worker_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-unit progress output"
    )

    cache_parser = sub.add_parser("cache", help="manage the on-disk sweep cache")
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    gc_parser = cache_sub.add_parser(
        "gc",
        help=(
            "prune cache entries written under a stale key/code version "
            "and report reclaimed bytes"
        ),
    )
    gc_parser.add_argument("cache_dir", type=Path, metavar="DIR")
    gc_parser.add_argument(
        "--dry-run", action="store_true",
        help="report what would be pruned without deleting anything",
    )

    checkpoint_parser = sub.add_parser(
        "checkpoint", help="inspect / verify checkpoint files"
    )
    checkpoint_sub = checkpoint_parser.add_subparsers(
        dest="checkpoint_command", required=True
    )
    inspect = checkpoint_sub.add_parser(
        "inspect", help="summarize checkpoint contents"
    )
    inspect.add_argument("paths", type=Path, nargs="+")
    verify = checkpoint_sub.add_parser(
        "verify", help="check integrity (content digest) of checkpoint files"
    )
    verify.add_argument("paths", type=Path, nargs="+")

    topo = sub.add_parser("topology", help="generate / inspect topologies")
    topo_sub = topo.add_subparsers(dest="topology_command", required=True)

    gen = topo_sub.add_parser("generate", help="generate a topology file")
    gen.add_argument("-n", type=int, required=True, help="number of ASes")
    gen.add_argument(
        "--scenario",
        default="BASELINE",
        help=f"growth scenario ({', '.join(scenario_names())})",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", type=Path, required=True)
    gen.add_argument(
        "--format", choices=("json", "as-rel"), default=None,
        help="output format (default: by file extension, json otherwise)",
    )

    metrics = topo_sub.add_parser("metrics", help="print topology metrics")
    metrics.add_argument("path", type=Path)

    imp = topo_sub.add_parser(
        "import",
        help="import a measured CAIDA serial-1 snapshot (optionally .gz)",
    )
    imp.add_argument("path", type=Path, help="serial-1 file, plain or gzip'd")
    imp.add_argument("-o", "--output", type=Path, required=True,
                     help="topology JSON output path")
    imp.add_argument(
        "--lenient", action="store_true",
        help="drop-and-count bad edges (self-loops, duplicates, conflicts, "
        "invariant violations) instead of failing on the first one",
    )
    imp.add_argument(
        "--report-json", type=Path, default=None, metavar="FILE",
        help="also write the import report as canonical JSON",
    )

    tstats = topo_sub.add_parser(
        "stats",
        help="rich structural metrics; with --against, a fidelity report",
    )
    tstats.add_argument("path", type=Path)
    tstats.add_argument(
        "--against", type=Path, default=None, metavar="MEASURED",
        help="second topology: report generated-vs-measured fidelity "
        "distances (dK-2, clustering spectrum, betweenness)",
    )
    tstats.add_argument(
        "--pivots", type=int, default=64,
        help="betweenness pivot sample size (default: 64)",
    )
    tstats.add_argument("--seed", type=int, default=0)
    tstats.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the stats/fidelity payload as canonical JSON",
    )

    dot = topo_sub.add_parser("dot", help="export Graphviz DOT (Fig.-3 style)")
    dot.add_argument("path", type=Path)
    dot.add_argument("-o", "--output", type=Path, required=True)
    dot.add_argument("--no-labels", action="store_true")
    dot.add_argument(
        "--max-nodes", type=int, default=400,
        help="refuse to render larger graphs (0 = unlimited)",
    )

    validate = topo_sub.add_parser("validate", help="check structural invariants")
    validate.add_argument("path", type=Path)

    simulate = sub.add_parser("simulate", help="C-event experiment on a topology file")
    simulate.add_argument("path", type=Path)
    simulate.add_argument("--origins", type=int, default=10)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--partitions",
        type=int,
        default=0,
        metavar="K",
        help=(
            "run graph-partitioned over K in-process members "
            "(0 = serial; churn statistics are identical either way)"
        ),
    )
    simulate.add_argument(
        "--churn-json",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "also write the churn statistics as canonical JSON "
            "(byte-comparable across execution modes)"
        ),
    )
    _add_bgp_options(simulate)

    workload = sub.add_parser("workload", help="Poisson churn workload + monitor report")
    workload.add_argument("path", type=Path)
    workload.add_argument("--duration", type=float, default=600.0, help="seconds")
    workload.add_argument("--rate", type=float, default=0.05, help="C-events/second")
    workload.add_argument("--downtime", type=float, default=60.0, help="mean seconds down")
    workload.add_argument("--bin", type=float, default=30.0, help="rate-series bin width")
    workload.add_argument("--seed", type=int, default=0)
    _add_bgp_options(workload)

    profile = sub.add_parser(
        "profile",
        help="run one experiment under telemetry + cProfile and report hotspots",
    )
    profile.add_argument("experiment", help="experiment id, e.g. fig04")
    profile.add_argument(
        "--scale", choices=sorted(PRESETS), default=None,
        help="scale preset (default: REPRO_SCALE env or 'default')",
    )
    profile.add_argument("--seed", type=int, default=0, help="master seed")
    profile.add_argument(
        "-o", "--output", type=Path, default=None, metavar="FILE",
        help="telemetry JSONL path (default: <experiment>-telemetry.jsonl)",
    )
    profile.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="number of profile entries to show (default: 10)",
    )
    profile.add_argument(
        "--no-profile", action="store_true",
        help="collect telemetry only, skip the cProfile overhead",
    )
    _add_execution_options(profile)

    stats = sub.add_parser(
        "stats", help="summarize the telemetry log of a previous run"
    )
    stats.add_argument(
        "path", type=Path,
        help="run directory (containing telemetry.jsonl) or a JSONL file",
    )

    analyze = sub.add_parser(
        "analyze", help="statistical analysis of churn series"
    )
    analyze_sub = analyze.add_subparsers(dest="analyze_command", required=True)
    churn = analyze_sub.add_parser(
        "churn",
        help="Hurst/DFA long-memory report for a churn series",
    )
    source = churn.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--series", type=Path, metavar="FILE",
        help="series file: JSON array or whitespace-separated numbers",
    )
    source.add_argument(
        "--topology", type=Path, metavar="FILE",
        help="run a Poisson workload on this topology and analyse the "
        "monitor-side rate series",
    )
    source.add_argument(
        "--synthetic", type=float, metavar="H",
        help="analyse a synthetic fGn churn series of known Hurst "
        "exponent H (estimator self-check)",
    )
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument(
        "--points", type=int, default=2048,
        help="synthetic series length (default: 2048)",
    )
    churn.add_argument(
        "--duration", type=float, default=7680.0,
        help="(--topology) injection window, seconds (default: 7680)",
    )
    churn.add_argument(
        "--rate", type=float, default=0.1,
        help="(--topology) C-events/second (default: 0.1)",
    )
    churn.add_argument(
        "--resamples", type=int, default=100,
        help="block-bootstrap resamples for the CI (default: 100)",
    )
    churn.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the long-memory report as canonical JSON",
    )
    _add_bgp_options(churn)
    return parser


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run sweep units on one pool of N worker processes (a "
            "campaign queues all its sweeps up front, largest units "
            "first); 0 = one per usable CPU (results are bit-identical "
            "to a serial run; default: serial)"
        ),
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-unit wall-clock bound under --jobs, counted from when a "
            "worker starts the unit: a hung worker is killed and its unit "
            "re-run serially from checkpoint (default: wait forever)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "persistent sweep cache directory: completed sweeps are "
            "stored as JSON and reused by later runs with the same "
            "inputs and code version"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "checkpoint directory: in-progress simulations snapshot "
            "their state there and resume after a crash or interrupt "
            "(results are byte-identical either way)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="write a checkpoint every N measured C-events (default: 1)",
    )


def _add_distributed_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--distributed",
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve sweep units to 'repro-bgp worker' processes from this "
            "address instead of running them locally"
        ),
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "how long a silent worker keeps a unit leased before it is "
            "given to another worker (default: 60)"
        ),
    )


def _add_bgp_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mrai", type=float, default=30.0, help="MRAI seconds (0 = off)")
    parser.add_argument(
        "--wrate", action="store_true",
        help="rate-limit explicit withdrawals (RFC 4271) instead of NO-WRATE",
    )
    parser.add_argument(
        "--rib-backend", choices=("dict", "radix"), default="dict",
        help="RIB implementation: insertion-ordered dicts (reference) or "
        "the radix-trie backend with per-prefix dirty tracking",
    )


def _load_topology(path: Path):
    if path.suffix == ".gz":
        from repro.measured import load_serial1

        graph, _ = load_serial1(path)
        return graph
    if path.suffix in (".as-rel", ".asrel", ".txt"):
        return load_as_rel(path)
    return load_json(path)


def _write_canonical_json(payload: dict, path: Path, label: str) -> None:
    import json

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"{label} written to {path}")


def _cmd_topology(args: argparse.Namespace) -> int:
    if args.topology_command == "generate":
        params = scenario_params(args.scenario, args.n)
        graph = generate_topology(params, seed=args.seed)
        fmt = args.format
        if fmt is None:
            fmt = "as-rel" if args.output.suffix in (".as-rel", ".asrel") else "json"
        args.output.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "as-rel":
            save_as_rel(graph, args.output)
        else:
            save_json(graph, args.output)
        print(f"wrote {graph} to {args.output} ({fmt})")
        return 0
    if args.topology_command == "metrics":
        graph = _load_topology(args.path)
        rows = [
            [key, f"{value:.4g}"] for key, value in summarize(graph).items()
        ]
        print(format_table(["metric", "value"], rows, title=str(graph)))
        return 0
    if args.topology_command == "import":
        from repro.measured import load_serial1

        graph, report = load_serial1(args.path, strict=not args.lenient)
        args.output.parent.mkdir(parents=True, exist_ok=True)
        save_json(graph, args.output)
        print(f"imported {graph} from {args.path}")
        print(
            f"  {report.edges_parsed} edge(s) parsed, "
            f"{report.edges_kept} kept "
            f"({report.transit_edges} transit, {report.peer_edges} peer), "
            f"{report.edges_dropped} dropped"
        )
        if report.edges_dropped:
            print(
                f"  dropped: {report.self_loops} self-loop(s), "
                f"{report.duplicate_edges} duplicate(s), "
                f"{report.conflicting_edges} conflict(s), "
                f"{len(report.invariant_drops)} invariant violation(s)"
            )
        if not report.connected:
            print(
                f"  WARNING: graph is disconnected "
                f"({len(report.components)} components, "
                f"sizes {list(report.components[:5])}...)"
            )
        print(f"wrote {args.output}")
        if args.report_json is not None:
            _write_canonical_json(
                report.to_dict(), args.report_json, "import report"
            )
        return 0
    if args.topology_command == "stats":
        return _cmd_topology_stats(args)
    if args.topology_command == "dot":
        graph = _load_topology(args.path)
        args.output.parent.mkdir(parents=True, exist_ok=True)
        save_dot(
            graph,
            args.output,
            max_nodes=(args.max_nodes or None),
            include_labels=not args.no_labels,
        )
        print(f"wrote DOT for {graph} to {args.output}")
        return 0
    # validate
    graph = _load_topology(args.path)
    violations = find_violations(graph)
    if violations:
        print(f"{len(violations)} violation(s):")
        for violation in violations[:20]:
            print(f"  - {violation}")
        return 1
    print(f"OK: {graph} satisfies all structural invariants")
    return 0


def _cmd_topology_stats(args: argparse.Namespace) -> int:
    from repro.topology.compare import topology_fidelity_report
    from repro.topology.metrics import (
        approximate_betweenness,
        clustering_spectrum,
        joint_degree_distribution,
    )

    graph = _load_topology(args.path)
    if args.against is not None:
        measured = _load_topology(args.against)
        report = topology_fidelity_report(
            graph, measured, pivots=args.pivots, seed=args.seed
        )
        rows = [
            [name, f"{distance:.4f}"]
            for name, distance in report.distances().items()
        ]
        print(
            format_table(
                ["metric", "distance"],
                rows,
                title=(
                    f"fidelity: {args.path.name} (n={report.n_generated}) "
                    f"vs {args.against.name} (n={report.n_measured})"
                ),
            )
        )
        print(
            f"(0 = identical; {report.pivots} betweenness pivots, "
            f"seed {report.seed})"
        )
        if args.json is not None:
            _write_canonical_json(
                report.to_dict(), args.json, "fidelity report"
            )
        return 0
    jdd = joint_degree_distribution(graph)
    spectrum = clustering_spectrum(graph)
    betweenness = approximate_betweenness(
        graph, pivots=min(args.pivots, len(graph)), seed=args.seed
    )
    top = sorted(betweenness.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    rows = [
        [key, f"{value:.4g}"] for key, value in summarize(graph).items()
    ]
    rows.append(["jdd pairs", f"{len(jdd)}"])
    rows.append(["clustering spectrum degrees", f"{len(spectrum)}"])
    rows.append(
        ["top betweenness", ", ".join(f"{v}:{b:.3f}" for v, b in top)]
    )
    print(format_table(["metric", "value"], rows, title=str(graph)))
    if args.json is not None:
        payload = {
            "summary": {k: v for k, v in summarize(graph).items()},
            "joint_degree_distribution": {
                f"{a},{b}": count for (a, b), count in sorted(jdd.items())
            },
            "clustering_spectrum": {
                str(k): round(v, 10) for k, v in sorted(spectrum.items())
            },
            "betweenness": {
                str(v): round(b, 10) for v, b in sorted(betweenness.items())
            },
            "pivots": min(args.pivots, len(graph)),
            "seed": args.seed,
        }
        _write_canonical_json(payload, args.json, "topology stats")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_churn_series, fractional_gaussian_noise

    if args.series is not None:
        text = args.series.read_text(encoding="utf-8").strip()
        if text.startswith("["):
            import json

            series = [float(v) for v in json.loads(text)]
        else:
            series = [float(v) for v in text.split()]
        label = f"series file {args.series}"
    elif args.topology is not None:
        from repro.core.workload import WorkloadSpec, run_workload

        graph = _load_topology(args.topology)
        config = BGPConfig(
            mrai=args.mrai, wrate=args.wrate, rib_backend=args.rib_backend
        )
        spec = WorkloadSpec(
            duration=args.duration,
            event_rate=args.rate,
            mean_downtime=2.0,
            storm_probability=0.0,
        )
        result = run_workload(graph, spec, config, seed=args.seed)
        bin_width = max(args.duration / 128.0, 4.0 * config.mrai)
        series = [rate for _, rate in result.trace.rate_series(bin_width)]
        label = (
            f"workload on {args.topology} "
            f"({result.events_executed} events, {bin_width:.0f}s bins)"
        )
    else:
        series = list(
            fractional_gaussian_noise(
                args.points, args.synthetic, seed=args.seed
            )
        )
        label = f"synthetic fGn, H={args.synthetic}, {args.points} points"

    report = analyze_churn_series(
        series, seed=args.seed, resamples=args.resamples
    )
    print(f"long-memory analysis of {label}")
    rows = [
        [name, f"{estimate.hurst:.4f}", f"{estimate.windows}"]
        for name, estimate in sorted(report.estimates.items())
    ]
    print(format_table(["estimator", "hurst", "windows"], rows))
    interval = report.dfa1_interval
    print(
        f"dfa1 H = {report.hurst:.4f} "
        f"[{interval.low:.4f}, {interval.high:.4f}] "
        f"({interval.confidence:.0%} block bootstrap, "
        f"{args.resamples} resamples)"
    )
    print(f"consensus H = {report.consensus_hurst:.4f}")
    verdict = "inside" if report.in_measured_band() else "outside"
    print(f"{verdict} the measured churn band H in [0.6, 0.9] (Kitsak et al.)")
    if args.json is not None:
        _write_canonical_json(
            report.to_dict(), args.json, "long-memory report"
        )
    return 0


def _churn_artifact(stats) -> dict:
    """Mode-independent churn statistics as JSON-ready primitives.

    Serial and partitioned runs of the same ``(topology, config, seed)``
    produce byte-identical artifacts — ``scripts/partition_smoke.sh``
    diffs them in CI.
    """
    return {
        "scenario": stats.scenario,
        "n": stats.n,
        "seed": stats.seed,
        "origins": list(stats.origins),
        "mrai": stats.config.mrai,
        "wrate": stats.config.wrate,
        "measured_messages": stats.measured_messages,
        "mean_down_convergence": stats.mean_down_convergence,
        "mean_up_convergence": stats.mean_up_convergence,
        "down_updates_per_type": {
            node_type.value: stats.down_updates_per_type[node_type]
            for node_type in NODE_TYPE_ORDER
            if node_type in stats.down_updates_per_type
        },
        "up_updates_per_type": {
            node_type.value: stats.up_updates_per_type[node_type]
            for node_type in NODE_TYPE_ORDER
            if node_type in stats.up_updates_per_type
        },
        "per_type": {
            node_type.value: {
                "U": factors.u_total,
                **{
                    rel.value: factors.u(rel) for rel in RELATIONSHIP_ORDER
                },
            }
            for node_type in NODE_TYPE_ORDER
            for factors in (stats.per_type.get(node_type),)
            if factors is not None
        },
    }


def _write_churn_json(stats, path: Path) -> None:
    import json

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(_churn_artifact(stats), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"churn statistics written to {path}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph = _load_topology(args.path)
    config = BGPConfig(
        mrai=args.mrai, wrate=args.wrate, rib_backend=args.rib_backend
    )
    if args.partitions:
        from repro.sim.partition import run_partitioned_c_event_experiment
        from repro.topology.partition import cut_statistics, partition_graph

        partition = partition_graph(graph, args.partitions)
        cut = cut_statistics(graph, partition)
        print(
            f"partitioned over {cut['num_parts']} members "
            f"(sizes {cut['part_sizes']}): {cut['cut_edges']} of "
            f"{cut['total_edges']} links cut ({cut['cut_fraction']:.1%})"
        )
        stats = run_partitioned_c_event_experiment(
            graph,
            config,
            num_parts=args.partitions,
            partition=partition,
            num_origins=args.origins,
            seed=args.seed,
        )
    else:
        stats = run_c_event_experiment(
            graph, config, num_origins=args.origins, seed=args.seed
        )
    variant = "WRATE" if args.wrate else "NO-WRATE"
    rows = []
    for node_type in NODE_TYPE_ORDER:
        factors = stats.per_type.get(node_type)
        if factors is None:
            continue
        row = [node_type.value, f"{factors.u_total:.2f}"]
        for rel in RELATIONSHIP_ORDER:
            row.append(f"{factors.u(rel):.2f}")
        rows.append(row)
    print(
        format_table(
            ["type", "U", "Uc", "Up", "Ud"],
            rows,
            title=(
                f"{stats.scenario} n={stats.n}, {len(stats.origins)} C-events, "
                f"MRAI={args.mrai:g}s {variant}"
            ),
        )
    )
    print(
        f"convergence: {stats.mean_down_convergence:.1f}s down / "
        f"{stats.mean_up_convergence:.1f}s up; "
        f"{stats.measured_messages} updates delivered"
    )
    if args.churn_json is not None:
        _write_churn_json(stats, args.churn_json)
    return 0


def _cmd_serve_partitioned(args: argparse.Namespace) -> int:
    """``serve --partitions K``: one simulation split over K workers."""
    from repro.dist import parse_address
    from repro.dist.partition import run_distributed_partitioned_experiment

    if args.topology is None:
        print("error: serve --partitions requires --topology", file=sys.stderr)
        return 2
    graph = _load_topology(args.topology)
    config = BGPConfig(
        mrai=args.mrai, wrate=args.wrate, rib_backend=args.rib_backend
    )
    host, port = parse_address(args.bind)

    def on_listening(address) -> None:
        bound_host, bound_port = address
        print(
            f"partition coordinator listening on {bound_host}:{bound_port} — "
            f"waiting for {args.partitions} 'repro-bgp worker' process(es)"
        )

    stats = run_distributed_partitioned_experiment(
        graph,
        config,
        num_parts=args.partitions,
        num_origins=args.origins,
        seed=args.seed,
        host=host,
        port=port,
        member_timeout=args.lease_timeout,
        echo=print,
        on_listening=on_listening,
    )
    print(
        f"partitioned run complete: {len(stats.origins)} C-events, "
        f"{stats.measured_messages} updates delivered, "
        f"convergence {stats.mean_down_convergence:.1f}s down / "
        f"{stats.mean_up_convergence:.1f}s up"
    )
    _write_churn_json(stats, args.output / "churn.json")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist import run_worker

    echo = (lambda line: None) if args.quiet else print
    units = run_worker(
        args.address,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        max_units=args.max_units,
        max_connect_attempts=args.connect_attempts,
        echo=echo,
    )
    if not args.quiet:
        print(f"worker done: {units} unit(s) executed")
    return 0


def _cmd_api(args: argparse.Namespace) -> int:
    import asyncio

    from repro.api import ApiServer, CampaignScheduler
    from repro.dist import parse_address

    host, port = parse_address(args.bind)
    api_keys = None
    if args.api_keys is not None:
        api_keys = [key.strip() for key in args.api_keys.split(",") if key.strip()]

    async def _serve(scheduler: "CampaignScheduler") -> None:
        server = ApiServer(scheduler, host, port, api_keys=api_keys)
        await server.start()
        bound_host, bound_port = server.address
        print(
            f"campaign service listening on http://{bound_host}:{bound_port} "
            f"(data: {args.data_dir})"
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    with CampaignScheduler(
        args.data_dir,
        max_running=args.max_running,
        max_queued_per_tenant=args.max_queued_per_tenant,
        max_running_per_tenant=args.max_running_per_tenant,
        cache_dir=args.cache_dir,
        checkpoint_every=args.checkpoint_every,
    ) as scheduler:
        try:
            asyncio.run(_serve(scheduler))
        except KeyboardInterrupt:
            print("campaign service stopped")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import gc_cache_dir

    report = gc_cache_dir(args.cache_dir, dry_run=args.dry_run)
    for path in report.pruned_files:
        print(f"{'would prune' if args.dry_run else 'pruned'} {path.name}")
    print(report.to_text())
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.checkpoint import inspect_checkpoint, verify_checkpoint
    from repro.errors import CheckpointError

    if args.checkpoint_command == "inspect":
        status = 0
        for path in args.paths:
            try:
                summary = inspect_checkpoint(path)
            except CheckpointError as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                status = 1
                continue
            rows = [[key, str(value)] for key, value in summary.items()]
            print(format_table(["field", "value"], rows, title=str(path)))
        return status
    # verify
    failures = 0
    for path in args.paths:
        try:
            document = verify_checkpoint(path)
        except CheckpointError as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
        else:
            print(
                f"OK   {path}: {document.kind} checkpoint, "
                f"digest {document.sha256[:16]}… intact"
            )
    if failures:
        print(f"{failures} of {len(args.paths)} file(s) failed verification")
    return 1 if failures else 0


def _cmd_workload(args: argparse.Namespace) -> int:
    graph = _load_topology(args.path)
    config = BGPConfig(
        mrai=args.mrai, wrate=args.wrate, rib_backend=args.rib_backend
    )
    spec = WorkloadSpec(
        duration=args.duration, event_rate=args.rate, mean_downtime=args.downtime
    )
    result = run_workload(graph, spec, config, seed=args.seed)
    print(
        f"{result.scenario} n={result.n}: {result.events_executed} C-events "
        f"executed ({result.events_skipped} skipped) over "
        f"{result.measured_duration:.0f}s; {result.total_updates} updates "
        "delivered network-wide"
    )
    rows = []
    for monitor in result.monitors:
        counts = result.trace.counts(monitor)
        if counts["total"] == 0:
            rows.append([str(monitor), "0", "-", "-", "-"])
            continue
        report = result.burstiness(monitor, bin_width=args.bin)
        rows.append(
            [
                str(monitor),
                str(counts["total"]),
                f"{result.monitor_rate(monitor):.3f}",
                f"{report.peak_rate:.2f}",
                f"{report.peak_to_mean:.1f}x",
            ]
        )
    print(
        format_table(
            ["monitor", "updates", "mean rate/s", "peak rate/s", "peak/mean"],
            rows,
            title=f"monitor view (bin width {args.bin:g}s)",
        )
    )
    return 0


def _render_telemetry(snapshot: dict) -> str:
    """Human-readable summary of a telemetry snapshot (profile/stats)."""
    sections: List[str] = []
    summary = snapshot.get("summary") or {}
    if summary:
        rows = [
            ["wall clock", f"{summary.get('wall_clock_seconds', 0.0):.2f}s"],
            ["engine events", f"{summary.get('engine_events', 0):,}"],
            ["engine run time", f"{summary.get('engine_run_seconds', 0.0):.2f}s"],
            ["events/sec", f"{summary.get('events_per_sec', 0.0):,.0f}"],
        ]
        sections.append(format_table(["metric", "value"], rows, title="run summary"))
    phases = snapshot.get("phases") or []
    if phases:
        rows = [
            [
                str(phase["name"]),
                f"{phase['seconds']:.2f}s",
                f"{phase['events']:,}",
                f"{phase['events_per_sec']:,.0f}",
            ]
            for phase in phases
        ]
        sections.append(
            format_table(
                ["phase", "wall clock", "events", "events/sec"],
                rows,
                title="per-phase breakdown",
            )
        )
    counters = snapshot.get("counters") or {}
    if counters:
        rows = [[name, f"{counters[name]:,}"] for name in sorted(counters)]
        sections.append(format_table(["counter", "value"], rows, title="counters"))
    gauges = snapshot.get("gauges") or {}
    if gauges:
        rows = [[name, f"{gauges[name]:g}"] for name in sorted(gauges)]
        sections.append(format_table(["gauge", "value"], rows, title="gauges"))
    return "\n\n".join(sections)


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.cache import sweep_execution
    from repro.obs import (
        Telemetry,
        format_top_entries,
        maybe_profile,
        telemetry_session,
        top_entries,
        write_telemetry_jsonl,
    )

    scale = get_scale(args.scale)
    telemetry = Telemetry(
        meta={
            "run_kind": "profile",
            "experiment": args.experiment,
            "scale": scale.name,
            "seed": args.seed,
        }
    )
    with telemetry_session(telemetry), sweep_execution(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        unit_timeout=args.unit_timeout,
    ), maybe_profile(not args.no_profile) as profiler:
        # The outer "experiment" phase guarantees a per-phase row even for
        # experiments that run no simulation (e.g. fig01's synthetic
        # series); simulation-backed ones additionally report
        # topology-gen/warmup/measured/analysis from the sweep machinery.
        with telemetry.phase("experiment"):
            result = run_experiment(args.experiment, scale, seed=args.seed)
    output = args.output
    if output is None:
        output = Path(f"{args.experiment}-telemetry.jsonl")
    write_telemetry_jsonl(telemetry, output)
    print(result.to_text())
    print()
    print(_render_telemetry(telemetry.snapshot()))
    if profiler is not None:
        print()
        print(f"top {args.top} functions by cumulative time:")
        print(format_top_entries(top_entries(profiler, limit=args.top)))
    print()
    print(f"telemetry written to {output}")
    return 0 if result.passed else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import find_telemetry_file, read_jsonl, summarize_records

    path = find_telemetry_file(args.path)
    snapshot = summarize_records(read_jsonl(path))
    meta = snapshot.get("meta") or {}
    described = ", ".join(
        f"{key}={meta[key]}"
        for key in ("run_kind", "experiment", "scale", "seed", "code_version")
        if key in meta
    )
    print(f"{path}" + (f" ({described})" if described else ""))
    print()
    print(_render_telemetry(snapshot))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for experiment_id in experiment_ids():
                print(experiment_id)
            return 0
        if args.command == "serve" and args.partitions:
            return _cmd_serve_partitioned(args)
        if args.command in ("campaign", "serve"):
            from repro.experiments.campaign import CampaignSpec

            # Both commands are thin clients of the same execution core
            # the API service schedules onto: the spec carries what to
            # compute, the keyword arguments carry local policy (where
            # artifacts go, how to checkpoint, whether to coordinate
            # workers).
            spec = CampaignSpec(
                scale=get_scale(args.scale).name,
                seed=args.seed,
                include_extensions=args.extensions,
                experiments=(
                    tuple(args.experiment) if args.experiment else None
                ),
                jobs=args.jobs,
                unit_timeout=args.unit_timeout,
            )
            summary = spec.run(
                output_dir=args.output,
                echo=print,
                cache_dir=args.cache_dir,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                resume=args.resume,
                distributed=(
                    args.bind if args.command == "serve" else args.distributed
                ),
                lease_timeout=args.lease_timeout,
            )
            print(summary.to_text())
            return 0 if summary.passed else 1
        if args.command == "api":
            return _cmd_api(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "checkpoint":
            return _cmd_checkpoint(args)
        if args.command == "topology":
            return _cmd_topology(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "workload":
            return _cmd_workload(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        # run
        from repro.experiments.cache import sweep_execution

        scale = get_scale(args.scale)
        with sweep_execution(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            unit_timeout=args.unit_timeout,
        ):
            if args.experiment.lower() == "all":
                results = run_all(
                    scale,
                    seed=args.seed,
                    echo=print,
                    include_extensions=args.extensions,
                )
            else:
                result = run_experiment(args.experiment, scale, seed=args.seed)
                print(result.to_text())
                results = [result]
        if args.plot:
            from repro.experiments.plot import render_result

            for result in results:
                print()
                print(render_result(result, log_y=args.log_y))
        if args.markdown is not None:
            args.markdown.parent.mkdir(parents=True, exist_ok=True)
            args.markdown.write_text(
                "\n".join(r.to_markdown() for r in results), encoding="utf-8"
            )
        return 0 if all(r.passed for r in results) else 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
