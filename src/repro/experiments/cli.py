"""Command-line entry point: ``repro-bgp``.

Subcommands:

* ``list`` / ``run`` — the paper's tables and figures (see
  :mod:`repro.experiments.registry`);
* ``campaign`` — run every experiment (or a ``--experiment`` subset) and
  persist markdown, JSON, a summary and telemetry; with
  ``--checkpoint-dir``, a rerun with the same directory resumes an
  interrupted campaign;
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
  campaign as a lease-based coordinator that queues every sweep's units
  up front, ``worker`` connects (from any host) and executes the sweep
  units it leases, with byte-identical artifacts;
* ``api`` — campaign-as-a-service: an asyncio HTTP server accepting
  campaign specs as JSON, deduplicating identical requests, queueing
  them under per-tenant quotas and streaming live progress as NDJSON
  (see :mod:`repro.api`);
* ``cache gc`` — prune on-disk sweep-cache entries written by a stale
  key/code version and report the reclaimed bytes.

``run``, ``profile``, ``campaign`` and ``serve`` (and the API) all run
experiments through one driver,
:func:`~repro.experiments.campaign.run_campaign`.

Examples::

    repro-bgp run fig04 --scale default
    repro-bgp campaign --scale smoke -o runs/smoke --checkpoint-dir runs/ck
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
    repro-bgp workload dense.json --duration 600 --rate 0.05
    repro-bgp profile fig04 --scale smoke -o fig04-telemetry.jsonl
    repro-bgp stats runs/campaign-2026-08/

This module only parses: each verb's handler lives in a module of
:mod:`repro.experiments.commands` (:data:`VERB_MODULES`), which
:func:`main` imports when that verb is dispatched, so a verb loads the
subsystems it runs and ``--version`` loads none.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro._version import __version__

#: The presets of :mod:`repro.experiments.scale` (a test keeps the two
#: equal), spelled out so that building the parser imports nothing.
SCALE_NAMES = ("default", "full", "paper", "smoke")

#: Verb -> the module holding its handler, ``main(args) -> exit code``.
VERB_MODULES = {
    "list": "repro.experiments.commands.run",
    "run": "repro.experiments.commands.run",
    "campaign": "repro.experiments.commands.campaign",
    "serve": "repro.experiments.commands.campaign",
    "api": "repro.experiments.commands.api",
    "worker": "repro.experiments.commands.worker",
    "cache": "repro.experiments.commands.cache",
    "checkpoint": "repro.experiments.commands.checkpoint",
    "topology": "repro.experiments.commands.topology",
    "simulate": "repro.experiments.commands.simulate",
    "workload": "repro.experiments.commands.workload",
    "profile": "repro.experiments.commands.telemetry",
    "stats": "repro.experiments.commands.telemetry",
    "analyze": "repro.experiments.commands.analyze",
}


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
        choices=SCALE_NAMES,
        default="default",
        help="scale preset (default: default)",
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
        "--scale", choices=SCALE_NAMES, default="default",
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
    _add_execution_options(campaign_parser)

    serve_parser = sub.add_parser(
        "serve",
        help=(
            "run a campaign as a distributed coordinator: sweep units are "
            "leased to connected 'repro-bgp worker' processes"
        ),
    )
    serve_parser.add_argument(
        "--scale", choices=SCALE_NAMES, default="default",
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
            "given to another worker (default: 60)"
        ),
    )
    serve_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "persistent sweep cache directory: cached sweeps never reach "
            "the workers, and computed ones are stored for later runs"
        ),
    )
    serve_parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "record completed experiments there; a rerun with the same "
            "directory continues an interrupted campaign (workers "
            "checkpoint their units with their own --checkpoint-dir)"
        ),
    )

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
        "--max-units", type=int, default=None, metavar="N",
        help="exit after executing N units (default: run until shutdown)",
    )
    worker_parser.add_argument(
        "--connect-attempts", type=int, default=8, metavar="N",
        help=(
            "transient connect failures to retry with backoff, and sessions "
            "in a row a coordinator may end with a frame this worker cannot "
            "use (default: 8)"
        ),
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
        help="growth scenario (default: BASELINE; an unknown name lists all)",
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
        "--scale", choices=SCALE_NAMES, default="default",
        help="scale preset (default: default)",
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
            "checkpoint directory: completed experiments and in-progress "
            "sweep units are recorded there, and a rerun with the same "
            "directory resumes them after a crash or interrupt (results "
            "are byte-identical either way)"
        ),
    )


def _add_bgp_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mrai", type=float, default=30.0, help="MRAI seconds (0 = off)")
    parser.add_argument(
        "--wrate", action="store_true",
        help="rate-limit explicit withdrawals (RFC 4271) instead of NO-WRATE",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns the process exit code.

    A reader that closes stdout early (``… | head -1``) ends the verb
    quietly with 141 (128 + SIGPIPE), Ctrl-C with 130; neither prints a
    traceback.
    """
    args = build_parser().parse_args(argv)  # --version and --help exit here
    from repro.errors import ReproError

    try:
        code = importlib.import_module(VERB_MODULES[args.command]).main(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit: point it at
        # devnull, as the ``signal`` docs show, so that flush succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
