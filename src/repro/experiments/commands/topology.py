"""``topology generate | metrics | import | stats | dot | validate``.

Also the one reader of topology files every other verb uses
(:func:`load_topology`): writer and reader pick the format from the same
suffix table (:data:`~repro.topology.serialization.SUFFIX_FORMATS`), so a
file ``generate`` writes always reads back.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.errors import ParameterError
from repro.experiments.commands import write_json_artifact
from repro.experiments.report import format_table
from repro.topology.dot import save_dot
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.metrics import summarize
from repro.topology.scenarios import scenario_params
from repro.topology.serialization import SUFFIX_FORMATS, load_json, save_as_rel, save_json
from repro.topology.validation import find_violations

_WRITERS = {"json": save_json, "as-rel": save_as_rel}


def topology_format(path: Path) -> str:
    """The format a topology file's suffix names."""
    return SUFFIX_FORMATS.get(path.suffix, "json")


def load_topology(path: Path) -> ASGraph:
    """Read a topology file in the format its suffix names.

    Every AS-relationship file, plain or gzip'd, goes through the one
    validating reader, :func:`repro.measured.load_serial1` (strict), so a
    snapshot reads as the same graph whether or not it is compressed.
    """
    if topology_format(path) == "json":
        return load_json(path)
    from repro.measured import load_serial1

    graph, _ = load_serial1(path)
    return graph


def main(args: argparse.Namespace) -> int:
    command = args.topology_command
    if command == "generate":
        return _generate(args)
    if command == "import":
        return _import(args)
    if command == "stats":
        return _stats(args)
    graph = load_topology(args.path)
    if command == "metrics":
        rows = [[key, f"{value:.4g}"] for key, value in summarize(graph).items()]
        print(format_table(["metric", "value"], rows, title=str(graph)))
        return 0
    if command == "dot":
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
    violations = find_violations(graph)
    if violations:
        print(f"{len(violations)} violation(s):")
        for violation in violations[:20]:
            print(f"  - {violation}")
        return 1
    print(f"OK: {graph} satisfies all structural invariants")
    return 0


def _generate(args: argparse.Namespace) -> int:
    fmt = args.format or topology_format(args.output)
    if fmt not in _WRITERS:
        raise ParameterError(
            f"cannot write {fmt} files ({args.output}); name the output "
            f".json or .as-rel, or pass --format"
        )
    graph = generate_topology(scenario_params(args.scenario, args.n), seed=args.seed)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    _WRITERS[fmt](graph, args.output)
    print(f"wrote {graph} to {args.output} ({fmt})")
    return 0


def _import(args: argparse.Namespace) -> int:
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
        write_json_artifact(report.to_dict(), args.report_json, "import report")
    return 0


def _stats(args: argparse.Namespace) -> int:
    from repro.topology.compare import topology_fidelity_report
    from repro.topology.metrics import (
        approximate_betweenness,
        clustering_spectrum,
        joint_degree_distribution,
    )

    graph = load_topology(args.path)
    if args.against is not None:
        measured = load_topology(args.against)
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
            write_json_artifact(report.to_dict(), args.json, "fidelity report")
        return 0
    jdd = joint_degree_distribution(graph)
    spectrum = clustering_spectrum(graph)
    betweenness = approximate_betweenness(
        graph, pivots=min(args.pivots, len(graph)), seed=args.seed
    )
    top = sorted(betweenness.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    rows = [[key, f"{value:.4g}"] for key, value in summarize(graph).items()]
    rows.append(["jdd pairs", f"{len(jdd)}"])
    rows.append(["clustering spectrum degrees", f"{len(spectrum)}"])
    rows.append(["top betweenness", ", ".join(f"{v}:{b:.3f}" for v, b in top)])
    print(format_table(["metric", "value"], rows, title=str(graph)))
    if args.json is not None:
        payload = {
            "summary": dict(summarize(graph)),
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
        write_json_artifact(payload, args.json, "topology stats")
    return 0
