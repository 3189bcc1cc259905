"""``simulate``: a C-event experiment on a stored topology."""

from __future__ import annotations

import argparse

from repro.core.cevent import CEventStats, run_c_event_experiment
from repro.experiments.commands import bgp_config, write_json_artifact
from repro.experiments.commands.topology import load_topology
from repro.experiments.report import format_table
from repro.topology.types import NODE_TYPE_ORDER, RELATIONSHIP_ORDER


def main(args: argparse.Namespace) -> int:
    graph = load_topology(args.path)
    config = bgp_config(args)
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
        write_json_artifact(churn_artifact(stats), args.churn_json, "churn statistics")
    return 0


def churn_artifact(stats: CEventStats) -> dict:
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
                **{rel.value: factors.u(rel) for rel in RELATIONSHIP_ORDER},
            }
            for node_type in NODE_TYPE_ORDER
            for factors in (stats.per_type.get(node_type),)
            if factors is not None
        },
    }
