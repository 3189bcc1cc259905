#!/usr/bin/env python3
"""Hand-built topologies and link-failure events.

Shows the lower-level API surface: constructing an annotated AS graph
edge by edge, exporting/importing it in CAIDA as-rel format, and running
the link-failure event extension (the paper's future-work item) on it.

Topology (a small multihomed ISP scene):

        T0 ====== T1          tier-1 clique (peering)
       /  \\      /  \\
     M2    M3   M4   |        regional ISPs
      \\   /  \\  |   |
       C5      CP6 --+        CP6 peers with M4 and buys from M3 + T1

Run:  python examples/custom_topology_linkfailure.py
"""

import tempfile
from pathlib import Path

from repro import ASGraph, BGPConfig, NodeType
from repro.core import run_link_event_experiment, steady_state_routes
from repro.measured import load_serial1
from repro.topology.serialization import save_as_rel
from repro.topology.validation import validate


def build() -> ASGraph:
    graph = ASGraph(scenario="example-custom")
    graph.add_node(0, NodeType.T, [0])
    graph.add_node(1, NodeType.T, [0])
    graph.add_node(2, NodeType.M, [0])
    graph.add_node(3, NodeType.M, [0])
    graph.add_node(4, NodeType.M, [0])
    graph.add_node(5, NodeType.C, [0])
    graph.add_node(6, NodeType.CP, [0])
    graph.add_peering_link(0, 1)
    graph.add_transit_link(2, 0)
    graph.add_transit_link(3, 0)
    graph.add_transit_link(4, 1)
    graph.add_transit_link(5, 2)
    graph.add_transit_link(5, 3)
    graph.add_transit_link(6, 3)
    graph.add_transit_link(6, 1)
    graph.add_peering_link(6, 4)
    validate(graph)
    return graph


def main() -> None:
    graph = build()
    print(f"Built {graph}")

    print("\nSteady-state routes towards CP6 (oracle, no simulation):")
    for node_id, summary in sorted(steady_state_routes(graph, 6).items()):
        category = summary.category.value if summary.category else "origin"
        print(f"  node {node_id}: via {category:9s} path length {summary.length}")

    print("\nRound-trip through CAIDA as-rel format:")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "example.as-rel"
        save_as_rel(graph, path)
        print("  " + "\n  ".join(path.read_text().strip().splitlines()))
        reloaded, _report = load_serial1(path)
        assert list(reloaded.edges()) == list(graph.edges())

    config = BGPConfig(mrai=5.0)
    print("\nFailing and restoring CP6's provider links (link events):")
    stats = run_link_event_experiment(
        graph, config, origin=6, links=[(6, 3), (6, 1)], seed=1
    )
    for node_type, factors in stats.per_type.items():
        print(
            f"  {node_type.value:2s} nodes: {factors.u_total:5.2f} updates "
            "per fail+restore cycle"
        )
    print(
        f"  mean convergence: {stats.mean_down_convergence:.1f}s after "
        f"failure, {stats.mean_up_convergence:.1f}s after restore"
    )
    print(
        "\nNote how a link failure churns less than a full C-event: backup "
        "paths keep the prefix reachable, so only part of the network "
        "re-routes."
    )


if __name__ == "__main__":
    main()
