"""``workload``: a Poisson C-event stream and what monitors see."""

from __future__ import annotations

import argparse

from repro.core.workload import WorkloadSpec, run_workload
from repro.experiments.commands import bgp_config
from repro.experiments.commands.topology import load_topology
from repro.experiments.report import format_table


def main(args: argparse.Namespace) -> int:
    graph = load_topology(args.path)
    spec = WorkloadSpec(
        duration=args.duration, event_rate=args.rate, mean_downtime=args.downtime
    )
    result = run_workload(graph, spec, bgp_config(args), seed=args.seed)
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
