"""``analyze churn``: the long-memory report for a churn series."""

from __future__ import annotations

import argparse
import json

from repro.analysis.fgn import fractional_gaussian_noise
from repro.analysis.report import analyze_churn_series
from repro.experiments.commands import bgp_config, write_json_artifact
from repro.experiments.report import format_table


def main(args: argparse.Namespace) -> int:
    if args.series is not None:
        text = args.series.read_text(encoding="utf-8").strip()
        if text.startswith("["):
            series = [float(v) for v in json.loads(text)]
        else:
            series = [float(v) for v in text.split()]
        label = f"series file {args.series}"
    elif args.topology is not None:
        from repro.core.workload import WorkloadSpec, rate_bin_width, run_workload
        from repro.experiments.commands.topology import load_topology

        graph = load_topology(args.topology)
        config = bgp_config(args)
        # ext-longmem's "poisson" workload, binned into 128 rate bins.
        spec = WorkloadSpec(
            duration=args.duration,
            event_rate=args.rate,
            mean_downtime=2.0,
            storm_probability=0.0,
        )
        result = run_workload(graph, spec, config, seed=args.seed)
        bin_width = rate_bin_width(args.duration, 128, config)
        series = result.rate_series(bin_width)
        label = (
            f"workload on {args.topology} "
            f"({result.events_executed} events, {bin_width:.0f}s bins)"
        )
    else:
        series = list(
            fractional_gaussian_noise(args.points, args.synthetic, seed=args.seed)
        )
        label = f"synthetic fGn, H={args.synthetic}, {args.points} points"

    report = analyze_churn_series(series, seed=args.seed, resamples=args.resamples)
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
        write_json_artifact(report.to_dict(), args.json, "long-memory report")
    return 0
