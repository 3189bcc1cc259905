"""``profile`` and ``stats``: run telemetry, collected and rendered."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List

from repro.experiments.report import format_table
from repro.obs.runlog import find_telemetry_file, read_jsonl, summarize_records


def main(args: argparse.Namespace) -> int:
    return _profile(args) if args.command == "profile" else _stats(args)


def _render_telemetry(snapshot: dict) -> str:
    """Human-readable summary of a telemetry snapshot."""
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


def _profile(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import CampaignSpec, run_campaign
    from repro.obs.profiler import format_top_entries, maybe_profile, top_entries
    from repro.obs.runlog import write_telemetry_jsonl
    from repro.obs.telemetry import Telemetry

    spec = CampaignSpec(
        scale=args.scale,
        seed=args.seed,
        experiments=[args.experiment],
        jobs=args.jobs,
        unit_timeout=args.unit_timeout,
    )
    (experiment_id,) = spec.experiments
    telemetry = Telemetry(
        meta={
            "run_kind": "profile",
            "experiment": experiment_id,
            "scale": spec.scale,
            "seed": spec.seed,
        }
    )
    # The outer "experiment" phase guarantees a per-phase row even for
    # experiments that run no simulation (e.g. fig01's synthetic
    # series); simulation-backed ones additionally report
    # topology-gen/warmup/measured/analysis from the sweep machinery.
    with maybe_profile(not args.no_profile) as profiler, telemetry.phase("experiment"):
        (result,) = run_campaign(
            spec,
            cache_dir=args.cache_dir,
            checkpoint_dir=args.checkpoint_dir,
            telemetry=telemetry,
            show_progress=False,
        ).results
    output = args.output
    if output is None:
        output = Path(f"{experiment_id}-telemetry.jsonl")
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


def _stats(args: argparse.Namespace) -> int:
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
