"""``list`` and ``run``: the paper's tables and figures."""

from __future__ import annotations

import argparse

from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.registry import experiment_ids


def main(args: argparse.Namespace) -> int:
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    spec = CampaignSpec(
        scale=args.scale,
        seed=args.seed,
        include_extensions=args.extensions,
        experiments=None if args.experiment.lower() == "all" else [args.experiment],
        jobs=args.jobs,
        unit_timeout=args.unit_timeout,
    )
    results = run_campaign(
        spec, echo=print, cache_dir=args.cache_dir, checkpoint_dir=args.checkpoint_dir
    ).results
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
