"""``list`` and ``run``: the paper's tables and figures."""

from __future__ import annotations

import argparse

from repro.experiments.cache import sweep_execution
from repro.experiments.registry import experiment_ids, run_all, run_experiment
from repro.experiments.scale import get_scale


def main(args: argparse.Namespace) -> int:
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    scale = get_scale(args.scale)
    with sweep_execution(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
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
