"""``campaign`` and ``serve``: every experiment, persisted.

Both verbs are thin clients of the execution core the API service
schedules onto: the spec carries what to compute, the keyword arguments
carry local policy (where artifacts go, how to checkpoint, whether to
coordinate workers).
"""

from __future__ import annotations

import argparse

from repro.experiments.campaign import CampaignSpec
from repro.experiments.scale import get_scale


def main(args: argparse.Namespace) -> int:
    serve = args.command == "serve"
    spec = CampaignSpec(
        scale=get_scale(args.scale).name,
        seed=args.seed,
        include_extensions=args.extensions,
        experiments=tuple(args.experiment) if args.experiment else None,
        **({} if serve else {"jobs": args.jobs, "unit_timeout": args.unit_timeout}),
    )
    summary = spec.run(
        output_dir=args.output,
        echo=print,
        cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        **(
            {"distributed": args.bind, "lease_timeout": args.lease_timeout}
            if serve
            else {}
        ),
    )
    print(summary.to_text())
    return 0 if summary.passed else 1
