"""``campaign`` and ``serve``: every experiment, persisted.

Both verbs are thin clients of :func:`~repro.experiments.campaign.run_campaign`,
the driver the API service schedules onto: the spec carries what to
compute, the keyword arguments carry local policy (where artifacts go,
where to checkpoint).  ``serve`` also owns the coordinator its workers
connect to.
"""

from __future__ import annotations

import argparse

from repro.experiments.campaign import CampaignSpec, CampaignSummary, run_campaign


def main(args: argparse.Namespace) -> int:
    serve = args.command == "serve"
    spec = CampaignSpec(
        scale=args.scale,
        seed=args.seed,
        include_extensions=args.extensions,
        experiments=args.experiment,
        **({} if serve else {"jobs": args.jobs, "unit_timeout": args.unit_timeout}),
    )
    options = dict(
        output_dir=args.output,
        echo=print,
        cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
    )
    summary = _serve(spec, args, options) if serve else run_campaign(spec, **options)
    print(summary.to_text())
    return 0 if summary.passed else 1


def _serve(spec: CampaignSpec, args: argparse.Namespace, options: dict) -> CampaignSummary:
    """Run ``spec`` with its sweep units leased to ``repro-bgp worker``
    processes through a coordinator bound to ``--bind``."""
    from repro.dist import Coordinator, parse_address

    host, port = parse_address(args.bind)
    with Coordinator(host, port, lease_timeout=args.lease_timeout, echo=print) as coordinator:
        bound_host, bound_port = coordinator.address
        print(
            f"coordinator listening on {bound_host}:{bound_port}; start workers "
            f"with: repro-bgp worker {bound_host}:{bound_port}"
        )
        print()
        try:
            return run_campaign(spec, coordinator=coordinator, **options)
        finally:
            # Every worker that registered, including any that left.
            for stats in coordinator.worker_stats():
                print(
                    f"worker {stats['worker_id']} ({stats['address']}): "
                    f"{stats['units_done']} unit(s), "
                    f"{stats['busy_seconds']:.1f}s busy"
                )
