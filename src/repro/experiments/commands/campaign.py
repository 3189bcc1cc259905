"""``campaign`` and ``serve``: every experiment, persisted.

Both verbs are thin clients of the execution core the API service
schedules onto: the spec carries what to compute, the keyword arguments
carry local policy (where artifacts go, how to checkpoint, whether to
coordinate workers).  ``serve --partitions K`` instead splits one
simulation over K workers.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.campaign import CampaignSpec
from repro.experiments.scale import get_scale


def main(args: argparse.Namespace) -> int:
    if args.command == "serve" and args.partitions:
        return _serve_partitioned(args)
    spec = CampaignSpec(
        scale=get_scale(args.scale).name,
        seed=args.seed,
        include_extensions=args.extensions,
        experiments=tuple(args.experiment) if args.experiment else None,
        jobs=args.jobs,
        unit_timeout=args.unit_timeout,
    )
    summary = spec.run(
        output_dir=args.output,
        echo=print,
        cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        distributed=args.bind if args.command == "serve" else args.distributed,
        lease_timeout=args.lease_timeout,
    )
    print(summary.to_text())
    return 0 if summary.passed else 1


def _serve_partitioned(args: argparse.Namespace) -> int:
    """``serve --partitions K``: one simulation split over K workers."""
    from repro.dist import parse_address
    from repro.dist.partition import run_distributed_partitioned_experiment
    from repro.experiments.commands import bgp_config, write_json_artifact
    from repro.experiments.commands.simulate import churn_artifact
    from repro.experiments.commands.topology import load_topology

    if args.topology is None:
        print("error: serve --partitions requires --topology", file=sys.stderr)
        return 2
    graph = load_topology(args.topology)
    host, port = parse_address(args.bind)

    def on_listening(address) -> None:
        bound_host, bound_port = address
        print(
            f"partition coordinator listening on {bound_host}:{bound_port} — "
            f"waiting for {args.partitions} 'repro-bgp worker' process(es)"
        )

    stats = run_distributed_partitioned_experiment(
        graph,
        bgp_config(args),
        num_parts=args.partitions,
        num_origins=args.origins,
        seed=args.seed,
        host=host,
        port=port,
        member_timeout=args.lease_timeout,
        echo=print,
        on_listening=on_listening,
    )
    print(
        f"partitioned run complete: {len(stats.origins)} C-events, "
        f"{stats.measured_messages} updates delivered, "
        f"convergence {stats.mean_down_convergence:.1f}s down / "
        f"{stats.mean_up_convergence:.1f}s up"
    )
    write_json_artifact(
        churn_artifact(stats), args.output / "churn.json", "churn statistics"
    )
    return 0
