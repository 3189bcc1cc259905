"""``api``: campaigns served over HTTP (see :mod:`repro.api`)."""

from __future__ import annotations

import argparse
import asyncio

from repro.api import ApiServer, CampaignScheduler
from repro.dist import parse_address


def main(args: argparse.Namespace) -> int:
    host, port = parse_address(args.bind)
    api_keys = None
    if args.api_keys is not None:
        api_keys = [key.strip() for key in args.api_keys.split(",") if key.strip()]

    async def _serve(scheduler: CampaignScheduler) -> None:
        server = ApiServer(scheduler, host, port, api_keys=api_keys)
        await server.start()
        bound_host, bound_port = server.address
        print(
            f"campaign service listening on http://{bound_host}:{bound_port} "
            f"(data: {args.data_dir})"
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    with CampaignScheduler(
        args.data_dir,
        max_running=args.max_running,
        max_queued_per_tenant=args.max_queued_per_tenant,
        max_running_per_tenant=args.max_running_per_tenant,
        cache_dir=args.cache_dir,
    ) as scheduler:
        try:
            asyncio.run(_serve(scheduler))
        except KeyboardInterrupt:
            print("campaign service stopped")
    return 0
