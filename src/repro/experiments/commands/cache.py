"""``cache gc``: prune stale sweep-cache entries."""

from __future__ import annotations

import argparse

from repro.experiments.cache import gc_cache_dir


def main(args: argparse.Namespace) -> int:
    report = gc_cache_dir(args.cache_dir, dry_run=args.dry_run)
    for path in report.pruned_files:
        print(f"{'would prune' if args.dry_run else 'pruned'} {path.name}")
    print(report.to_text())
    return 0
