"""``worker``: pull and execute sweep units from a coordinator."""

from __future__ import annotations

import argparse

from repro.dist import run_worker


def main(args: argparse.Namespace) -> int:
    echo = (lambda line: None) if args.quiet else print
    units = run_worker(
        args.address,
        checkpoint_dir=args.checkpoint_dir,
        max_units=args.max_units,
        max_connect_attempts=args.connect_attempts,
        echo=echo,
    )
    if not args.quiet:
        print(f"worker done: {units} unit(s) executed")
    return 0
