"""``checkpoint inspect | verify``: read checkpoint files."""

from __future__ import annotations

import argparse
import sys

from repro.checkpoint.format import inspect_checkpoint, verify_checkpoint
from repro.errors import CheckpointError
from repro.experiments.report import format_table


def main(args: argparse.Namespace) -> int:
    if args.checkpoint_command == "inspect":
        status = 0
        for path in args.paths:
            try:
                summary = inspect_checkpoint(path)
            except CheckpointError as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                status = 1
                continue
            rows = [[key, str(value)] for key, value in summary.items()]
            print(format_table(["field", "value"], rows, title=str(path)))
        return status
    # verify
    failures = 0
    for path in args.paths:
        try:
            document = verify_checkpoint(path)
        except CheckpointError as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
        else:
            print(
                f"OK   {path}: {document.kind} checkpoint, "
                f"digest {document.sha256[:16]}… intact"
            )
    if failures:
        print(f"{failures} of {len(args.paths)} file(s) failed verification")
    return 1 if failures else 0
