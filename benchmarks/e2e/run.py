#!/usr/bin/env python3
"""End-to-end performance ledger for ``repro-bgp``.

    python benchmarks/e2e/run.py                      # all four workloads, 3 reps each
    python benchmarks/e2e/run.py --workload topo-generate --seconds 20
    python benchmarks/e2e/run.py --trace 1            # per-layer metrics, spans in --out
    python benchmarks/e2e/run.py --compare A.json B.json

The untraced run spawns ``python -m repro.experiments.cli …`` children,
one at a time, and reports what a user of the CLI sees (wall time, work
per second, peak RSS, set-up time, warm re-run time, failures).  The
traced run replays the same inputs in-process through the layers' public
functions with spans recorded here (nothing inside ``src/`` changes) and
reports per-layer metrics; end-to-end numbers never come from it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any operation failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import CONTRACT, E2E_METRICS, LAYER_METRICS  # noqa: E402

DEFAULT_REPS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(wl.WORKLOADS), default=None,
        help="run only this workload (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    amount = parser.add_mutually_exclusive_group()
    amount.add_argument(
        "--reps", type=int, default=None,
        help=f"repetitions per workload (default: {DEFAULT_REPS})",
    )
    amount.add_argument(
        "--seconds", type=float, default=None,
        help=f"instead of --reps: repeat for this long, at least {wl.MIN_REPS} times",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: in-process traced replay printing the per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-sized inputs, one repetition (the harness's self-test)",
    )
    parser.add_argument("--out", type=Path, default=None, help="write the full result here")
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("A.json", "B.json"), default=None,
        help="compare two result files instead of running",
    )
    return parser


def host_record() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def print_workload(name: str, record: Dict[str, object], table: Dict[str, dict]) -> None:
    """Every metric of one workload by name, with its unit and samples."""
    units = f": {record['work_units']} {record['work_unit']}" if "work_units" in record else ""
    print(f"\n{name}{units}")
    for metric, spec in table.items():
        entry = record["metrics"].get(metric)
        if entry is None:  # does not apply to this workload: omitted, not zero
            continue
        line = f"  {metric:<34} {entry['median']:>14.6g} {spec.get('unit', ''):<8}"
        if entry.get("n", 1) > 1:
            line += f" n={entry['n']}"
        if "percentile" in entry:
            line += f" (p{entry['percentile']})"
        if "values" in entry and 1 < len(entry["values"]) <= 12:
            line += "  [" + ", ".join(f"{value:.4g}" for value in entry["values"]) + "]"
        print(line)
    for failure in record.get("failures", []):
        print(f"  FAILED {failure}")


def result_line(records: Dict[str, dict], names: List[str], single: bool) -> Dict[str, object]:
    """The contract's last line: the named metrics of the run, zero if untouched."""
    attempted = sum(record["attempted"] for record in records.values())
    failed = sum(record["failed"] for record in records.values())
    table = {**E2E_METRICS, **LAYER_METRICS}
    metrics: Dict[str, dict] = {}
    for workload, record in records.items():
        for name in names:
            entry = record["metrics"].get(name)
            if entry is None and not single:
                continue
            key = name if single else f"{workload}.{name}"
            metrics[key] = {
                "value": entry["median"] if entry is not None else 0,
                "unit": table[name]["unit"],
            }
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def run_workload(name, args, sizes, expected, runner, document) -> Dict[str, object]:
    """One workload's record: the timed children, or the traced replay."""
    if args.trace:
        import layers  # imports the program; only the traced run needs it in-process

        record, spans = layers.trace_workload(
            wl.WORKLOADS[name], runner, sizes, expected, seed=args.seed
        )
        document.setdefault("spans", []).extend(spans)
        return record
    return wl.measure(
        wl.WORKLOADS[name], runner, sizes, expected, seed=args.seed,
        reps=document["reps"], seconds=document["seconds"],
        setup_repeats=1 if args.quick else wl.SETUP_REPEATS,
    )


def main(argv: Optional[List[str]] = None, *, cli: Optional[List[str]] = None) -> int:
    """Run the ledger; ``cli`` substitutes the program's command line (tests)."""
    args = build_parser().parse_args(argv)
    if args.compare is not None:
        return compare.main(args.compare[0], args.compare[1])
    if not (wl.SRC_DIR / "repro").is_dir():
        print(f"error: no program to measure: {wl.SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC_DIR))

    sizes = wl.QUICK if args.quick else wl.LEDGER
    reps, seconds = args.reps, args.seconds
    if reps is None and seconds is None:
        reps = 1 if args.quick else DEFAULT_REPS
    expected = wl.Expected.load()
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    document: Dict[str, object] = {
        "schema": 1,
        "mode": "trace" if args.trace else "e2e",
        "host": host_record(),
        "seed": args.seed,
        "reps": reps,
        "seconds": seconds,
        "sizes": sizes.name,
        "workloads": {},
    }

    try:
        with wl.scratch_dir("e2e-") as scratch:
            for name in names:
                record = run_workload(name, args, sizes, expected, wl.Runner(scratch, cli=cli), document)
                document["workloads"][name] = record
                print_workload(name, record, LAYER_METRICS if args.trace else E2E_METRICS)
    except wl.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    contract_names = [row["name"] for row in CONTRACT["per_layer" if args.trace else "end_to_end"]]
    line = result_line(document["workloads"], contract_names, single=args.workload is not None)
    print()
    print(json.dumps(line))
    return 0 if line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
