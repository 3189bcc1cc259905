#!/usr/bin/env python3
"""Re-record ``expected.json``: the seed pool and its artifact digests.

    python benchmarks/e2e/record_expected.py

For each candidate program seed, in order, until the pool is full, runs the four workloads'
commands once — ``campaign-pool-ckpt`` *serially, without cache or
checkpoints*, so its digest is the reference the pooled, cached and
checkpointed runs must reproduce — and keeps the seed when

* every operation passes its checks (the CLI's shape checks are
  statistical and fail for some seeds at these scales), and
* ``simulate-wrate`` delivers a number of updates inside
  :data:`SIM_UPDATES` — six C-events on one topology cost between 66 000
  and 119 000 updates depending on the seed, so without a stated input
  size the workload's wall time would spread by a quarter between seeds.
  The band is on a count the program reports, never on a timing.

Run it only when a change is *meant* to alter the artifacts; a change
that claims a performance gain must not touch ``expected.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: Program seeds the pool keeps, and the candidates it is drawn from, in order.
POOL = 16
CANDIDATES = range(256)

#: Updates delivered by ``simulate-wrate`` on a pool seed: the median of
#: the screened candidates, give or take 3 %.
SIM_UPDATES = (89_700, 95_300)

#: flags (with their values) that turn the campaign into its serial reference
_EXECUTION_FLAGS = ("--jobs", "--cache-dir", "--checkpoint-dir")


def serial_reference(args: List[str]) -> List[str]:
    out, skip = [], False
    for arg in args:
        if skip:
            skip = False
        elif arg in _EXECUTION_FLAGS:
            skip = True
        else:
            out.append(arg)
    return out


def record_seed(runner: wl.Runner, seed: int, root: Path) -> Dict[str, str]:
    """Digests of the four artifacts for ``seed``; raises if it is rejected."""
    digests = {}
    # simulate-wrate first: it rejects most candidates, and cheaply
    for name in sorted(wl.WORKLOADS, key=lambda name: name != "simulate-wrate"):
        workload = wl.WORKLOADS[name]
        directory = root / f"{name}-{seed}"
        directory.mkdir(parents=True)
        state = workload.prepare(runner, wl.LEDGER, seed, directory)
        operation = workload.plan(wl.LEDGER, seed, state, directory)[0]
        child = runner.run(serial_reference(operation.args))
        error, digest = wl.judge(workload, wl.LEDGER, operation, child, None)
        if error is not None:
            raise wl.HarnessError(f"{name}: {error}")
        if name == "simulate-wrate":
            updates = json.loads(operation.artifact.read_bytes())["measured_messages"]
            if not SIM_UPDATES[0] <= updates <= SIM_UPDATES[1]:
                raise wl.HarnessError(f"{name}: {updates} updates, outside {SIM_UPDATES}")
        digests[name] = digest
        shutil.rmtree(directory)
    return digests


def main() -> int:
    sys.path.insert(0, str(wl.SRC_DIR))
    seeds: List[int] = []
    digests: Dict[str, Dict[str, str]] = {}
    with wl.scratch_dir("record-") as scratch:
        runner = wl.Runner(scratch)
        for seed in CANDIDATES:
            if len(seeds) == POOL:
                break
            try:
                digests[str(seed)] = record_seed(runner, seed, scratch)
            except wl.HarnessError as exc:
                print(f"seed {seed}: rejected ({str(exc)[:120]})", flush=True)
                continue
            seeds.append(seed)
            print(f"seed {seed}: recorded", flush=True)
    if len(seeds) < POOL:
        print(f"error: only {len(seeds)} of {POOL} seeds qualified", file=sys.stderr)
        return 1
    (HERE / "expected.json").write_text(
        json.dumps({"sizes": wl.LEDGER.name, "seeds": seeds, "digests": digests}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
