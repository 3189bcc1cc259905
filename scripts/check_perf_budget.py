#!/usr/bin/env python3
"""CI gate: compare BENCH_sim_core.json against the committed baseline.

Three classes of checks, matching the classes of numbers the budget
benchmark records (see ``benchmarks/bench_perf_components.py``):

* **Deterministic counters** (executed/delivered/cancelled event counts
  of fixed-seed scenarios) must match the baseline *exactly* — they are
  machine-independent, so any drift is a real behavior change (e.g. the
  stale-wakeup fix regressing and no-op events sneaking back into the
  heap).
* **Ceilings** (``repro`` modules each CLI verb imports before it runs)
  may fall but not rise above the baseline.
* **Timing metrics** (per-op µs, events/s) are compared within a
  tolerance band (default 3.0x, ``--tolerance``): CI runners are noisy
  and slower than dev machines, but an order-of-magnitude regression —
  say the preference-key memoization being dropped — still trips it.

Additionally the supersession invariant itself is asserted: the tracked
scenario must execute at most half the events the pre-fix kernel did;
and the topology-construction scaling invariant: generating, loading
and saving a Baseline topology may cost at most 3x more *per link* at
n=8000 than at n=2000 (a per-link scan of a tier-1's adjacency gave
~7x); and three
checkpoint invariants: RNG streams take under 25 % of a snapshot's bytes
(full generator states took 86 %), a snapshot after four C-events is at
most 5 % larger than after the first (keeping every measured prefix made
it 67 % larger), and a checkpointed sweep unit costs at most 1.4x the
same unit run plain (full snapshots cost 1.3-1.6x, with full RNG states
4.2-4.7x); and two kernel
hot-path invariants, on a count that does not depend on the host: one
engine event costs at most 32 interpreter calls (it cost 46-53), and a
live telemetry hub adds at most one call per event to the null sink's
(per-message hooks added six); and the campaign-pool invariant: the smoke
fig07+fig10+fig11 campaign at ``jobs=2`` starts exactly one process pool
(a pool per sweep started six).

The budget table names the interpreter build that recorded it
(``interpreter``).  The checker prints both tables' builds; when they
differ, or the baseline names none, it marks the ``kernel_hot_path``
rows as recorded on another build, since cProfile's call counts depend
on the build.  The bounds are the same either way.

Usage::

    python scripts/check_perf_budget.py \
        --current benchmark_results/BENCH_sim_core.json \
        --baseline benchmarks/baselines/BENCH_sim_core.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (section, key) pairs that must match the baseline exactly.
EXACT_COUNTERS = [
    ("wakeup_supersession", "scheduled"),
    ("wakeup_supersession", "executed"),
    ("wakeup_supersession", "cancelled"),
    ("churn_per_prefix", "executed_events"),
    ("churn_per_prefix", "delivered_messages"),
    ("churn_per_prefix", "cancelled_events"),
    ("damping_churn", "executed_events"),
    ("damping_churn", "cancelled_events"),
    ("prefix_churn", "events_executed"),
    ("prefix_churn", "total_updates"),
    ("prefix_churn", "decisions_run"),
    ("prefix_churn", "decisions_skipped"),
    ("prefix_churn", "loc_rib_digest"),
    ("measured_import", "edges_parsed"),
    ("measured_import", "transit_edges"),
    ("measured_import", "peer_edges"),
    ("measured_import", "num_nodes"),
    ("measured_import", "components"),
    ("longmem_analysis", "points"),
    ("longmem_analysis", "dfa1_windows"),
    ("longmem_analysis", "dfa2_windows"),
    ("longmem_analysis", "dfa1_scales"),
    ("topology_build", "links_n2000"),
    ("topology_build", "graph_digest_n2000"),
    ("topology_build", "links_n8000"),
    ("topology_build", "graph_digest_n8000"),
    ("topology_build", "file_digest_n2000"),
    ("checkpoint_cost", "snapshot_bytes_first_event"),
    ("checkpoint_cost", "snapshot_bytes"),
    ("checkpoint_cost", "rng_draws"),
    ("campaign_pool", "pools"),
    ("campaign_pool", "units"),
]

#: (section, key) pairs that may not exceed the baseline: the ``repro``
#: modules a CLI verb imports before it runs.  Fewer is fine (re-record
#: the baseline to lock a gain in); more means a verb pays for a
#: subsystem it does not run, e.g. an eager import back in a package.
CEILING_COUNTERS = [
    ("topology_build", "modules_loaded_version"),
    ("topology_build", "modules_loaded_topology_generate"),
    ("topology_build", "modules_loaded_simulate"),
    ("topology_build", "modules_loaded_campaign"),
]

#: (section, key) pairs where *larger* is worse (cost in µs or bytes).
COST_METRICS = [
    ("per_op", "best_path_us_warm"),
    ("per_op", "best_path_us_cold"),
    ("per_op", "decision_full_us"),
    ("per_op", "decision_incremental_us"),
    ("per_op", "route_bytes"),
    ("per_op", "network_bytes_per_node"),
    ("kernel_hot_path", "calls_per_event_no_wrate_null"),
    ("kernel_hot_path", "calls_per_event_no_wrate_live"),
    ("kernel_hot_path", "calls_per_event_wrate_null"),
    ("kernel_hot_path", "calls_per_event_wrate_live"),
    ("prefix_per_op", "redecide_1_of_10k_us"),
    ("measured_import", "import_us_per_edge"),
    ("longmem_analysis", "dfa_per_point_us"),
    ("topology_build", "generate_us_per_link"),
    ("topology_build", "load_us_per_link"),
    ("topology_build", "save_us_per_link"),
    ("topology_build", "cli_import_ms_version"),
    ("topology_build", "cli_import_ms_topology_generate"),
    ("topology_build", "cli_import_ms_simulate"),
    ("topology_build", "cli_import_ms_campaign"),
    ("checkpoint_cost", "snapshot_us_per_node"),
    ("checkpoint_cost", "write_ms"),
    ("checkpoint_cost", "restore_ms"),
]

#: Allowed growth of the topology per-link cost from n=2000 to n=8000.
TOPOLOGY_SCALING_LIMIT = 3.0

#: Largest share of a network snapshot's bytes its RNG streams may take.
#: Draw counts are 11 % of a snapshot that retired its measured prefixes
#: (4 % when it still held them); full generator states would be > 90 %.
CHECKPOINT_RNG_SHARE_LIMIT = 0.25

#: Allowed growth of the snapshot from the first to the fourth C-event:
#: measured prefixes are retired, so the size is flat up to MRAI gates
#: and counters (+2.5 %); keeping them added ≈ 47 kB per event (+67 %).
CHECKPOINT_GROWTH_LIMIT = 1.05

#: Allowed cost of a checkpointed sweep unit relative to the plain unit
#: (n=400, 4 C-events, 3 checkpoints).  Boundary records read 1.1-1.2 on
#: the reference host; full network snapshots read 1.3-1.6 (with full
#: RNG states and a double serialization, 4.2-4.7x).  The gate sits
#: where host noise does not trip it and a return to full snapshots
#: does.
CHECKPOINT_UNIT_RATIO_LIMIT = 1.4

#: Interpreter calls (cProfile's total, builtins included) one engine
#: event may cost inside a C-event at n=400.  Measured 25.2 (NO-WRATE)
#: and 26.1 (WRATE) on CPython 3.11; the kernel with per-message
#: telemetry hooks, a `step()` call per dispatch and a Python
#: `Prefix.__hash__` took 46.5 / 47.2, and 53.0 / 53.4 under a live hub.
KERNEL_CALLS_PER_EVENT_LIMIT = 32.0

#: Calls per event a live hub may add to the null sink's.  The kernel
#: counts either way; a hub adds run()-boundary and phase samples only.
KERNEL_LIVE_HUB_CALLS_LIMIT = 1.0

#: Process pools the smoke fig07+fig10+fig11 campaign may start at
#: ``jobs=2``: one for the whole campaign.
CAMPAIGN_POOLS_LIMIT = 1

#: (section, key) pairs where *smaller* is worse (throughput).
THROUGHPUT_METRICS = [
    ("per_op", "events_per_sec"),
    ("campaign_pool", "pool_efficiency"),
]


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")


def _get(data: dict, section: str, key: str, path: Path):
    try:
        return data[section][key]
    except (KeyError, TypeError):
        sys.exit(f"error: {path} is missing {section}.{key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        type=Path,
        default=Path("benchmark_results/BENCH_sim_core.json"),
        help="budget table produced by this run",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/baselines/BENCH_sim_core.json"),
        help="committed reference budget table",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="allowed slowdown factor for timing metrics (default 3.0)",
    )
    args = parser.parse_args(argv)

    current = _load(args.current)
    baseline = _load(args.baseline)
    failures = []

    # cProfile's call counts depend on the interpreter build, so the
    # kernel_hot_path rows of two tables compare only on one build.
    baseline_build = baseline.get("interpreter")
    current_build = current.get("interpreter")
    print(
        f"baseline build: {baseline_build or 'not recorded'}; "
        f"current build: {current_build or 'not recorded'}"
    )
    other_build = baseline_build is None or baseline_build != current_build
    build_mark = " [baseline recorded on another build]" if other_build else ""

    for section, key in EXACT_COUNTERS:
        got = _get(current, section, key, args.current)
        want = _get(baseline, section, key, args.baseline)
        if got != want:
            failures.append(
                f"{section}.{key}: {got} != baseline {want} (deterministic "
                "counter drifted — event economy changed)"
            )

    for section, key in CEILING_COUNTERS:
        got = _get(current, section, key, args.current)
        want = _get(baseline, section, key, args.baseline)
        if got > want:
            failures.append(
                f"{section}.{key}: {got} > baseline {want} (a CLI verb imports "
                "more of the package than it did)"
            )

    supersession = current.get("wakeup_supersession", {})
    executed = supersession.get("executed", 0)
    pre_fix = supersession.get("executed_pre_fix", supersession.get("scheduled", 0))
    if executed * 2 > pre_fix:
        failures.append(
            f"wakeup_supersession: executed {executed} events vs {pre_fix} "
            "pre-fix — the >=2x stale-wakeup reduction no longer holds"
        )

    prefix_churn = current.get("prefix_churn", {})
    skipped = prefix_churn.get("decisions_skipped", 0)
    ran = prefix_churn.get("decisions_run", 0)
    if skipped <= 10 * ran:
        failures.append(
            f"prefix_churn: skipped {skipped} vs run {ran} decisions — "
            "deciding per prefix no longer dominates the multi-prefix "
            "decision economy"
        )

    for phase in ("generate", "load", "save"):
        small = float(
            _get(current, "topology_build", f"{phase}_us_per_link_n2000", args.current)
        )
        large = float(
            _get(current, "topology_build", f"{phase}_us_per_link", args.current)
        )
        if large > TOPOLOGY_SCALING_LIMIT * small:
            failures.append(
                f"topology_build: {phase} costs {large:.1f} us/link at n=8000 vs "
                f"{small:.1f} at n=2000 ({large / small:.1f}x > "
                f"{TOPOLOGY_SCALING_LIMIT}x) — {phase} is no longer near-linear "
                "in a topology's links"
            )

    rng_share = float(_get(current, "checkpoint_cost", "rng_share", args.current))
    if rng_share >= CHECKPOINT_RNG_SHARE_LIMIT:
        failures.append(
            f"checkpoint_cost: RNG streams are {100 * rng_share:.1f} % of a "
            f"snapshot's bytes (limit {100 * CHECKPOINT_RNG_SHARE_LIMIT:.0f} %) — "
            "are nodes writing full generator states again?"
        )
    first_bytes = int(
        _get(current, "checkpoint_cost", "snapshot_bytes_first_event", args.current)
    )
    last_bytes = int(_get(current, "checkpoint_cost", "snapshot_bytes", args.current))
    if last_bytes > CHECKPOINT_GROWTH_LIMIT * first_bytes:
        failures.append(
            f"checkpoint_cost: the snapshot grew from {first_bytes:,} bytes after "
            f"the first C-event to {last_bytes:,} after the fourth (limit "
            f"{CHECKPOINT_GROWTH_LIMIT}x) — are measured prefixes kept again?"
        )
    unit_ratio = float(
        _get(current, "checkpoint_cost", "unit_overhead_ratio", args.current)
    )
    if unit_ratio > CHECKPOINT_UNIT_RATIO_LIMIT:
        failures.append(
            f"checkpoint_cost: a checkpointed unit costs {unit_ratio:.2f}x the "
            f"plain unit (limit {CHECKPOINT_UNIT_RATIO_LIMIT}x) — checkpoints "
            "cost more than the work they protect again"
        )

    for workload in ("no_wrate", "wrate"):
        null_calls = float(
            _get(current, "kernel_hot_path", f"calls_per_event_{workload}_null", args.current)
        )
        live_calls = float(
            _get(current, "kernel_hot_path", f"calls_per_event_{workload}_live", args.current)
        )
        for sink, calls in (("null", null_calls), ("live", live_calls)):
            if calls > KERNEL_CALLS_PER_EVENT_LIMIT:
                failures.append(
                    f"kernel_hot_path: {calls:.1f} interpreter calls per event "
                    f"({workload}, {sink} sink; limit "
                    f"{KERNEL_CALLS_PER_EVENT_LIMIT:.0f}) — something on the "
                    "per-event path grew a call chain again"
                )
        if live_calls > null_calls + KERNEL_LIVE_HUB_CALLS_LIMIT:
            failures.append(
                f"kernel_hot_path: a live hub costs {live_calls - null_calls:.1f} "
                f"calls per event over the null sink ({workload}; limit "
                f"{KERNEL_LIVE_HUB_CALLS_LIMIT:.0f}) — is the kernel calling "
                "into the hub per message again?"
            )

    pools = int(_get(current, "campaign_pool", "pools", args.current))
    if pools != CAMPAIGN_POOLS_LIMIT:
        failures.append(
            f"campaign_pool: the campaign started {pools} process pools "
            f"(want {CAMPAIGN_POOLS_LIMIT}) — is a sweep forking a pool of "
            "its own again?"
        )

    for section, key in COST_METRICS:
        got = float(_get(current, section, key, args.current))
        want = float(_get(baseline, section, key, args.baseline))
        limit = want * args.tolerance
        mark = build_mark if section == "kernel_hot_path" else ""
        if mark:
            print(f"{section}.{key}: {got:.2f} (baseline {want:.2f}){mark}")
        if got > limit:
            failures.append(
                f"{section}.{key}: {got:.3f} exceeds budget {limit:.3f} "
                f"(baseline {want:.3f} x tolerance {args.tolerance}){mark}"
            )

    for section, key in THROUGHPUT_METRICS:
        got = float(_get(current, section, key, args.current))
        want = float(_get(baseline, section, key, args.baseline))
        floor = want / args.tolerance
        if got < floor:
            failures.append(
                f"{section}.{key}: {got:,.3g} below floor {floor:,.3g} "
                f"(baseline {want:,.3g} / tolerance {args.tolerance})"
            )

    if failures:
        print("perf budget check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"perf budget check OK: {len(EXACT_COUNTERS)} counters exact, "
        f"{len(CEILING_COUNTERS)} within their ceilings, "
        f"{len(COST_METRICS) + len(THROUGHPUT_METRICS)} timing metrics within "
        f"{args.tolerance}x of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
