"""The ledger's metric tables.

Names, units, directions and bounds — and the workloads' reasons — are
written down once, in ``BENCHMARK.json``, and read from there.  This
module adds what that file has no key for: the end-to-end rows that are
printed and compared but are not contract rows, which layer counters are
``exact``, and ``moves`` — recorded before anything is measured — which
end-to-end metric a layer metric should move and on which workload;
everywhere else the prediction is no change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

CONTRACT = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)

#: End-to-end metrics, as a user of the CLI sees them.  ``bound`` is the
#: share of the parent's median by which the metric may worsen.  The
#: timing bounds are as wide as the contract allows because the reference
#: host's speed drifts: ten runs of one workload spread (quartile distance
#: over median) by 6-20 % depending on the quarter-hour, CPU time tracking
#: wall time, so nothing under a quarter can be told from the host.
E2E_METRICS: Dict[str, dict] = {
    row["name"]: {key: row[key] for key in ("unit", "better", "bound")}
    for row in CONTRACT["end_to_end"]
}
# Printed, kept in --out and judged by --compare, but not rows of
# BENCHMARK.json, whose rows must be non-zero on every workload.
E2E_METRICS.update({
    # campaign-pool-ckpt only: wall of the identical command re-run on a warm cache
    "warm_wall_s": {"unit": "s", "better": "lower", "bound": E2E_METRICS["wall_s"]["bound"]},
    # failed over attempted operations; absolute: any failure is a regression
    "failed_frac": {"unit": "ratio", "better": "lower", "bound": 0.0},
    # CPU seconds of one repetition's children; no bound: a parallelisation raises it
    "proc.cpu_s": {"unit": "s", "better": "lower"},
})

#: Counters that repeat exactly for a fixed seed and must be equal in
#: ``--compare``.  Not ``dist.result_frame_bytes``: the frame carries the
#: batch's wall-clock float, whose repr varies by a byte.
EXACT = frozenset({
    "topology.cut_edge_frac",
    "sim.events", "sim.cancelled_events", "sim.delivered_messages",
    "sim.partition_windows", "sim.partition_border_events",
    "bgp.updates", "bgp.decision_runs", "bgp.mrai_sends", "bgp.mrai_wakeups",
    "bgp.mrai_invalidations", "bgp.mrai_invalidation_frac", "bgp.updates_per_cevent",
    "checkpoint.bytes",
})

_WALL_SIM = "wall_s and work_per_s on growth-serial and simulate-wrate"
_WALL_CAMPAIGN = "wall_s on campaign-pool-ckpt"

MOVES: Dict[str, str] = {
    # topology
    "topology.generate_s": "wall_s on topo-generate (nearly all of it); <= 6 % of growth-serial",
    "topology.generate_us_per_node": "wall_s on topo-generate; grows with n, so compare at equal n",
    "topology.save_s": "wall_s on topo-generate",
    "topology.load_s": "wall_s on simulate-wrate (about 5 %)",
    "topology.partition_ms": "none today",
    "topology.cut_edge_frac": "none today; sets sim.partition_border_events",
    # sim
    "sim.build_ms": "wall_s and peak_rss_mb on simulate-wrate",
    "sim.events": _WALL_SIM,
    "sim.cancelled_events": _WALL_SIM,
    "sim.delivered_messages": _WALL_SIM,
    "sim.us_per_event": _WALL_SIM,
    "sim.events_per_s": _WALL_SIM,
    "sim.partition_windows": "none today",
    "sim.partition_border_events": "none today",
    "sim.partition_overhead_ratio":
        "none today (partitioned K=2 in-process over serial, same origins)",
    # bgp
    "bgp.updates": _WALL_SIM,
    "bgp.decision_runs": _WALL_SIM,
    "bgp.mrai_sends": _WALL_SIM,
    "bgp.mrai_wakeups": _WALL_SIM,
    "bgp.mrai_invalidations":
        "wall_s on simulate-wrate (WRATE queues withdrawals, so more are replaced)",
    "bgp.mrai_invalidation_frac": "wall_s on simulate-wrate; the waste ratio of the out-queues",
    "bgp.updates_per_cevent": _WALL_SIM,
    # core
    "core.cevent_ms_p50": _WALL_SIM,
    "core.cevent_ms_tail": "wall_s on growth-serial (the slowest C-events)",
    "core.warmup_frac": _WALL_SIM + " (uncounted share of a C-event)",
    "core.unit_s": "wall_s on growth-serial and campaign-pool-ckpt",
    "core.merge_ms": "wall_s on growth-serial",
    "core.pool_efficiency": _WALL_CAMPAIGN,
    "core.regen_frac": _WALL_CAMPAIGN + " (each unit regenerates its topology)",
    # checkpoint
    "checkpoint.snapshot_ms": _WALL_CAMPAIGN,
    "checkpoint.write_ms": _WALL_CAMPAIGN,
    "checkpoint.bytes": _WALL_CAMPAIGN,
    "checkpoint.restore_ms": "none today (only a resumed run restores)",
    "checkpoint.unit_overhead_ratio": _WALL_CAMPAIGN,
    # experiments
    "experiments.cli_startup_ms":
        "a constant inside every workload's wall_s; most of warm_wall_s",
    "experiments.cache_key_us": "warm_wall_s on campaign-pool-ckpt",
    "experiments.cache_write_ms": _WALL_CAMPAIGN,
    "experiments.cache_hit_ms": "warm_wall_s on campaign-pool-ckpt",
    "experiments.report_ms": "wall_s on growth-serial and campaign-pool-ckpt; warm_wall_s",
    # dist
    "dist.unit_encode_us": "none here",
    "dist.unit_decode_us": "none here",
    "dist.result_encode_us": "none here",
    "dist.result_decode_us": "none here",
    "dist.result_frame_bytes": "none here",
    "dist.roundtrip_ms": "none here",
    # api
    "api.submit_to_start_ms": "none here",
    "api.submit_to_artifact_s": "none here",
    "api.overhead_s": "none here",
    "api.request_ms_p50": "none here",
    "api.request_ms_tail": "none here",
    # obs
    "obs.trace_overhead_ratio": "nothing: traced replay over untraced replay of the same calls",
    "obs.span_coverage": "nothing: share of the replay's wall inside top-level spans",
}

#: Per-layer metrics of the traced run (layer = package under src/repro).
#: A row of ``BENCHMARK.json`` without a ``moves`` entry fails the import.
LAYER_METRICS: Dict[str, dict] = {
    row["name"]: {
        "unit": row["unit"], "better": row["better"],
        "exact": row["name"] in EXACT, "moves": MOVES[row["name"]],
    }
    for row in CONTRACT["per_layer"]
}
