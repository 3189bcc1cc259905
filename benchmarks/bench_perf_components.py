"""Performance budget of the library's building blocks.

Not paper artifacts: each ``*_budget`` test measures per-op costs,
deterministic event counters and ceilings and merges them into
``benchmark_results/BENCH_sim_core.json``, which
``scripts/check_perf_budget.py`` compares with the committed
``benchmarks/baselines/BENCH_sim_core.json``.  The table also names the
interpreter build that wrote it.  ``test_oracle_n1000`` times the
steady-state oracle under pytest-benchmark.
"""

import cProfile
import gc
import json
import os
import platform
import pstats
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.bgp.config import BGPConfig, DampingConfig, MRAIMode
from repro.bgp.node import BGPNode
from repro.bgp.route import Route, best_route, clear_intern_caches, import_route
from repro.core.cevent import (
    new_batch_cursor,
    pick_origins,
    run_c_event_batch,
    run_c_event_experiment,
)
from repro.core.prefix_churn import build_allocation, run_prefix_churn
from repro.core.reference import steady_state_routes
from repro.prefix.prefix import clear_prefix_intern_cache, make_prefix
from repro.prefix.prefix import host_prefix
from repro.prefix.workload import PrefixChurnSpec
from repro.obs.telemetry import Telemetry, telemetry_session
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType, Relationship

P0 = host_prefix(0)

FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


@pytest.fixture(scope="module")
def results_dir():
    """``benchmark_results/`` at the repository root (gitignored)."""
    path = Path(__file__).resolve().parent.parent / "benchmark_results"
    path.mkdir(exist_ok=True)
    return path


def _merge_bench_json(results_dir, payload: dict) -> None:
    """Merge ``payload`` into ``BENCH_sim_core.json``, stamped with the
    interpreter build: calls-per-event counts depend on it."""
    out = results_dir / "BENCH_sim_core.json"
    existing = {}
    if out.exists():
        try:
            existing = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            existing = {}
    existing.update(payload)
    existing["interpreter"] = (
        f"{platform.python_implementation()} {platform.python_version()}"
    )
    out.write_text(json.dumps(existing, indent=1) + "\n", encoding="utf-8")


def test_sim_core_telemetry(benchmark, results_dir):
    """Telemetry cost on the simulation core: disabled vs enabled.

    The kernel counts where the work happens whether or not a hub reads
    the counts, so the two runs execute the same per-message code and
    the enabled one adds only ``run()``-boundary and phase samples.
    Both throughputs and the phase table are recorded in
    ``BENCH_sim_core.json`` so the CI perf-smoke job can archive them.
    """
    graph = generate_topology(baseline_params(400), seed=5)
    rounds = 5

    def run_disabled():
        return run_c_event_experiment(graph, FAST, num_origins=1, seed=5)

    def run_enabled():
        hub = Telemetry(meta={"run_kind": "bench", "benchmark": "sim_core"})
        with telemetry_session(hub):
            run_c_event_experiment(graph, FAST, num_origins=1, seed=5)
        return hub

    run_disabled()  # warm caches so both timed paths start equal
    run_enabled()
    # Alternated, best of each, CPU time: host drift hits both alike.
    disabled_seconds = enabled_seconds = float("inf")
    for _ in range(rounds):
        disabled_seconds = min(
            disabled_seconds, _best_of(run_disabled, 1, time.process_time)
        )
        enabled_seconds = min(
            enabled_seconds, _best_of(run_enabled, 1, time.process_time)
        )
    hub = benchmark.pedantic(run_enabled, rounds=1, iterations=1)

    snapshot = hub.snapshot()
    overhead_pct = (
        (enabled_seconds - disabled_seconds) / disabled_seconds * 100.0
        if disabled_seconds > 0
        else 0.0
    )
    payload = {
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "enabled_overhead_pct": overhead_pct,
        "events_per_sec": snapshot["summary"]["events_per_sec"],
        "engine_events": snapshot["summary"]["engine_events"],
        "phases": snapshot["phases"],
    }
    _merge_bench_json(results_dir, payload)
    print(
        f"\nsim core telemetry: {snapshot['summary']['events_per_sec']:.0f} "
        f"events/sec enabled, overhead {overhead_pct:+.1f}%"
    )
    assert {phase["name"] for phase in snapshot["phases"]} == {"warmup", "measured"}
    # Per-message hooks cost 13 % here (6 calls per event whenever a hub
    # was live, i.e. on every ``campaign -o``); a run()-boundary sample
    # costs nothing measurable.
    assert overhead_pct < 10.0


def _best_of(fn, rounds: int, clock=time.perf_counter) -> float:
    """Seconds of the fastest of ``rounds`` calls."""
    best = float("inf")
    for _ in range(rounds):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def _time_per_call_us(fn, rounds: int) -> float:
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - t0) / rounds * 1e6


def test_sim_core_budget(results_dir):
    """Per-op cost budget table for the simulation kernel.

    Measures the unit costs the ROADMAP budgets (best-path µs, decision
    µs, route bytes, events/s) plus the *deterministic* event-economy
    counters of the supersession fixes, and merges everything into
    ``BENCH_sim_core.json``.  The CI perf-smoke job diffs that file
    against the committed baseline (``benchmarks/baselines/``) via
    ``scripts/check_perf_budget.py``: counters exactly, timings within a
    tolerance band.  Regenerate with::

        PYTHONPATH=src python -m pytest \
            benchmarks/bench_perf_components.py::test_sim_core_budget \
            -q --benchmark-disable
    """
    rounds = 20_000

    # --- best-path selection -----------------------------------------
    # Warm: the steady-state cost once routes are interned and their
    # preference keys memoized (the sim's actual hot-path regime).
    clear_intern_caches()
    cands = [
        import_route(P0, (10 + i, 20 + i, 30 + i, 40 + i), Relationship.PEER)
        for i in range(5)
    ]
    best_route(cands, 7)  # populate the per-receiver key memos
    best_warm_us = _time_per_call_us(lambda: best_route(cands, 7), rounds)

    # Cold: construction plus first key computation (fresh objects each
    # call, bypassing the intern table) — bounds the one-time cost.
    def cold_once():
        fresh = [
            Route(prefix=P0, path=(10 + i, 20 + i, 30 + i, 40 + i), local_pref=90)
            for i in range(5)
        ]
        best_route(fresh, 7)

    best_cold_us = _time_per_call_us(cold_once, 2_000)

    # --- decision process --------------------------------------------
    graph = generate_topology(baseline_params(200), seed=3)
    network = SimNetwork(graph, FAST, seed=3)
    origin = [n for n in graph.node_ids if not graph.customers_of(n)][0]
    network.originate(origin, P0)
    network.run_to_convergence()
    node = max(
        network.nodes.values(), key=lambda n: len(n.adj_rib_in.candidates(P0))
    )
    now = network.engine.now
    decision_full_us = _time_per_call_us(lambda: node._run_decision(P0, now), rounds)

    current_best = node.loc_rib.best(P0)
    non_best = next(
        route for _, route in node.adj_rib_in.candidates(P0) if route != current_best
    )
    decision_incremental_us = _time_per_call_us(
        lambda: node._run_decision_incremental(P0, non_best, non_best, now), rounds
    )
    # Both rows must time the network's own prefix: any other token
    # decides over no candidates, and the incremental call would install
    # a stray route under it.
    assert node.loc_rib.prefixes() == [P0], node.loc_rib.prefixes()
    assert node.loc_rib.best(P0) == current_best

    # --- per-route memory --------------------------------------------
    route = cands[0]
    route_bytes = sys.getsizeof(route)
    path_bytes = sys.getsizeof(route.path)  # shared across interned copies

    # --- per-node memory of a built network --------------------------
    # About half is the Mersenne-Twister state (2.5 kB); the rest is one
    # OutputChannel per neighbour with its sent/pending dicts, the
    # channel dict, the RIBs and the node itself.  A second per-neighbour
    # record, an idle in-queue or damping/per-prefix-gate state the
    # config turns off each shows here (they took 7.3 kB to 4.8 kB), as
    # does an unslotted BGPNode (+1.5 kB: no key-sharing dict at its
    # attribute count).
    footprint_n = 2000
    footprint_graph = generate_topology(baseline_params(footprint_n), seed=3)
    gc.collect()
    tracemalloc.start()
    traced_before = tracemalloc.get_traced_memory()[0]
    footprint_net = SimNetwork(footprint_graph, BGPConfig(), seed=3)
    network_bytes_per_node = (
        tracemalloc.get_traced_memory()[0] - traced_before
    ) / len(footprint_net.nodes)
    tracemalloc.stop()
    del footprint_net

    # --- raw event throughput ----------------------------------------
    engine = Engine()
    remaining = [100_000]

    def tick():
        if remaining[0] > 0:
            remaining[0] -= 1
            engine.schedule(0.001, tick)

    engine.schedule(0.0, tick)
    t0 = time.perf_counter()
    engine.run()
    events_per_sec = engine.executed_events / (time.perf_counter() - t0)

    # --- MRAI wakeup supersession (deterministic, no timing) ----------
    # Each _schedule_wakeup call supersedes the previous (strictly
    # earlier wakeup); pre-fix every superseded event still executed as
    # a no-op, so the old kernel's executed count equals `scheduled`.
    sup_engine = Engine()
    sup_node = BGPNode(
        node_id=1,
        node_type=NodeType.C,
        neighbors={2: Relationship.PEER},
        engine=sup_engine,
        config=FAST,
        rng=random.Random(0),
        transmit=lambda message, at: None,
    )
    scheduled = 200
    for i in range(scheduled):
        sup_node._schedule_wakeup(2, 100.0 - i * 0.25)
    sup_engine.run()
    supersession = {
        "scheduled": scheduled,
        "executed": sup_engine.executed_events,
        "cancelled": sup_engine.cancelled_events,
        "executed_pre_fix": scheduled,
    }
    assert supersession["executed"] * 2 <= scheduled, (
        "stale-wakeup fix must cut executed heap events by >= 2x"
    )

    # --- realistic per-prefix WRATE churn (deterministic counters) ----
    churn_cfg = BGPConfig(
        mrai=2.0,
        wrate=True,
        mrai_mode=MRAIMode.PER_PREFIX,
        link_delay=0.001,
        processing_time_max=0.01,
    )
    churn_graph = generate_topology(baseline_params(150), seed=6)
    churn_net = SimNetwork(churn_graph, churn_cfg, seed=6)
    stubs = [n for n in churn_graph.node_ids if not churn_graph.customers_of(n)]
    origins = [(host_prefix(index), node_id) for index, node_id in enumerate(stubs[:4])]
    for prefix, node_id in origins:
        churn_net.originate(node_id, prefix)
    churn_net.run_to_convergence()
    for _ in range(2):
        for prefix, node_id in origins:
            churn_net.withdraw(node_id, prefix)
        churn_net.run_to_convergence()
        for prefix, node_id in origins:
            churn_net.originate(node_id, prefix)
        churn_net.run_to_convergence()
    churn = {
        "executed_events": churn_net.engine.executed_events,
        "delivered_messages": churn_net.delivered_messages,
        "cancelled_events": churn_net.engine.cancelled_events,
    }

    # --- damping reuse-check dedupe (deterministic counters) ----------
    damp_cfg = BGPConfig(
        mrai=2.0,
        link_delay=0.001,
        processing_time_max=0.01,
        damping=DampingConfig(
            enabled=True,
            suppress_threshold=1.5,
            reuse_threshold=0.5,
            half_life=5.0,
        ),
    )
    damp_graph = generate_topology(baseline_params(100), seed=8)
    damp_net = SimNetwork(damp_graph, damp_cfg, seed=8)
    damp_origin = [n for n in damp_graph.node_ids if not damp_graph.customers_of(n)][0]
    damp_net.originate(damp_origin, P0)
    damp_net.run_to_convergence()
    for _ in range(3):
        damp_net.withdraw(damp_origin, P0)
        damp_net.run_to_convergence()
        damp_net.originate(damp_origin, P0)
        damp_net.run_to_convergence()
    damping = {
        "executed_events": damp_net.engine.executed_events,
        "cancelled_events": damp_net.engine.cancelled_events,
    }

    # --- multi-prefix table axis -------------------------------------
    # Incremental re-decide of 1 changed prefix out of a 10k-entry table
    # of /24s: deciding per prefix makes this independent of the table
    # size, so its budget is the proof that multi-prefix events stay cheap.
    table_size = 10_000
    table_prefixes = [make_prefix(index << 8, 24) for index in range(table_size)]
    rib_node = BGPNode(
        node_id=1,
        node_type=NodeType.C,
        neighbors={2: Relationship.PEER, 3: Relationship.PROVIDER},
        engine=Engine(),
        config=FAST,
        rng=random.Random(0),
        transmit=lambda message, at: None,
    )
    for index, prefix in enumerate(table_prefixes):
        route = import_route(prefix, (2, 100 + (index % 50)), Relationship.PEER)
        rib_node.adj_rib_in.update(prefix, 2, route)
        rib_node.loc_rib.install(prefix, route)
    dirty_prefix = table_prefixes[table_size // 2]
    dirty_route = rib_node.loc_rib.best(dirty_prefix)
    redecide_us = _time_per_call_us(
        lambda: rib_node._run_decision_incremental(
            dirty_prefix, dirty_route, dirty_route, 0.0
        ),
        rounds,
    )

    # --- multi-prefix churn (deterministic counters) -----------------
    pc_graph = generate_topology(baseline_params(120), seed=9)
    pc_alloc = build_allocation(pc_graph, 40, num_origins=8, seed=9)
    pc_spec = PrefixChurnSpec(
        duration=300.0,
        event_rate=0.05,
        mean_downtime=30.0,
        deaggregation_probability=0.2,
    )
    pc = run_prefix_churn(pc_graph, pc_alloc, pc_spec, FAST, seed=9)
    prefix_churn = {
        "events_executed": pc.events_executed,
        "total_updates": pc.total_updates,
        "decisions_run": pc.decisions_run,
        "decisions_skipped": pc.decisions_skipped,
        "loc_rib_digest": pc.loc_rib_digest,
    }
    assert pc.decisions_skipped > 10 * pc.decisions_run, (
        "per-prefix decisions must skip far more decisions than they run"
    )

    payload = {
        "per_op": {
            "best_path_us_warm": best_warm_us,
            "best_path_us_cold": best_cold_us,
            "decision_full_us": decision_full_us,
            "decision_incremental_us": decision_incremental_us,
            "decision_candidates": len(node.adj_rib_in.candidates(P0)),
            "route_bytes": route_bytes,
            "path_bytes_shared": path_bytes,
            "network_bytes_per_node": network_bytes_per_node,
            "events_per_sec": events_per_sec,
        },
        "prefix_per_op": {
            "redecide_1_of_10k_us": redecide_us,
            "table_size": table_size,
        },
        "wakeup_supersession": supersession,
        "churn_per_prefix": churn,
        "damping_churn": damping,
        "prefix_churn": prefix_churn,
    }
    _merge_bench_json(results_dir, payload)
    print(
        f"\nper-op budget: best-path {best_warm_us:.2f}us warm / "
        f"{best_cold_us:.2f}us cold, decision {decision_full_us:.2f}us full / "
        f"{decision_incremental_us:.2f}us incremental, route {route_bytes}B, "
        f"{events_per_sec:,.0f} events/s; supersession "
        f"{supersession['executed']}/{scheduled} executed; "
        f"re-decide 1-of-10k {redecide_us:.2f}us; prefix churn skipped "
        f"{pc.decisions_skipped}/{pc.decisions_run + pc.decisions_skipped}"
    )


def _calls_per_event(graph, config: BGPConfig, *, live: bool, seed: int) -> float:
    """cProfile's total call count over one C-event / engine events executed."""
    origins = pick_origins(graph, 1, seed)

    def profiled() -> float:
        # Same cache state for every measurement, or the later ones find
        # their routes interned and count fewer calls.
        clear_intern_caches()
        clear_prefix_intern_cache()
        cursor = new_batch_cursor(graph, config, origins=origins, seed=seed)
        profile = cProfile.Profile()
        profile.enable()
        run_c_event_batch(graph, config, origins=origins, seed=seed, cursor=cursor)
        profile.disable()
        calls = pstats.Stats(profile).total_calls
        return calls / cursor.network.engine.executed_events

    if not live:
        return profiled()
    with telemetry_session(Telemetry()):
        return profiled()


def test_kernel_hot_path_budget(results_dir):
    """Interpreter calls per engine event: the kernel's cost with the noise taken out.

    Every call cProfile sees (Python frames and C builtins alike) while
    one C-event (warm-up, DOWN, UP) runs on a Baseline n=400 network,
    divided by the events the engine executed — for NO-WRATE and WRATE,
    under the null sink and under a live hub.  The count depends on the
    code and the interpreter version, not on the host, so it repeats
    exactly and ``scripts/check_perf_budget.py`` can hold it to absolute
    limits: at most 32 calls per event (the per-message-hook kernel took
    46.5 / 47.2 under the null sink and 53.0 / 53.4 live), and a live hub
    may add at most one.
    """
    graph = generate_topology(baseline_params(400), seed=5)
    kernel_hot_path = {}
    for name, config in (("no_wrate", BGPConfig()), ("wrate", BGPConfig(wrate=True))):
        for sink, live in (("null", False), ("live", True)):
            kernel_hot_path[f"calls_per_event_{name}_{sink}"] = _calls_per_event(
                graph, config, live=live, seed=5
            )
    _merge_bench_json(results_dir, {"kernel_hot_path": kernel_hot_path})
    print(
        "\nkernel hot path: "
        + ", ".join(f"{key[len('calls_per_event_'):]} {value:.1f}"
                    for key, value in kernel_hot_path.items())
        + " calls/event"
    )


def test_oracle_n1000(benchmark):
    """Steady-state oracle on a 1000-node topology."""
    graph = generate_topology(baseline_params(1000), seed=4)
    origin = graph.nodes_of_type(NodeType.C)[0]
    routes = benchmark(lambda: steady_state_routes(graph, origin))
    assert len(routes) > 900


def test_measured_analysis_budget(results_dir):
    """Budget rows for the measured-import and long-memory analysis paths.

    Same contract as ``test_sim_core_budget``: deterministic counters
    (edges parsed/kept, components, DFA window counts on a fixed-seed
    fGn series) must never drift, timing rows (µs per imported edge, µs
    per analysed point) stay within the CI tolerance band.  Merged into
    ``BENCH_sim_core.json`` for ``scripts/check_perf_budget.py``.
    """
    from pathlib import Path

    from repro.analysis import dfa, fractional_gaussian_noise
    from repro.measured import load_serial1

    fixture = (
        Path(__file__).parent.parent
        / "tests" / "topology" / "data" / "fixture_serial1.txt"
    )

    # --- measured-topology import (timing + exact counters) -----------
    graph, report = load_serial1(fixture)  # warm the import path once
    rounds = 50
    t0 = time.perf_counter()
    for _ in range(rounds):
        load_serial1(fixture)
    import_us_per_edge = (
        (time.perf_counter() - t0) / rounds / report.edges_parsed * 1e6
    )
    measured_import = {
        "edges_parsed": report.edges_parsed,
        "transit_edges": report.transit_edges,
        "peer_edges": report.peer_edges,
        "num_nodes": report.num_nodes,
        "components": len(report.components),
        "import_us_per_edge": import_us_per_edge,
    }
    assert report.edges_dropped == 0, "fixture must import without drops"

    # --- DFA long-memory analysis (timing + exact window counters) ----
    points = 8192
    series = fractional_gaussian_noise(points, 0.75, seed=42)
    dfa1 = dfa(series, order=1)
    dfa2 = dfa(series, order=2)
    dfa_us_per_point = (
        _time_per_call_us(lambda: dfa(series, order=1), 20) / points
    )
    longmem_analysis = {
        "points": points,
        "dfa1_windows": dfa1.windows,
        "dfa2_windows": dfa2.windows,
        "dfa1_scales": len(dfa1.scales),
        "dfa_per_point_us": dfa_us_per_point,
    }
    # The estimator must stay near-linear: well under 10 µs/point even
    # on a slow runner, or campaign-scale series become the bottleneck.
    assert dfa_us_per_point < 10.0

    _merge_bench_json(
        results_dir,
        {
            "measured_import": measured_import,
            "longmem_analysis": longmem_analysis,
        },
    )
    print(
        f"\nmeasured/analysis budget: import {import_us_per_edge:.2f}us/edge "
        f"({report.edges_parsed} edges, {report.num_nodes} nodes), "
        f"dfa {dfa_us_per_point:.3f}us/point "
        f"({dfa1.windows}+{dfa2.windows} windows)"
    )


#: CLI verbs whose start-up the budget tracks -> the ``repro-bgp``
#: command whose handler module they import (None: ``--version``).
CLI_VERBS = {
    "version": None,
    "topology_generate": "topology",
    "simulate": "simulate",
    "campaign": "campaign",
}


def test_topology_build_budget(results_dir, tmp_path):
    """Budget rows for building a topology and for CLI start-up.

    Exact: link count and canonical-JSON digest of the fixed-seed
    Baseline graph at n=2000 and n=8000 (the generator's output is part
    of every experiment's identity), and the sha256 of the file
    ``save_json`` writes for it at n=2000.  Cost: µs per link to
    generate, to load and to save at n=8000.  Per verb of
    :data:`CLI_VERBS`, what a fresh interpreter pays before the verb
    runs — importing the CLI and the module
    :func:`~repro.experiments.cli.main` dispatches to: the wall
    time (``cli_import_ms_<verb>``) and the number of ``repro`` modules
    loaded (``modules_loaded_<verb>``, a ceiling in the gate).  The
    scaling invariant — the per-link cost at n=8000 stays within 3x of
    that at n=2000, where a scan of a tier-1's adjacency or of a
    candidate pool per link gave ~7x — is asserted by
    ``scripts/check_perf_budget.py`` from the two per-size rows.
    """
    import hashlib
    import subprocess

    from repro.topology.serialization import from_json_dict, save_json, to_json_dict

    topology_build = {}
    for n in (2000, 8000):
        params = baseline_params(n)
        graph = generate_topology(params, seed=3)
        document = to_json_dict(graph)
        links = graph.edge_count()
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        topology_build[f"links_n{n}"] = links
        topology_build[f"graph_digest_n{n}"] = hashlib.sha256(
            canonical.encode("utf-8")
        ).hexdigest()
        generate_s = _best_of(lambda: generate_topology(params, seed=3), 3)
        load_s = _best_of(lambda: from_json_dict(document), 3)
        path = tmp_path / f"baseline-n{n}.json"
        save_s = _best_of(lambda: save_json(graph, path), 3)
        # The budgeted cost rows are the n=8000 ones; n=2000 is their base.
        suffix = "_n2000" if n == 2000 else ""
        topology_build[f"generate_us_per_link{suffix}"] = generate_s / links * 1e6
        topology_build[f"load_us_per_link{suffix}"] = load_s / links * 1e6
        topology_build[f"save_us_per_link{suffix}"] = save_s / links * 1e6
        if n == 2000:
            topology_build["file_digest_n2000"] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for verb, command in CLI_VERBS.items():
        dispatch = f"importlib.import_module(VERB_MODULES[{command!r}])\n" if command else ""
        script = (
            "import importlib, sys\n"
            "from repro.experiments.cli import VERB_MODULES\n"
            + dispatch
            + "print(sum(name.split('.')[0] == 'repro' for name in sys.modules))\n"
        )
        argv = [sys.executable, "-c", script]
        topology_build[f"cli_import_ms_{verb}"] = 1e3 * _best_of(
            lambda: subprocess.run(argv, env=env, check=True, capture_output=True), 3
        )
        topology_build[f"modules_loaded_{verb}"] = int(
            subprocess.run(
                argv, env=env, check=True, capture_output=True, text=True
            ).stdout
        )

    _merge_bench_json(results_dir, {"topology_build": topology_build})
    print(
        f"\ntopology build budget: generate "
        f"{topology_build['generate_us_per_link_n2000']:.1f} -> "
        f"{topology_build['generate_us_per_link']:.1f} us/link, load "
        f"{topology_build['load_us_per_link_n2000']:.1f} -> "
        f"{topology_build['load_us_per_link']:.1f} us/link, save "
        f"{topology_build['save_us_per_link_n2000']:.1f} -> "
        f"{topology_build['save_us_per_link']:.1f} us/link (n=2000 -> 8000)"
    )
    for verb in CLI_VERBS:
        print(
            f"  cli {verb}: {topology_build[f'cli_import_ms_{verb}']:.0f} ms, "
            f"{topology_build[f'modules_loaded_{verb}']} repro modules"
        )


def test_checkpoint_cost_budget(results_dir, tmp_path):
    """Budget rows for what a sweep-unit checkpoint costs.

    The network is the one a per-event checkpoint captures: Baseline
    n=400, fixed seed, four C-events measured, heap empty.  Exact: the
    canonical payload size after the first and after the fourth event
    and the total RNG draw count (all pure functions of the trajectory
    and of the node layout, so a size regression or a new uncounted draw
    site shows as a counter drift).  Measured prefixes are retired, so
    the two sizes must stay level: a snapshot that grows with the events
    behind it means finished origins are kept again.
    Cost: snapshot µs per node, write ms, restore ms (read + rebuild).
    Three ratios ``scripts/check_perf_budget.py`` bounds absolutely: the
    fourth event's size over the first's, the RNG share of the payload,
    and a checkpointed unit over the same unit plain, alternated in this
    process (best of each, CPU time).
    """
    from repro.checkpoint import (
        KIND_NETWORK,
        execute_sweep_unit_checkpointed,
        read_checkpoint,
        restore_network,
        snapshot_network,
        write_checkpoint,
    )
    from repro.checkpoint.format import network_section_bytes
    from repro.core.sweep import SweepUnit, execute_sweep_unit

    n, events, seed = 400, 4, 5
    graph = generate_topology(baseline_params(n), seed=3)
    config = BGPConfig()
    origins = pick_origins(graph, events, seed)
    cursor = new_batch_cursor(graph, config, origins=origins, seed=seed)
    event_bytes = []
    run_c_event_batch(
        graph, config, origins=origins, seed=seed, cursor=cursor,
        after_event=lambda live: event_bytes.append(
            sum(network_section_bytes(snapshot_network(live.network)).values())
        ),
    )
    network = cursor.network

    payload = snapshot_network(network)
    sizes = network_section_bytes(payload)
    path = tmp_path / "network.ckpt"
    snapshot_s = _best_of(lambda: snapshot_network(network), 5)
    write_s = _best_of(lambda: write_checkpoint(path, KIND_NETWORK, payload), 5)
    restore_s = _best_of(
        lambda: restore_network(graph, read_checkpoint(path).payload), 5
    )

    unit = SweepUnit(
        scenario="BASELINE", n=n, num_origins=events, batch_index=0, num_batches=1,
        seed=seed, config=config, scenario_kwargs=(),
    )
    plain_s = checkpointed_s = float("inf")
    for _ in range(5):  # alternated, so host drift hits both sides alike
        plain_s = min(
            plain_s, _best_of(lambda: execute_sweep_unit(unit), 1, time.process_time)
        )
        checkpointed_s = min(
            checkpointed_s,
            _best_of(
                lambda: execute_sweep_unit_checkpointed(unit, tmp_path / "units"),
                1,
                time.process_time,
            ),
        )

    checkpoint_cost = {
        "snapshot_bytes_first_event": event_bytes[0],
        "snapshot_bytes": sum(sizes.values()),
        "rng_draws": sum(node.rng_draws for node in network.nodes.values()),
        "rng_share": sizes["rng"] / sum(sizes.values()),
        "snapshot_us_per_node": snapshot_s / n * 1e6,
        "write_ms": write_s * 1e3,
        "restore_ms": restore_s * 1e3,
        "unit_overhead_ratio": checkpointed_s / plain_s,
    }
    _merge_bench_json(results_dir, {"checkpoint_cost": checkpoint_cost})
    print(
        f"\ncheckpoint cost budget: "
        f"{checkpoint_cost['snapshot_bytes_first_event']:,} -> "
        f"{checkpoint_cost['snapshot_bytes']:,} bytes after 1 -> {events} events "
        f"({100 * checkpoint_cost['rng_share']:.1f} % rng, "
        f"{checkpoint_cost['rng_draws']:,} draws), snapshot "
        f"{checkpoint_cost['snapshot_us_per_node']:.1f} us/node, write "
        f"{checkpoint_cost['write_ms']:.1f} ms, restore "
        f"{checkpoint_cost['restore_ms']:.1f} ms, checkpointed unit "
        f"{checkpoint_cost['unit_overhead_ratio']:.2f}x plain"
    )


def test_campaign_pool_budget(results_dir):
    """Budget rows for the campaign-wide unit queue.

    The smoke fig07 + fig10 + fig11 campaign — six sweeps of two sizes —
    cold at ``jobs=2``.  Exact: ``pools``, the process pools the campaign
    started (1: every planned unit is queued on one pool up front; a pool
    per sweep made it 6), and ``units``, the sweep units it submitted
    (12).  Timing: ``pool_efficiency``, the unit seconds the campaign
    simulated over what its workers could have in its wall time
    (``jobs`` x wall).  ``scripts/check_perf_budget.py`` holds ``pools``
    to 1.
    """
    from repro.experiments import cache
    from repro.experiments.campaign import CampaignSpec, run_campaign

    jobs = 2
    hub = Telemetry()
    cache.clear_cache()
    summary = run_campaign(
        CampaignSpec(
            scale="smoke", seed=0, experiments=("fig07", "fig10", "fig11"), jobs=jobs
        ),
        telemetry=hub,
    )
    cache.clear_cache()
    campaign_pool = {
        "pools": hub.counters.get("sweep.pools", 0),
        "units": hub.counters.get("sweep.units", 0),
        "pool_efficiency": (
            summary.worker_seconds / (jobs * summary.wall_clock_seconds)
        ),
    }
    _merge_bench_json(results_dir, {"campaign_pool": campaign_pool})
    print(
        f"\ncampaign pool budget: {campaign_pool['pools']} pool(s), "
        f"{campaign_pool['units']} units, efficiency "
        f"{campaign_pool['pool_efficiency']:.2f} at jobs={jobs}"
    )
