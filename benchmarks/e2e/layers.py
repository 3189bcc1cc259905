"""The traced run: per-layer metrics from in-process replays.

For each workload the harness replays the workload's inputs through the
layers' *public* functions twice — once untraced on the path the CLI
itself takes, once with a span around every call into a layer and a
``repro.obs.telemetry_session`` open for the BGP counts — and checks the
two agree (and, where the CLI writes the same bytes, that they match the
digest in ``expected.json``).  Their ratio is the tracing overhead.
Layers the workload bypasses get probes on the workload's real inputs
(frame codec, checkpoints, partitioned kernel, the HTTP service), so
that every layer has a before-number.  Nothing inside ``src/`` changes.

A layer is a package under ``src/repro``; span and metric names start
with it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import json
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import stats
import workloads as wl

from repro.bgp.config import BGPConfig
from repro.bgp.route import clear_intern_caches
from repro.checkpoint import (
    KIND_NETWORK,
    execute_sweep_unit_checkpointed,
    read_checkpoint,
    restore_network,
    snapshot_network,
    write_checkpoint,
)
from repro.core.cevent import (
    CEventBatchResult,
    merge_c_event_batches,
    new_batch_cursor,
    pick_origins,
    run_c_event_batch,
    run_c_event_experiment,
)
from repro.core.sweep import SweepResult, SweepUnit, execute_sweep_unit, run_growth_sweep
from repro.dist.protocol import (
    MSG_HEARTBEAT,
    MSG_LEASE,
    MSG_RESULT,
    FrameStream,
    batch_result_from_wire,
    batch_result_to_wire,
    decode_frame_payload,
    encode_frame,
    unit_from_wire,
    unit_to_wire,
)
from repro.experiments.cache import (
    cached_sweep,
    clear_cache,
    sweep_cache_key,
    sweep_execution,
)
from repro.experiments.registry import run_experiment
from repro.experiments.report import ExperimentResult
from repro.experiments.results_io import cevent_stats_to_dict, save_results, save_sweep
from repro.experiments.scale import get_scale
from repro.obs import Telemetry, telemetry_session
from repro.prefix.prefix import clear_prefix_intern_cache
from repro.sim.partition import (
    LockstepRunner,
    build_local_parts,
    run_partitioned_c_event_batch,
)
from repro.sim.rng import origin_batch_seed, sweep_point_seeds
from repro.topology.generator import generate_topology
from repro.topology.partition import cut_statistics, partition_graph
from repro.topology.scenarios import scenario_params
from repro.topology.serialization import load_json, save_json
from repro.topology.types import NODE_TYPE_ORDER

#: Closed-loop warm requests against the API child (three kinds, cycled).
API_REQUESTS = 400

#: The API probe's smoke campaign: the Baseline sweep through an experiment
#: whose checks hold on every pool seed (fig04's do not at smoke scale).
API_EXPERIMENT = "fig07"

#: Timing loops of the cheap probes.
CODEC_LOOPS = 50
PROBE_REPEATS = 3

def _timed(function: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    value = function()
    return time.perf_counter() - started, value


def _cold() -> None:
    """Start a replay the way a CLI child starts: no memoized sweeps or routes.

    Without this the second replay in the process inherits the first
    one's intern tables and reads faster than tracing makes it slower.
    """
    clear_cache()
    clear_intern_caches()
    clear_prefix_intern_cache()
    gc.collect()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Facts:
    """What a replay and its probes found: samples, counts, verifications."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.tails: Dict[str, List[float]] = {}
        self.cevents = 0
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def verify(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def metrics(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for name, values in self.samples.items():
            out[name] = {"median": stats.median(values), "values": values, "n": len(values)}
        for name, value in self.counts.items():
            out[name] = {"median": value, "n": 1}
        for name, values in self.tails.items():
            tail = stats.tail_percentile(values)
            out[f"{name}_p50"] = {"median": stats.median(values), "n": len(values)}
            if tail is not None:
                out[f"{name}_tail"] = {
                    "median": tail[1], "n": len(values), "percentile": tail[0]
                }
        return out


# ----------------------------------------------------------------------
# The kernel, shared by growth-serial and simulate-wrate
# ----------------------------------------------------------------------
def _traced_batch(
    tracer: stats.Tracer, facts: Facts, graph, config: BGPConfig,
    origins: Sequence[int], seed: int,
) -> CEventBatchResult:
    """``run_c_event_batch`` with the network build and each C-event timed."""
    with tracer.span("sim.build") as span:
        cursor = new_batch_cursor(graph, config, origins=origins, seed=seed)
    facts.add("sim.build_ms", 1e3 * span.duration)
    stamps: List[float] = []
    with tracer.span("core.cevent") as span:
        result = run_c_event_batch(
            graph, config, origins=origins, seed=seed, cursor=cursor,
            after_event=lambda _cursor: stamps.append(time.perf_counter()),
        )
    edges = [span.start] + stamps
    facts.tails.setdefault("core.cevent_ms", []).extend(
        1e3 * (after - before) for before, after in zip(edges, edges[1:])
    )
    network = cursor.network
    facts.count("sim.events", network.engine.executed_events)
    facts.count("sim.cancelled_events", network.engine.cancelled_events)
    facts.count("sim.delivered_messages", network.delivered_messages)
    facts.cevents += len(origins)
    return result


def _kernel_metrics(tracer: stats.Tracer, facts: Facts, telemetry: Telemetry) -> None:
    """Rates and BGP counts once the traced replay is over."""
    busy = tracer.total("core.cevent")
    events = facts.counts["sim.events"]
    facts.counts["sim.us_per_event"] = 1e6 * busy / events
    facts.counts["sim.events_per_s"] = events / busy
    counters = telemetry.counters
    sends = counters.get("mrai.sends", 0)
    invalidations = counters.get("mrai.invalidations", 0)
    facts.counts["bgp.updates"] = counters.get("node.updates", 0)
    facts.counts["bgp.decision_runs"] = counters.get("node.decision_runs", 0)
    facts.counts["bgp.mrai_sends"] = sends
    facts.counts["bgp.mrai_wakeups"] = counters.get("mrai.wakeups", 0)
    facts.counts["bgp.mrai_invalidations"] = invalidations
    facts.counts["bgp.mrai_invalidation_frac"] = invalidations / (sends + invalidations)
    facts.counts["bgp.updates_per_cevent"] = counters.get("node.updates", 0) / facts.cevents
    warmup = telemetry.phase_seconds.get("warmup", 0.0)
    measured = telemetry.phase_seconds.get("measured", 0.0)
    facts.counts["core.warmup_frac"] = warmup / (warmup + measured)


# ----------------------------------------------------------------------
# growth-serial
# ----------------------------------------------------------------------
def _growth(tracer: stats.Tracer, facts: Facts, telemetry: Telemetry, sizes: wl.Sizes,
            seed: int, scratch: Path, reference: Optional[str]) -> float:
    scale = get_scale(sizes.growth_scale)
    config = BGPConfig()

    # Untraced: the path the CLI takes, byte-checked against its artifact.
    _cold()
    untraced_s, real = _timed(lambda: run_experiment(sizes.growth_experiment, scale, seed=seed))
    save_results([real], scratch / "growth.json")
    if reference is not None:
        facts.verify("growth replay matches the CLI's campaign.json",
                     _sha256(scratch / "growth.json") == reference)
    real_sweep = cached_sweep("BASELINE", scale, config=config, seed=seed)  # memory hit
    _cold()

    units: List[SweepUnit] = []
    batches: List[CEventBatchResult] = []
    with tracer.span("replay"), telemetry_session(telemetry):
        for n in scale.sizes:
            with tracer.span("core.unit") as unit_span:
                # execute_sweep_unit, step by step, so each layer gets a span
                unit = SweepUnit(
                    scenario="BASELINE", n=n, num_origins=scale.origins, batch_index=0,
                    num_batches=1, seed=seed, config=config, scenario_kwargs=(),
                )
                topo_seed, sim_seed = sweep_point_seeds(seed, n)
                with tracer.span("topology.generate") as span:
                    graph = generate_topology(scenario_params("BASELINE", n), seed=topo_seed)
                facts.add("topology.generate_s", span.duration)
                facts.add("topology.generate_us_per_node", 1e6 * span.duration / n)
                origins = pick_origins(graph, scale.origins, sim_seed)
                batch = _traced_batch(
                    tracer, facts, graph, config, origins, origin_batch_seed(sim_seed, 0, 1)
                )
            facts.add("core.unit_s", unit_span.duration)
            units.append(unit)
            batches.append(batch)
        with tracer.span("core.merge") as span:
            sweep = SweepResult(
                scenario="BASELINE", sizes=list(scale.sizes), config=config,
                stats=[
                    merge_c_event_batches([batch], seed=sweep_point_seeds(seed, n)[1])
                    for n, batch in zip(scale.sizes, batches)
                ],
            )
        facts.add("core.merge_ms", 1e3 * span.duration)
        with tracer.span("experiments.report") as span:
            result = ExperimentResult(
                experiment_id=real.experiment_id, title=real.title, x_label="n",
                x_values=[float(n) for n in sweep.sizes],
                series={f"U({t.value})": sweep.u_series(t) for t in NODE_TYPE_ORDER},
            )
            save_results([result], scratch / "growth-traced.json")
            result.to_markdown()
        facts.add("experiments.report_ms", 1e3 * span.duration)
    facts.counts["core.regen_frac"] = tracer.total("topology.generate") / tracer.total("core.unit")
    facts.verify(
        "layered growth replay reproduces the real path's sweep",
        [cevent_stats_to_dict(s)["per_type"] for s in sweep.stats]
        == [cevent_stats_to_dict(s)["per_type"] for s in real_sweep.stats],
    )
    _probe_dist(facts, units, batches)
    return untraced_s


def _probe_dist(facts: Facts, units: List[SweepUnit], batches: List[CEventBatchResult]) -> None:
    """Frame codec and one socket round trip on the sweep's real units/results."""
    def per_call_us(function: Callable[[], object], loops: int) -> float:
        seconds, _ = _timed(lambda: [function() for _ in range(loops)])
        return 1e6 * seconds / loops

    for unit, batch in zip(units, batches):
        def lease() -> bytes:
            return encode_frame({"type": MSG_LEASE, "unit": unit_to_wire(unit)})

        def result() -> bytes:
            return encode_frame({"type": MSG_RESULT, "result": batch_result_to_wire(batch)})

        def unlease() -> SweepUnit:
            return unit_from_wire(decode_frame_payload(lease_frame[4:])["unit"])

        def unresult() -> CEventBatchResult:
            return batch_result_from_wire(decode_frame_payload(result_frame[4:])["result"])

        lease_frame, result_frame = lease(), result()
        facts.add("dist.unit_encode_us", per_call_us(lease, CODEC_LOOPS))
        facts.add("dist.unit_decode_us", per_call_us(unlease, CODEC_LOOPS))
        facts.add("dist.result_encode_us", per_call_us(result, PROBE_REPEATS))
        facts.add("dist.result_decode_us", per_call_us(unresult, PROBE_REPEATS))
        facts.add("dist.result_frame_bytes", len(result_frame))
        facts.verify("unit survives the wire", unlease() == unit)

    # One result frame out, one small frame back, over a socketpair; the
    # peer runs in a thread because a result frame can exceed the buffer.
    message = {"type": MSG_RESULT, "result": batch_result_to_wire(batches[-1])}
    near_socket, far_socket = socket.socketpair()
    near, far = FrameStream(near_socket), FrameStream(far_socket)

    def echo() -> None:
        while far.recv() is not None:
            far.send({"type": MSG_HEARTBEAT})

    peer = threading.Thread(target=echo, daemon=True)
    peer.start()
    try:
        for _ in range(2 * PROBE_REPEATS):
            seconds, _ = _timed(lambda: (near.send(message), near.recv()))
            facts.add("dist.roundtrip_ms", 1e3 * seconds)
    finally:
        near.close()
        peer.join(timeout=10)
        far.close()


# ----------------------------------------------------------------------
# simulate-wrate
# ----------------------------------------------------------------------
def _simulate(tracer: stats.Tracer, facts: Facts, telemetry: Telemetry, sizes: wl.Sizes,
              seed: int, scratch: Path, reference: Optional[str]) -> float:
    config = BGPConfig(mrai=30.0, wrate=True)
    path = scratch / "topology.json"
    with tracer.span("topology.generate") as span:
        built = generate_topology(scenario_params("BASELINE", sizes.sim_nodes), seed=seed)
    facts.add("topology.generate_s", span.duration)
    facts.add("topology.generate_us_per_node", 1e6 * span.duration / sizes.sim_nodes)
    with tracer.span("topology.save") as span:
        save_json(built, path)
    facts.add("topology.save_s", span.duration)

    def comparable(stats_: object) -> dict:
        document = cevent_stats_to_dict(stats_)
        document.pop("wall_clock_seconds", None)
        return document

    _cold()
    untraced_s, real = _timed(
        lambda: run_c_event_experiment(
            load_json(path), config, num_origins=sizes.sim_origins, seed=seed
        )
    )
    _cold()
    with tracer.span("replay"), telemetry_session(telemetry):
        with tracer.span("topology.load") as span:
            graph = load_json(path)
        facts.add("topology.load_s", span.duration)
        origins = pick_origins(graph, sizes.sim_origins, seed)
        batch = _traced_batch(tracer, facts, graph, config, origins, seed)
        with tracer.span("core.merge") as span:
            merged = merge_c_event_batches([batch], seed=seed)
        facts.add("core.merge_ms", 1e3 * span.duration)
        with tracer.span("experiments.report") as span:
            (scratch / "churn.json").write_text(
                json.dumps(cevent_stats_to_dict(merged), indent=1, sort_keys=True),
                encoding="utf-8",
            )
        facts.add("experiments.report_ms", 1e3 * span.duration)
    facts.verify("layered simulate replay reproduces run_c_event_experiment",
                 comparable(merged) == comparable(real))
    _probe_partition(tracer, facts, graph, config, origins[:2], seed)
    return untraced_s


def _probe_partition(tracer: stats.Tracer, facts: Facts, graph, config: BGPConfig,
                     origins: Sequence[int], seed: int) -> None:
    """The partitioned kernel (K=2, in-process) against the serial one."""
    with tracer.span("topology.partition") as span:
        partition = partition_graph(graph, 2)
        cut = cut_statistics(graph, partition)
    facts.add("topology.partition_ms", 1e3 * span.duration)
    facts.counts["topology.cut_edge_frac"] = cut["cut_fraction"]
    with tracer.span("sim.serial_reference") as span:
        serial = run_c_event_batch(graph, config, origins=origins, seed=seed)
    serial_s = span.duration
    runner = LockstepRunner(
        partition, build_local_parts(graph, partition, config, seed=seed),
        link_delay=config.link_delay,
    )
    with tracer.span("sim.partitioned") as span:
        split = run_partitioned_c_event_batch(
            graph, partition, config, origins=origins, seed=seed, runner=runner
        )
    facts.counts["sim.partition_overhead_ratio"] = span.duration / serial_s
    facts.counts["sim.partition_windows"] = runner.windows
    facts.counts["sim.partition_border_events"] = runner.border_events
    facts.verify("partitioned churn equals serial churn",
                 split.measured_messages == serial.measured_messages and split.raw == serial.raw)


# ----------------------------------------------------------------------
# campaign-pool-ckpt
# ----------------------------------------------------------------------
def _campaign_pass(tracer: "stats.Tracer | stats.NullTracer", sizes: wl.Sizes, seed: int, root: Path) -> Path:
    """Cold then warm campaign through the pool, cache and checkpoints."""
    scale = get_scale(sizes.campaign_scale)
    artifact = root / "campaign.json"
    with sweep_execution(jobs=2, cache_dir=root / "cache", checkpoint_dir=root / "checkpoints"):
        for temperature in ("cold", "warm"):
            clear_cache()  # the warm pass must hit the disk, as a new process would
            with tracer.span(f"experiments.campaign_{temperature}"):
                results = []
                for experiment in sizes.campaign_experiments:
                    with tracer.span("experiments.run"):
                        results.append(run_experiment(experiment, scale, seed=seed))
                with tracer.span("experiments.report"):
                    save_results(results, artifact)
                    _ = "\n".join(result.to_markdown() for result in results)
    clear_cache()
    return artifact


def _campaign(tracer: stats.Tracer, facts: Facts, telemetry: Telemetry, sizes: wl.Sizes,
              seed: int, scratch: Path, reference: Optional[str]) -> float:
    (scratch / "untraced").mkdir()
    (scratch / "traced").mkdir()
    _cold()
    untraced_s, plain = _timed(
        lambda: _campaign_pass(stats.NullTracer(), sizes, seed, scratch / "untraced")
    )
    _cold()  # the pool forks from this process, intern tables and all
    with tracer.span("replay"), telemetry_session(telemetry):
        traced = _campaign_pass(tracer, sizes, seed, scratch / "traced")
    facts.samples["experiments.report_ms"] = [
        1e3 * seconds for seconds in tracer.durations("experiments.report")
    ]
    facts.verify("traced and untraced campaign artifacts are identical",
                 plain.read_bytes() == traced.read_bytes())
    if reference is not None:
        facts.verify("pool + cache + checkpoint replay matches the serial CLI artifact",
                     _sha256(traced) == reference)
    _probe_unit(tracer, facts, sizes, seed, scratch)
    _probe_cache(tracer, facts, sizes, seed, scratch)
    return untraced_s


def _probe_unit(tracer: stats.Tracer, facts: Facts, sizes: wl.Sizes, seed: int,
                scratch: Path) -> None:
    """One sweep unit plain and checkpointed, its snapshot, and the pool."""
    scale = get_scale(sizes.campaign_scale)
    config = BGPConfig()
    unit = SweepUnit(
        scenario="BASELINE", n=scale.largest, num_origins=scale.origins, batch_index=0,
        num_batches=1, seed=seed, config=config, scenario_kwargs=(),
    )
    topo_seed, sim_seed = sweep_point_seeds(seed, unit.n)
    for _ in range(PROBE_REPEATS):
        with tracer.span("core.unit") as span:
            plain = execute_sweep_unit(unit)
        facts.add("core.unit_s", span.duration)
        with tracer.span("checkpoint.unit") as span:
            kept = execute_sweep_unit_checkpointed(unit, scratch / "unit-checkpoints")
        facts.add("checkpoint.unit_s", span.duration)
        with tracer.span("topology.generate") as span:
            graph = generate_topology(scenario_params("BASELINE", unit.n), seed=topo_seed)
        facts.add("topology.generate_s", span.duration)
    facts.verify("checkpointed unit equals plain unit",
                 kept.raw == plain.raw and kept.measured_messages == plain.measured_messages)
    facts.counts["checkpoint.unit_overhead_ratio"] = (
        stats.median(facts.samples.pop("checkpoint.unit_s")) / stats.median(facts.samples["core.unit_s"])
    )
    facts.counts["core.regen_frac"] = (
        stats.median(facts.samples["topology.generate_s"]) / stats.median(facts.samples["core.unit_s"])
    )

    # a converged network in the state a per-event checkpoint captures
    origins = pick_origins(graph, scale.origins, sim_seed)
    cursor = new_batch_cursor(graph, config, origins=origins, seed=sim_seed)
    run_c_event_batch(graph, config, origins=origins, seed=sim_seed, cursor=cursor)
    path = scratch / "network-checkpoint.json"
    for _ in range(PROBE_REPEATS):
        with tracer.span("checkpoint.snapshot") as span:
            payload = snapshot_network(cursor.network)
        facts.add("checkpoint.snapshot_ms", 1e3 * span.duration)
        with tracer.span("checkpoint.write") as span:
            write_checkpoint(path, KIND_NETWORK, payload)
        facts.add("checkpoint.write_ms", 1e3 * span.duration)
        with tracer.span("checkpoint.restore") as span:
            restored = restore_network(graph, read_checkpoint(path).payload)
        facts.add("checkpoint.restore_ms", 1e3 * span.duration)
    facts.counts["checkpoint.bytes"] = path.stat().st_size
    facts.verify("restored network snapshots to the same state",
                 snapshot_network(restored) == payload)

    sweep = dict(sizes=scale.sizes, config=config, num_origins=scale.origins, seed=seed)
    with tracer.span("core.sweep_serial") as span:
        serial = run_growth_sweep("BASELINE", **sweep)
    serial_s = span.duration
    with tracer.span("core.sweep_pool") as span:
        pooled = run_growth_sweep("BASELINE", jobs=2, **sweep)
    facts.counts["core.pool_efficiency"] = serial_s / (2 * span.duration)
    facts.verify("pooled sweep equals serial sweep",
                 [s.measured_messages for s in pooled.stats]
                 == [s.measured_messages for s in serial.stats])
    save = scratch / "sweep.json"
    for _ in range(PROBE_REPEATS):
        with tracer.span("experiments.cache_write") as span:
            save_sweep(serial, save)
        facts.add("experiments.cache_write_ms", 1e3 * span.duration)


def _probe_cache(tracer: stats.Tracer, facts: Facts, sizes: wl.Sizes, seed: int,
                 scratch: Path) -> None:
    """Cache key cost and a disk hit, on a cache the probe fills itself."""
    scale = get_scale(sizes.campaign_scale)
    config = BGPConfig()
    seconds, _ = _timed(lambda: [
        sweep_cache_key("BASELINE", scale.sizes, scale.origins, config, seed)
        for _ in range(CODEC_LOOPS)
    ])
    facts.add("experiments.cache_key_us", 1e6 * seconds / CODEC_LOOPS)
    cache = scratch / "probe-cache"
    clear_cache()
    cached_sweep("BASELINE", scale, config=config, seed=seed, cache_dir=cache)
    for _ in range(PROBE_REPEATS):
        clear_cache()
        with tracer.span("experiments.cache_hit") as span:
            cached_sweep("BASELINE", scale, config=config, seed=seed, cache_dir=cache)
        facts.add("experiments.cache_hit_ms", 1e3 * span.duration)
    clear_cache()


# ----------------------------------------------------------------------
# The HTTP service (probed from campaign-pool-ckpt's traced run)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _api_child(runner: wl.Runner, data_dir: Path) -> Iterator[Optional[int]]:
    """A ``repro-bgp api`` child on an ephemeral port; yields the port.

    The child lives under the runner's child timeout like any other: one
    that never prints its banner is killed, the read below sees end of
    file, and None is yielded.
    """
    with runner.spawn(
        ["api", "--bind", "127.0.0.1:0", "--data-dir", str(data_dir)],
        subprocess.PIPE, {"PYTHONUNBUFFERED": "1"},
    ) as (process, _):
        try:
            banner = process.stdout.readline().decode("utf-8", "replace")
            try:
                port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            except (IndexError, ValueError):
                port = None
            yield port
        finally:
            process.send_signal(signal.SIGINT)
            with contextlib.suppress(subprocess.TimeoutExpired):
                process.wait(timeout=15)  # spawn kills what is left
            process.stdout.close()


def _request(port: int, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _api_session(tracer: stats.Tracer, facts: Facts, runner: wl.Runner, spec: bytes,
                 data_dir: Path) -> Optional[bytes]:
    """One campaign through a service child, then the warm requests.

    Returns the served ``campaign.json``; None when the child never
    announced a port.
    """
    with tracer.span("api.service"), _api_child(runner, data_dir) as port:
        facts.verify("api child announced its port", port is not None)
        if port is None:
            return None
        submitted, submitted_clock = time.perf_counter(), time.time()
        status, body = _request(port, "POST", "/campaigns", spec)
        job = json.loads(body)["id"]
        facts.verify("campaign accepted", status == 202)
        stream = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            stream.request("GET", f"/campaigns/{job}/events")
            last = None
            for raw in stream.getresponse():
                event = json.loads(raw)
                last = event["event"]
                if last == "job_started":  # stamped by the scheduler on this host's clock
                    facts.add("api.submit_to_start_ms", 1e3 * (event["time"] - submitted_clock))
        finally:
            stream.close()
        status, served = _request(port, "GET", f"/campaigns/{job}/artifacts/campaign.json")
        facts.add("api.submit_to_artifact_s", time.perf_counter() - submitted)
        facts.verify("campaign finished and served its artifact", last == "job_done" and status == 200)

        requests = (
            ("POST", "/campaigns", spec),  # deduplicated against the finished job
            ("GET", f"/campaigns/{job}", None),
            ("GET", f"/campaigns/{job}/artifacts/campaign.json", None),
        )
        latencies = facts.tails.setdefault("api.request_ms", [])
        for index in range(API_REQUESTS):
            method, path, payload = requests[index % len(requests)]
            seconds, (status, _) = _timed(lambda: _request(port, method, path, payload))
            latencies.append(1e3 * seconds)
            facts.verify(f"warm {method} {path} answered {status}", status == 200)
        return served


def _probe_api(tracer: stats.Tracer, facts: Facts, runner: wl.Runner, seed: int,
               scratch: Path, startup_s: float) -> None:
    """What the service adds to a campaign: its wall against a direct run's.

    ``startup_s`` (a ``--version`` child) is taken off the direct run,
    because the service has paid its imports before the campaign arrives.
    """
    spec = json.dumps(
        {"scale": "smoke", "seed": seed, "experiments": [API_EXPERIMENT]}
    ).encode("utf-8")
    try:
        served = _api_session(tracer, facts, runner, spec, scratch / "api-data")
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        # a service that died or was killed at the timeout: a failed operation
        facts.verify(f"api probe broke off: {exc!r}", False)
        return
    if served is None:
        return

    # the same campaign, run directly with the flags the scheduler uses
    direct = scratch / "api-direct"
    child = runner.run(
        ["campaign", "--scale", "smoke", "--seed", str(seed), "--experiment", API_EXPERIMENT,
         "--cache-dir", str(direct / "cache"), "--checkpoint-dir", str(direct / "checkpoints"),
         "-o", str(direct / "out")]
    )
    facts.counts["api.overhead_s"] = (
        stats.median(facts.samples["api.submit_to_artifact_s"]) - (child.wall_s - startup_s)
    )
    facts.verify("served artifact equals the direct run's",
                 child.returncode == 0 and (direct / "out" / "campaign.json").read_bytes() == served)


# ----------------------------------------------------------------------
# topo-generate
# ----------------------------------------------------------------------
def _topology(tracer: stats.Tracer, facts: Facts, telemetry: Telemetry, sizes: wl.Sizes,
              seed: int, scratch: Path, reference: Optional[str]) -> float:
    params = scenario_params("BASELINE", sizes.topo_nodes)
    _cold()
    untraced_s, _ = _timed(
        lambda: save_json(generate_topology(params, seed=seed), scratch / "untraced.json")
    )
    path = scratch / "topology.json"
    _cold()
    with tracer.span("replay"), telemetry_session(telemetry):
        with tracer.span("topology.generate") as span:
            graph = generate_topology(params, seed=seed)
        facts.add("topology.generate_s", span.duration)
        facts.add("topology.generate_us_per_node", 1e6 * span.duration / sizes.topo_nodes)
        with tracer.span("topology.save") as span:
            save_json(graph, path)
        facts.add("topology.save_s", span.duration)
    if reference is not None:
        facts.verify("replayed topology file matches the CLI's", _sha256(path) == reference)
    with tracer.span("topology.load") as span:
        loaded = load_json(path)
    facts.add("topology.load_s", span.duration)
    with tracer.span("topology.partition") as span:
        cut = cut_statistics(loaded, partition_graph(loaded, 2))
    facts.add("topology.partition_ms", 1e3 * span.duration)
    facts.counts["topology.cut_edge_frac"] = cut["cut_fraction"]
    return untraced_s


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
_REPLAYS = {
    "growth-serial": _growth,
    "simulate-wrate": _simulate,
    "campaign-pool-ckpt": _campaign,
    "topo-generate": _topology,
}


def trace_workload(
    workload: wl.Workload, runner: wl.Runner, sizes: wl.Sizes, expected: wl.Expected,
    *, seed: int,
) -> Tuple[Dict[str, object], List[dict]]:
    """Replay one workload traced; returns its record and its spans."""
    program_seed = expected.program_seed(seed)
    scratch = runner.scratch / f"trace-{workload.name}"
    scratch.mkdir()
    tracer = stats.Tracer(workload.name)
    facts = Facts()
    telemetry = Telemetry(meta={"workload": workload.name})
    untraced_s = _REPLAYS[workload.name](
        tracer, facts, telemetry, sizes, program_seed, scratch,
        expected.digest(sizes, program_seed, workload.name),
    )
    if "sim.events" in facts.counts:
        _kernel_metrics(tracer, facts, telemetry)
    for _ in range(PROBE_REPEATS):
        facts.add("experiments.cli_startup_ms", 1e3 * runner.run(["--version"]).wall_s)
    if workload.name == "campaign-pool-ckpt":
        startup_s = 1e-3 * stats.median(facts.samples["experiments.cli_startup_ms"])
        _probe_api(tracer, facts, runner, program_seed, scratch, startup_s)

    replay = next(span for span in tracer.spans if span.name == "replay")
    children = sum(s.duration for s in tracer.spans if s.parent == replay.span_id)
    facts.counts["obs.span_coverage"] = children / replay.duration
    facts.counts["obs.trace_overhead_ratio"] = replay.duration / untraced_s
    record = {
        "why": workload.why,
        "program_seed": program_seed,
        "attempted": facts.attempted,
        "failed": len(facts.failures),
        "failures": facts.failures,
        "metrics": facts.metrics(),
        "self_time_s": tracer.self_times(),
        "commands": list(runner.commands),
    }
    return record, [span.to_dict() for span in tracer.spans]
