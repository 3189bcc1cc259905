"""The four end-to-end workloads and the closed loop that times them.

Every timed operation is one ``python -m repro.experiments.cli …`` child,
one at a time (closed loop, one client).  The program only ever sees
generated inputs and CLI flags; the harness decides pass/fail from the
exit code, the artifact on disk and its sha256 digest.  Why these four:
one sentence each in ``BENCHMARK.json``, at length in README.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import stats
from metrics import CONTRACT

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC_DIR = REPO_ROOT / "src"

#: Hard bound on one child; a child that exceeds it is killed and counted
#: as a failed operation.  The slowest ledger operation takes ~12 s.
CHILD_TIMEOUT_S = 90.0

#: Set-up is repeated this many times per run and its median reported,
#: so one slow fork does not decide ``setup_s``.
SETUP_REPEATS = 3

#: Warm re-runs after each cold ``campaign-pool-ckpt`` execution.
WARM_RUNS = 2

#: With ``--seconds``, a workload still runs at least this many
#: repetitions: byte-identity across repetitions needs two.
MIN_REPS = 2


class HarnessError(Exception):
    """The harness itself cannot run (missing source tree, bad arguments)."""


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh scratch directory, removed on exit.

    It lives beside the benchmark (git-ignored) rather than under /tmp:
    a run reads and writes only inside the checkout it measures.
    """
    parent = HERE / ".scratch"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            parent.rmdir()


# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes of the four workloads."""

    name: str
    growth_scale: str
    growth_experiment: str
    sim_nodes: int
    sim_origins: int
    campaign_scale: str
    campaign_experiments: Tuple[str, ...]
    topo_nodes: int


#: The sizes the ledger is kept at.  Each timed child stays under ~12 s so
#: that several repetitions fit the run length ``BENCHMARK.json`` fixes;
#: README.md lists what the larger sizes of the issue's sizing runs cost.
LEDGER = Sizes(
    name="ledger",
    growth_scale="default",
    growth_experiment="fig04",
    sim_nodes=2000,
    sim_origins=6,
    campaign_scale="smoke",
    campaign_experiments=("fig07", "fig10", "fig11"),
    topo_nodes=5000,
)

#: Smoke-sized inputs for the harness's own tests (``--quick``).
QUICK = Sizes(
    name="quick",
    growth_scale="smoke",
    growth_experiment="fig07",
    sim_nodes=200,
    sim_origins=2,
    campaign_scale="smoke",
    campaign_experiments=("fig07",),
    topo_nodes=300,
)


# ----------------------------------------------------------------------
# Expected artifacts and the seed pool
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Expected:
    """``expected.json``: the vetted program seeds and their artifact digests.

    The CLI's shape checks are statistical statements about the paper's
    curves and fail for some seeds at these scales (seed 4 fails Fig. 4's
    "T grows fastest" at default scale), so ``--seed`` selects from a
    pool of program seeds on which every check passes at the commit that
    recorded the digests.
    """

    seeds: Tuple[int, ...]
    digests: Dict[str, Dict[str, str]]

    @classmethod
    def load(cls, path: Path = HERE / "expected.json") -> "Expected":
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(seeds=tuple(data["seeds"]), digests=data["digests"])

    def program_seed(self, seed: int) -> int:
        """The CLI ``--seed`` the harness seed maps to."""
        return self.seeds[seed % len(self.seeds)]

    def digest(self, sizes: Sizes, program_seed: int, workload: str) -> Optional[str]:
        """The recorded digest, or None when none was recorded for these inputs."""
        if sizes.name != LEDGER.name:
            return None
        return self.digests.get(str(program_seed), {}).get(workload)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Child:
    """What one finished child process cost."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    timed_out: bool
    output_tail: str


def _kill_session(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, 9)


class Runner:
    """Spawns CLI children with the repo's ``src`` on their path."""

    def __init__(
        self,
        scratch: Path,
        *,
        cli: Optional[Sequence[str]] = None,
        timeout_s: float = CHILD_TIMEOUT_S,
    ) -> None:
        self.scratch = scratch
        self.cli = list(cli) if cli is not None else [
            sys.executable, "-m", "repro.experiments.cli"
        ]
        self.timeout_s = timeout_s
        #: every command line run, in order (kept in the result file)
        self.commands: List[List[str]] = []
        # REPRO_* variables are side channels into the program (scale,
        # fault injection); the benchmark passes inputs as flags only.
        # Children cache bytecode as an installed CLI does, whatever the
        # caller's shell says: set-up's --version child fills the cache.
        self.env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"
        }
        previous = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + previous if previous else ""
        )
        self._log = scratch / "child.log"

    @contextlib.contextmanager
    def spawn(
        self, args: Sequence[str], stdout, extra_env: Optional[Dict[str, str]] = None
    ) -> Iterator[Tuple[subprocess.Popen, threading.Event]]:
        """A CLI child in a session of its own, under the child timeout.

        Yields the process and the event the timeout sets.  The whole
        session (the child and its pool workers) is killed at the timeout,
        and on the way out if nobody has reaped the child by then — a
        Ctrl-C does not reach a child in another session, and the scratch
        directory is about to be deleted under it.
        """
        argv = self.cli + [str(arg) for arg in args]
        self.commands.append(argv)
        process = subprocess.Popen(
            argv,
            env={**self.env, **(extra_env or {})},
            cwd=self.scratch,
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            _kill_session(process.pid)

        timer = threading.Timer(self.timeout_s, kill)
        timer.start()
        try:
            yield process, timed_out
        finally:
            timer.cancel()
            if process.returncode is None:
                _kill_session(process.pid)
                process.wait()
            elif timed_out.is_set():
                _kill_session(process.pid)  # it may still hold orphaned pool workers

    def run(self, args: Sequence[str]) -> Child:
        """Run one CLI child to completion and account for it."""
        with open(self._log, "wb") as log:
            started = time.perf_counter()
            with self.spawn(args, log) as (process, timed_out):
                # wait4 hands back this child's own rusage (with the pool
                # workers it reaped), which RUSAGE_CHILDREN cannot split.
                _, status, usage = os.wait4(process.pid, 0)
                wall = time.perf_counter() - started
                process.returncode = os.waitstatus_to_exitcode(status)
        tail = self._log.read_bytes()[-2000:].decode("utf-8", "replace")
        return Child(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            returncode=process.returncode,
            timed_out=timed_out.is_set(),
            output_tail=tail,
        )


# ----------------------------------------------------------------------
# Artifact checks
# ----------------------------------------------------------------------
def check_campaign(data: bytes, sizes: Sizes) -> Optional[str]:
    """``campaign.json`` parses and every experiment check is PASS."""
    results = json.loads(data)
    if not isinstance(results, list) or not results:
        return "campaign.json holds no results"
    for result in results:
        for check in result["checks"]:
            if not check["passed"]:
                return f"{result['experiment_id']}: check {check['name']!r} not PASS"
    return None


def check_churn(data: bytes, sizes: Sizes) -> Optional[str]:
    """The churn artifact covers the requested C-events on the right network."""
    churn = json.loads(data)
    if churn["n"] != sizes.sim_nodes or len(churn["origins"]) != sizes.sim_origins:
        return f"churn artifact is for n={churn['n']}, {len(churn['origins'])} origins"
    if not churn["wrate"] or churn["measured_messages"] <= 0:
        return "churn artifact is not a WRATE measurement"
    return None


def check_topology(data: bytes, sizes: Sizes) -> Optional[str]:
    """The topology file holds the requested number of ASes."""
    topology = json.loads(data)
    if len(topology["nodes"]) != sizes.topo_nodes:
        return f"topology has {len(topology['nodes'])} nodes"
    return None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Operation:
    """One timed CLI invocation of a repetition."""

    kind: str  # "cold" or "warm"
    args: List[str]
    artifact: Path


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named set of inputs plus how to run and check it."""

    name: str
    unit: str
    #: fixed work units of one cold operation
    work_units: Callable[[Sizes], int]
    #: the operations of one repetition, in order
    plan: Callable[[Sizes, int, Dict[str, Path], Path], List[Operation]]
    check: Callable[[bytes, Sizes], Optional[str]]
    #: untimed preparation beyond the bytecode warm-up; returns state for ``plan``
    prepare: Callable[[Runner, Sizes, int, Path], Dict[str, Path]] = (
        lambda runner, sizes, seed, directory: {}
    )

    @property
    def why(self) -> str:
        """The one-line reason, as ``BENCHMARK.json`` gives it."""
        return next(row["why"] for row in CONTRACT["workloads"] if row["name"] == self.name)


def _growth_units(sizes: Sizes) -> int:
    from repro.experiments.scale import get_scale

    scale = get_scale(sizes.growth_scale)
    return len(scale.sizes) * scale.origins


def _growth_plan(sizes: Sizes, seed: int, state: Dict[str, Path], rep: Path) -> List[Operation]:
    out = rep / "out"
    return [
        Operation(
            "cold",
            ["campaign", "--scale", sizes.growth_scale, "--experiment",
             sizes.growth_experiment, "--seed", str(seed), "-o", str(out)],
            out / "campaign.json",
        )
    ]


def _sim_prepare(runner: Runner, sizes: Sizes, seed: int, directory: Path) -> Dict[str, Path]:
    topology = directory / "topology.json"
    child = runner.run(
        ["topology", "generate", "-n", str(sizes.sim_nodes), "--seed", str(seed),
         "-o", str(topology)]
    )
    if child.returncode != 0 or not topology.exists():
        raise HarnessError(f"set-up could not write {topology}:\n{child.output_tail}")
    return {"topology": topology}


def _sim_plan(sizes: Sizes, seed: int, state: Dict[str, Path], rep: Path) -> List[Operation]:
    churn = rep / "churn.json"
    return [
        Operation(
            "cold",
            ["simulate", str(state["topology"]), "--origins", str(sizes.sim_origins),
             "--wrate", "--seed", str(seed), "--churn-json", str(churn)],
            churn,
        )
    ]


def _campaign_plan(sizes: Sizes, seed: int, state: Dict[str, Path], rep: Path) -> List[Operation]:
    args = ["campaign", "--scale", sizes.campaign_scale, "--seed", str(seed),
            "--jobs", "2", "--cache-dir", str(rep / "cache"),
            "--checkpoint-dir", str(rep / "checkpoints"), "-o", str(rep / "out")]
    for experiment in sizes.campaign_experiments:
        args += ["--experiment", experiment]
    artifact = rep / "out" / "campaign.json"
    return [Operation("cold", args, artifact)] + [
        Operation("warm", args, artifact) for _ in range(WARM_RUNS)
    ]


def _topo_plan(sizes: Sizes, seed: int, state: Dict[str, Path], rep: Path) -> List[Operation]:
    topology = rep / "topology.json"
    return [
        Operation(
            "cold",
            ["topology", "generate", "-n", str(sizes.topo_nodes), "--seed", str(seed),
             "-o", str(topology)],
            topology,
        )
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="growth-serial",
            unit="C-events",
            work_units=_growth_units,
            plan=_growth_plan,
            check=check_campaign,
        ),
        Workload(
            name="simulate-wrate",
            unit="C-events",
            work_units=lambda sizes: sizes.sim_origins,
            prepare=_sim_prepare,
            plan=_sim_plan,
            check=check_churn,
        ),
        Workload(
            name="campaign-pool-ckpt",
            unit="experiments",
            work_units=lambda sizes: len(sizes.campaign_experiments),
            plan=_campaign_plan,
            check=check_campaign,
        ),
        Workload(
            name="topo-generate",
            unit="nodes",
            work_units=lambda sizes: sizes.topo_nodes,
            plan=_topo_plan,
            check=check_topology,
        ),
    )
}


# ----------------------------------------------------------------------
# The timed loop
# ----------------------------------------------------------------------
def judge(
    workload: Workload,
    sizes: Sizes,
    operation: Operation,
    child: Child,
    reference: Optional[str],
) -> Tuple[Optional[str], Optional[str]]:
    """``(error, digest)`` of one finished operation; error None = passed."""
    if child.timed_out:
        return f"timed out after {child.wall_s:.0f}s", None
    if child.returncode != 0:
        return f"exit code {child.returncode}: {child.output_tail[-300:]}", None
    try:
        data = operation.artifact.read_bytes()
    except OSError as exc:
        return f"artifact missing: {exc}", None
    digest = hashlib.sha256(data).hexdigest()
    try:
        error = workload.check(data, sizes)
    except (ValueError, KeyError, TypeError) as exc:
        return f"artifact unparseable: {exc!r}", digest
    if error is None and reference is not None and digest != reference:
        error = f"artifact digest {digest[:12]} != expected {reference[:12]}"
    return error, digest


def _leftover_checkpoints(rep: Path) -> Optional[str]:
    """A clean checkpointed run leaves its checkpoint directory empty."""
    directory = rep / "checkpoints"
    if not directory.exists():
        return None
    left = sorted(path.name for path in directory.rglob("*") if path.is_file())
    return f"checkpoint dir not empty: {left[:3]}" if left else None


def measure(
    workload: Workload,
    runner: Runner,
    sizes: Sizes,
    expected: Expected,
    *,
    seed: int,
    reps: Optional[int],
    seconds: Optional[float],
    setup_repeats: int = SETUP_REPEATS,
) -> Dict[str, object]:
    """Set up, run and check one workload; returns its result record.

    ``reps`` runs exactly that many repetitions; ``seconds`` instead
    repeats until that much time has been measured (at least
    :data:`MIN_REPS` repetitions).
    """
    program_seed = expected.program_seed(seed)
    root = runner.scratch / workload.name
    first_command = len(runner.commands)

    setup_times: List[float] = []
    state: Dict[str, Path] = {}
    for index in range(setup_repeats):
        started = time.perf_counter()
        directory = root / f"setup{index}"
        directory.mkdir(parents=True)
        warm = runner.run(["--version"])  # compiles bytecode on a fresh checkout
        if warm.returncode != 0:
            raise HarnessError(f"the CLI does not start:\n{warm.output_tail}")
        state = workload.prepare(runner, sizes, program_seed, directory)
        setup_times.append(time.perf_counter() - started)

    # Without a recorded digest the first artifact is the reference: every
    # later repetition (and every warm re-run) must reproduce it exactly.
    reference = expected.digest(sizes, program_seed, workload.name)
    units = workload.work_units(sizes)
    samples: Dict[str, List[float]] = {
        "wall_s": [], "work_per_s": [], "warm_wall_s": [], "peak_rss_mb": [], "proc.cpu_s": []
    }
    failures: List[str] = []
    attempted = 0
    measuring_since = time.perf_counter()

    def more(done: int) -> bool:
        if reps is not None:
            return done < reps
        return done < MIN_REPS or time.perf_counter() - measuring_since < seconds

    rep_index = 0
    while more(rep_index):
        rep = root / f"rep{rep_index}"
        rep.mkdir(parents=True)
        rss = cpu = 0.0
        for operation in workload.plan(sizes, program_seed, state, rep):
            child = runner.run(operation.args)
            attempted += 1
            error, digest = judge(workload, sizes, operation, child, reference)
            error = error or _leftover_checkpoints(rep)
            if error is not None:
                failures.append(f"rep {rep_index} {operation.kind}: {error}")
                continue
            reference = reference or digest
            rss = max(rss, child.rss_mb)
            cpu += child.cpu_s
            if operation.kind == "cold":
                samples["wall_s"].append(child.wall_s)
                samples["work_per_s"].append(units / child.wall_s)
            else:
                samples["warm_wall_s"].append(child.wall_s)
        if rss:
            samples["peak_rss_mb"].append(rss)
            samples["proc.cpu_s"].append(cpu)
        rep_index += 1

    samples["setup_s"] = setup_times
    metrics = {
        name: {"median": stats.median(values), "values": values, "n": len(values)}
        for name, values in samples.items()
        if values
    }
    metrics["failed_frac"] = {
        "median": len(failures) / attempted, "values": [len(failures) / attempted], "n": 1
    }
    return {
        "why": workload.why,
        "work_units": units,
        "work_unit": workload.unit,
        "program_seed": program_seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "commands": runner.commands[first_command:],
    }
