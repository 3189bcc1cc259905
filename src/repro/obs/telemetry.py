"""The telemetry hub: named counters, phase timers and gauges.

The paper's argument rests on *measured* rates — churn at monitors,
processor busy time, queue occupancy (Sec. 1, Fig. 2) — and the same
standard applies to the simulator itself: a run should be able to report
how many events it executed, at what rate, and where the wall-clock time
went.  This module is the collection point.  One :class:`Telemetry`
object gathers:

* from the **engine**, events executed and run wall-clock
  (:meth:`Telemetry.on_engine_run`), from which events/sec falls out;
* from the **kernel** — network, nodes, MRAI output channels — the
  :class:`KernelCounts` of every network built under it: deliveries and
  in-flight drops, processed updates by sender relationship and kind,
  decision runs, MRAI sends, out-queue invalidations and timer wakeups;
* from experiment drivers, :meth:`Telemetry.phase` timers
  ("topology-gen", "warmup", "measured", "analysis"), which also snapshot
  the engine's event counter for a per-phase events/sec, and coarse
  :meth:`Telemetry.inc` / :meth:`Telemetry.set_gauge` calls (a checkpoint
  written, a partition window closed).

Overhead contract
-----------------
**The kernel runs the same code whether or not a hub is listening.**
Nothing on the per-message path calls into this module: a network owns
one :class:`KernelCounts` record, its nodes and channels add to plain
integer slots where the work happens, and a live hub holds a reference to
the record and folds it into :attr:`Telemetry.counters` /
:attr:`Telemetry.gauges` when somebody *reads* them — the way event counts
have always been sampled from ``Engine.executed_events`` at ``run()`` and
phase boundaries.  So a run under a live hub (every ``campaign -o``,
``profile`` and ``repro.dist`` worker) costs what a run under
:data:`NULL_TELEMETRY` costs, and the only price of observability is a
handful of integer additions per message that are paid either way.

``inc`` / ``set_gauge`` / ``phase`` remain for coarse events — per run,
per phase, per checkpoint — and are no-ops on the null sink.  They do
not belong on a per-message path: one Python call per event is a tenth
of the kernel's whole budget.

Enabling is explicit and scoped: :func:`telemetry_session` installs a hub
as the ambient sink of the calling thread (a :mod:`contextvars` variable,
so two campaigns in two threads never see each other's hub);
:class:`~repro.sim.network.SimNetwork` objects built inside the session
take their counts record from it.  Counters measured in another process
— a pool or ``repro.dist`` worker running a sweep unit under a hub of its
own — come back as a plain dict and are folded in with
:meth:`Telemetry.absorb`.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Dict, Iterator, List, Optional


#: Slots of :attr:`KernelCounts.updates_from`: the ``Relationship`` values
#: in declaration order, which is also the counter-name suffix.
RELATIONSHIP_SLOTS = ("customer", "peer", "provider")


class KernelCounts:
    """What one network's kernel did, as plain integers.

    One record per :class:`~repro.sim.network.SimNetwork`, shared by its
    nodes and output channels, which add to the slots inline.  Process
    local like the hub totals it feeds: a checkpoint does not carry it,
    so a resumed run counts from the resume on.
    """

    __slots__ = (
        "deliveries",
        "delivery_withdrawals",
        "drops",
        "updates_from",
        "update_withdrawals",
        "decision_runs",
        "sends",
        "send_withdrawals",
        "invalidations",
        "wakeups",
        "prefix_gates",
    )

    def __init__(self) -> None:
        self.deliveries = 0
        self.delivery_withdrawals = 0
        #: in-flight messages dropped on a failed link
        self.drops = 0
        #: updates processed, per sender relationship (RELATIONSHIP_SLOTS)
        self.updates_from = [0, 0, 0]
        self.update_withdrawals = 0
        self.decision_runs = 0
        self.sends = 0
        self.send_withdrawals = 0
        #: queued updates replaced by a newer one before sending
        self.invalidations = 0
        self.wakeups = 0
        #: High-water mark of live per-prefix gates on one channel after
        #: a wakeup's pruning: under PER_PREFIX MRAI the gate dict is the
        #: per-session state whose growth the pruning bounds, so the
        #: interesting number is the worst case seen, not the last sample.
        self.prefix_gates = 0

    def counters(self) -> Dict[str, int]:
        """The counts under their hub counter names; zero ones left out
        (a hub counter exists from its first increment)."""
        updates = sum(self.updates_from)
        named = {
            "network.deliveries": self.deliveries,
            "network.deliveries.withdrawals": self.delivery_withdrawals,
            "network.drops": self.drops,
            "node.updates": updates,
            "node.updates.withdrawals": self.update_withdrawals,
            "node.updates.announcements": updates - self.update_withdrawals,
            "node.decision_runs": self.decision_runs,
            "mrai.sends": self.sends,
            "mrai.sends.withdrawals": self.send_withdrawals,
            "mrai.invalidations": self.invalidations,
            "mrai.wakeups": self.wakeups,
        }
        for slot, count in zip(RELATIONSHIP_SLOTS, self.updates_from):
            named[f"node.updates.from_{slot}"] = count
        return {name: value for name, value in named.items() if value}


class _NullPhase:
    """Context manager that does nothing (shared singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_PHASE = _NullPhase()


class NullTelemetry:
    """The disabled sink: every hook is a no-op.

    Stateless and shared (:data:`NULL_TELEMETRY`); drivers call its
    methods unconditionally, so the enabled/disabled decision is made
    once at wiring time.
    """

    __slots__ = ()

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        """No-op."""

    def set_gauge(self, name: str, value: float) -> None:
        """No-op."""

    def on_engine_run(self, events: int, seconds: float) -> None:
        """No-op."""

    def new_counts(self) -> "KernelCounts":
        """A fresh kernel record that nobody will read through this sink."""
        return KernelCounts()

    def absorb(self, counters: object) -> None:
        """No-op."""

    def phase(self, name: str, engine: Optional[object] = None) -> _NullPhase:
        """No-op timer (a shared null context manager)."""
        return _NULL_PHASE


#: The process-wide disabled sink. Components default to this object.
NULL_TELEMETRY = NullTelemetry()


class _Phase:
    """One timed stage; accumulates into the owning hub on exit."""

    __slots__ = ("_telemetry", "_name", "_engine", "_started", "_events_before")

    def __init__(
        self, telemetry: "Telemetry", name: str, engine: Optional[object]
    ) -> None:
        self._telemetry = telemetry
        self._name = name
        self._engine = engine
        self._started = 0.0
        self._events_before = 0

    def __enter__(self) -> "_Phase":
        self._started = time.perf_counter()
        if self._engine is not None:
            self._events_before = self._engine.executed_events
        return self

    def __exit__(self, *exc: object) -> bool:
        elapsed = time.perf_counter() - self._started
        events = (
            self._engine.executed_events - self._events_before
            if self._engine is not None
            else 0
        )
        self._telemetry.record_phase(self._name, elapsed, events)
        return False


class Telemetry:
    """A live telemetry hub.

    Counters are monotonic named integers; gauges are last-write-wins
    floats; phases accumulate wall-clock seconds (and, when an engine is
    passed to :meth:`phase`, executed-event deltas) under a name.  The
    whole state is exportable as a plain dict (:meth:`snapshot`) and as a
    JSONL run log (:func:`repro.obs.runlog.write_telemetry_jsonl`).
    """

    enabled = True

    def __init__(self, meta: Optional[Dict[str, object]] = None) -> None:
        self.meta: Dict[str, object] = dict(meta or {})
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        #: kernel records of every network built under this hub
        self._kernel: List[KernelCounts] = []
        self.phase_seconds: Dict[str, float] = {}
        self.phase_events: Dict[str, int] = {}
        self.engine_events = 0
        self.engine_seconds = 0.0
        self.created = time.time()
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    # Generic instruments
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        self._gauges[name] = value

    def new_counts(self) -> KernelCounts:
        """A fresh kernel record, read into :attr:`counters` / :attr:`gauges`
        from now on."""
        counts = KernelCounts()
        self._kernel.append(counts)
        return counts

    def absorb(self, counters: object) -> None:
        """Add another hub's :attr:`counters` — a sweep unit's, measured in
        the worker process that ran it — to this one's, name by name.

        The dict may come off the wire, so anything but ``str`` → ``int``
        entries is ignored.
        """
        if not isinstance(counters, dict):
            return
        for name, value in counters.items():
            if isinstance(name, str) and type(value) is int:
                self.inc(name, value)

    def phase(self, name: str, engine: Optional[object] = None) -> _Phase:
        """Time a stage: ``with telemetry.phase("warmup", engine=e): ...``.

        Re-entering the same name accumulates; ``engine`` (anything with
        an ``executed_events`` attribute) adds a per-phase event count.
        """
        return _Phase(self, name, engine)

    def record_phase(self, name: str, seconds: float, events: int = 0) -> None:
        """Accumulate one completed stage (the :meth:`phase` exit path)."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.phase_events[name] = self.phase_events.get(name, 0) + events

    # ------------------------------------------------------------------
    # Component hooks
    # ------------------------------------------------------------------
    def on_engine_run(self, events: int, seconds: float) -> None:
        """One ``Engine.run`` call finished: ``events`` in ``seconds``."""
        self.engine_events += events
        self.engine_seconds += seconds

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, int]:
        """Every counter as of now: ``inc`` totals plus the kernel counts."""
        merged = dict(self._counters)
        for record in self._kernel:
            for name, value in record.counters().items():
                merged[name] = merged.get(name, 0) + value
        return merged

    @property
    def gauges(self) -> Dict[str, float]:
        """Every gauge as of now (``mrai.prefix_gates`` is a high-water mark)."""
        merged = dict(self._gauges)
        high_water = max((record.prefix_gates for record in self._kernel), default=0)
        if high_water > merged.get("mrai.prefix_gates", 0.0):
            merged["mrai.prefix_gates"] = float(high_water)
        return merged

    @property
    def wall_clock_seconds(self) -> float:
        """Seconds since this hub was created."""
        return time.perf_counter() - self._started

    @property
    def events_per_sec(self) -> float:
        """Aggregate engine throughput across all instrumented runs."""
        if self.engine_seconds <= 0:
            return 0.0
        return self.engine_events / self.engine_seconds

    def phases(self) -> List[Dict[str, object]]:
        """Per-phase breakdown rows, in first-recorded order."""
        rows = []
        for name, seconds in self.phase_seconds.items():
            events = self.phase_events.get(name, 0)
            rows.append(
                {
                    "name": name,
                    "seconds": seconds,
                    "events": events,
                    "events_per_sec": (events / seconds) if seconds > 0 else 0.0,
                }
            )
        return rows

    def snapshot(self) -> Dict[str, object]:
        """The full state as JSON-ready primitives."""
        return {
            "meta": dict(self.meta),
            "phases": self.phases(),
            "counters": self.counters,
            "gauges": self.gauges,
            "summary": {
                "wall_clock_seconds": self.wall_clock_seconds,
                "engine_events": self.engine_events,
                "engine_run_seconds": self.engine_seconds,
                "events_per_sec": self.events_per_sec,
            },
        }


# ----------------------------------------------------------------------
# Ambient telemetry
# ----------------------------------------------------------------------
_CURRENT: "contextvars.ContextVar[NullTelemetry | Telemetry]" = contextvars.ContextVar(
    "repro_telemetry", default=NULL_TELEMETRY
)


def current_telemetry() -> "NullTelemetry | Telemetry":
    """The ambient sink new networks and experiment drivers report into.

    :data:`NULL_TELEMETRY` unless a :func:`telemetry_session` is active in
    the calling thread (a new thread starts without one).
    """
    return _CURRENT.get()


@contextlib.contextmanager
def telemetry_session(
    telemetry: Optional[Telemetry] = None,
) -> Iterator[Telemetry]:
    """Install ``telemetry`` (a fresh hub if None) as the ambient sink.

    Sessions nest; the previous sink is restored on exit.  The session
    belongs to the calling thread: other threads keep their own sink, so
    a thread that must report into this hub is handed it explicitly.
    Objects built *inside* the session keep their reference, so a network
    outliving the session keeps reporting into the same hub — by design,
    a hub is per-run state, not a global registry.
    """
    hub = telemetry if telemetry is not None else Telemetry()
    token = _CURRENT.set(hub)
    try:
        yield hub
    finally:
        _CURRENT.reset(token)
