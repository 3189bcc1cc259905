"""Deterministic discrete-event engine.

A minimal heap-based kernel: events are ``[time, sequence, callback]``
entries, executed in time order with FIFO tie-breaking (the monotonically
increasing sequence number), which makes runs bit-reproducible for a fixed
seed regardless of hash randomization.

The engine exposes both relative (:meth:`schedule`) and absolute
(:meth:`schedule_at`) scheduling, plus a run loop with an event budget that
turns runaway simulations into a :class:`~repro.errors.ConvergenceError`
instead of a hang.

Cancellation
------------

Heap entries are mutable lists precisely so a scheduled event can be
*cancelled in O(1)*: :meth:`schedule`/:meth:`schedule_at` return the entry
as an opaque handle, and :meth:`cancel` nulls its callback slot in place
(the classic "mark invalid" heapq pattern — removing from the middle of a
heap would be O(n)).  Cancelled entries stay in the heap but are silently
discarded when they surface in :meth:`step`: they do not advance the
clock, do not count as executed, and are excluded from
:attr:`pending_events` and :meth:`dump_pending`.  This is what lets the
BGP layer drop superseded MRAI wakeups / damping reuse checks instead of
letting no-op callbacks pile up and churn the heap.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import ConvergenceError, SimulationError
from repro.obs.telemetry import NULL_TELEMETRY

Callback = Callable[[], None]

#: An event entry: ``[time, sequence, callback]`` where ``callback`` is
#: set to None when the event has been cancelled.  Mutable on purpose —
#: see the module docstring.
EventHandle = list

#: Default safety budget: more events than any sane C-event needs.
DEFAULT_MAX_EVENTS = 50_000_000


class Engine:
    """Single-threaded discrete-event simulator core."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[EventHandle] = []
        self._next_sequence = 0
        self.executed_events = 0
        #: Cancelled entries still sitting in the heap (bookkeeping for
        #: :attr:`pending_events`).
        self._cancelled = 0
        #: Cumulative count of cancellations over the engine's lifetime
        #: (observability: how much work the supersession logic saved).
        self.cancelled_events = 0
        #: Observability sink (null object by default).  The per-event
        #: loop is deliberately uninstrumented — event counts come from
        #: ``executed_events`` snapshots at :meth:`run` boundaries, so a
        #: disabled sink costs one attribute check per ``run()`` call,
        #: nothing per event.
        self.telemetry = NULL_TELEMETRY

    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Run ``callback`` ``delay`` seconds from now; returns a handle.

        The handle is opaque; pass it to :meth:`cancel` to drop the event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        sequence = self._next_sequence
        entry: EventHandle = [self.now + delay, sequence, callback]
        heappush(self._queue, entry)
        self._next_sequence = sequence + 1
        return entry

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Run ``callback`` at absolute simulation time ``time``; returns a handle."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (at={time}, now={self.now})"
            )
        sequence = self._next_sequence
        entry: EventHandle = [time, sequence, callback]
        heappush(self._queue, entry)
        self._next_sequence = sequence + 1
        return entry

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event in O(1).

        Idempotent; cancelling an event that already executed is a no-op
        (its entry has left the heap, nulling it changes nothing).
        """
        if handle[2] is not None:
            handle[2] = None
            self._cancelled += 1
            self.cancelled_events += 1

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled

    def peek_next_time(self) -> Optional[float]:
        """Time of the earliest live event, or None when the queue is idle.

        Dead (cancelled) heap heads are discarded on the way — the same
        lazy-deletion walk :meth:`step` performs — so the answer is the
        time :meth:`step` would execute next.  This is the window-barrier
        primitive of the partitioned execution mode: a lockstep runner
        peeks every member engine to pick the next conservative window
        start without executing anything.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2] is None:
                heappop(queue)
                self._cancelled -= 1
                continue
            return head[0]
        return None

    def run_events_until(self, until: float) -> int:
        """Execute every live event with time <= ``until``; returns the count.

        Unlike :meth:`run`, the clock is **not** advanced to the horizon
        when the queue drains early: ``now`` stays at the last executed
        event, exactly as a serial run-to-convergence would leave it.
        The partitioned kernel uses this as the in-window execution step,
        so phase convergence times match the serial kernel bit-for-bit.
        """
        executed = 0
        while True:
            head_time = self.peek_next_time()
            if head_time is None or head_time > until:
                return executed
            self.step()
            executed += 1

    @property
    def next_sequence(self) -> int:
        """The FIFO tie-break value the next scheduled event will receive.

        Part of the engine's checkpointable state: restoring it guarantees
        that events scheduled after a restore tie-break exactly as they
        would have in the uninterrupted run.
        """
        return self._next_sequence

    def dump_pending(self) -> List[Tuple[float, int, Callback]]:
        """The live queued events as ``(time, sequence, callback)`` tuples.

        Cancelled entries are omitted — a checkpoint holds only events
        that will actually execute, so a restored run and the reference
        run see identical queues.  The list is a copy in unspecified
        internal (heap) order; the ``(time, sequence)`` pairs form a total
        order, so re-heapifying the entries reproduces the exact execution
        order.
        """
        return [
            (entry[0], entry[1], entry[2])
            for entry in self._queue
            if entry[2] is not None
        ]

    def restore_state(
        self,
        *,
        now: float,
        next_sequence: int,
        executed_events: int,
        pending: List,
        cancelled_events: int = 0,
    ) -> None:
        """Install a previously captured engine state (checkpoint restore).

        ``pending`` entries may arrive in any order; they are re-heapified.
        List entries are adopted *by identity* (so callers can keep them as
        live cancellation handles — the checkpoint layer hands them back to
        the nodes); tuples are converted.  The caller is responsible for
        rebinding callbacks to live objects.
        """
        for time, sequence, _callback in pending:
            if time < now:
                raise SimulationError(
                    f"pending event at t={time} predates restored clock {now}"
                )
            if sequence >= next_sequence:
                raise SimulationError(
                    f"pending event sequence {sequence} >= next_sequence "
                    f"{next_sequence}"
                )
        self._queue = [
            entry if isinstance(entry, list) else list(entry) for entry in pending
        ]
        heapify(self._queue)
        self.now = now
        self._next_sequence = next_sequence
        self.executed_events = executed_events
        self.cancelled_events = cancelled_events
        self._cancelled = 0

    def step(self) -> bool:
        """Execute the next live event; returns False when none remain.

        Cancelled entries surfacing at the heap top are discarded without
        advancing the clock or counting as executed.
        """
        queue = self._queue
        while queue:
            entry = heappop(queue)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            self.now = entry[0]
            self.executed_events += 1
            callback()
            return True
        return False

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        """Drain the event queue.

        ``until`` stops the clock at a given simulation time (remaining
        events stay queued); ``max_events`` bounds the number of events
        executed by *this call* and raises
        :class:`~repro.errors.ConvergenceError` when exhausted.

        A horizon in the past is clamped to the present: the clock never
        moves backwards, so relative scheduling stays consistent across
        repeated ``run(until=...)`` calls.
        """
        if self.telemetry.enabled:
            before = self.executed_events
            started = time.perf_counter()
            try:
                self._drain(until=until, max_events=max_events)
            finally:
                self.telemetry.on_engine_run(
                    self.executed_events - before, time.perf_counter() - started
                )
            return
        self._drain(until=until, max_events=max_events)

    def _drain(
        self,
        *,
        until: Optional[float],
        max_events: int,
    ) -> None:
        """The :meth:`run` loop body (uninstrumented).

        Pops and dispatches inline — the same per-event semantics as
        :meth:`step` (a dead entry is discarded without advancing the
        clock, counting as executed or charging the budget), held to it
        by the parity test in ``tests/sim/test_engine.py``.
        """
        if until is not None:
            until = max(until, self.now)
        remaining = max_events
        queue = self._queue
        while queue:
            head = queue[0]
            callback = head[2]
            if callback is None:
                heappop(queue)
                self._cancelled -= 1
                continue
            if until is not None and head[0] > until:
                self.now = until
                return
            if remaining <= 0:
                raise ConvergenceError(
                    f"event budget of {max_events} exhausted at t={self.now:.3f}s "
                    f"with {self.pending_events} events still pending"
                )
            remaining -= 1
            heappop(queue)
            self.now = head[0]
            self.executed_events += 1
            callback()
        if until is not None and until > self.now:
            # Queue drained before the horizon: advance the clock to it, so
            # callers can use run(until=...) to let timers expire / settle.
            self.now = until

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Also restarts the FIFO tie-break counter so a reset engine
        schedules events in exactly the same order as a freshly built one
        (the bit-reproducibility guarantee from the module docstring).
        """
        self._queue.clear()
        self.now = 0.0
        self._next_sequence = 0
        self.executed_events = 0
        self._cancelled = 0
        self.cancelled_events = 0
