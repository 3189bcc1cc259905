"""Tests for the discrete-event engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError, SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_fifo_tie_break(self):
        engine = Engine()
        order = []
        for label in "abc":
            engine.schedule(1.0, lambda lbl=label: order.append(lbl))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_schedule_at_absolute(self):
        engine = Engine()
        seen = []
        engine.schedule_at(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_past_absolute_time_rejected(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        engine = Engine()
        seen = []

        def first():
            seen.append(engine.now)
            engine.schedule(1.0, lambda: seen.append(engine.now))

        engine.schedule(1.0, first)
        engine.run()
        assert seen == [1.0, 2.0]


class TestRunControl:
    def test_run_until_pauses(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(1))
        engine.schedule(5.0, lambda: seen.append(5))
        engine.run(until=2.0)
        assert seen == [1]
        assert engine.now == 2.0
        assert engine.pending_events == 1
        engine.run()
        assert seen == [1, 5]

    def test_run_until_advances_clock_on_empty_queue(self):
        """run(until=...) with nothing queued acts as a settle period."""
        engine = Engine()
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_event_budget(self):
        engine = Engine()

        def rescheduling():
            engine.schedule(1.0, rescheduling)

        engine.schedule(1.0, rescheduling)
        with pytest.raises(ConvergenceError, match="budget"):
            engine.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_executed_events_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.executed_events == 5

    def test_reset(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        engine.schedule(9.0, lambda: None)
        engine.reset()
        assert engine.now == 0.0
        assert engine.pending_events == 0
        assert engine.executed_events == 0

    def test_run_until_past_never_rewinds_clock(self):
        """Regression: run(until=t) with t < now must not move time backwards."""
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        assert engine.now == 5.0
        engine.run(until=1.0)
        assert engine.now == 5.0
        # Relative scheduling after the no-op run still works from t=5.
        seen = []
        engine.schedule(1.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [6.0]

    def test_run_until_past_with_pending_events(self):
        """A past horizon executes nothing and leaves the queue intact."""
        engine = Engine()
        engine.schedule(2.0, lambda: None)
        engine.run()
        engine.schedule(3.0, lambda: None)  # fires at t=5
        engine.run(until=1.0)
        assert engine.now == 2.0
        assert engine.pending_events == 1
        engine.run()
        assert engine.now == 5.0

    def test_reset_restores_tie_break_order(self):
        """Regression: reset() must restart the FIFO sequence counter.

        A reset engine has to schedule same-time events in exactly the
        order a fresh engine would (the bit-reproducibility guarantee).
        """

        def event_order(engine):
            order = []
            for label in "abcde":
                engine.schedule(1.0, lambda lbl=label: order.append(lbl))
            engine.run()
            return order

        fresh = Engine()
        used = Engine()
        event_order(used)  # consume some sequence numbers
        used.reset()
        assert event_order(used) == event_order(fresh)

    def test_reset_sequence_counter_restarts(self):
        engine = Engine()
        for _ in range(3):
            engine.schedule(1.0, lambda: None)
        engine.run()
        engine.reset()
        engine.schedule(1.0, lambda: None)
        assert engine._queue[0][1] == 0

    def test_reset_restores_all_checkpointable_state(self):
        """reset() must zero the full state inventory a checkpoint covers.

        The engine's checkpointable state is exactly: the clock, the
        pending-event heap, the FIFO sequence counter, and the
        executed-event count.  A reset engine must be indistinguishable
        from a fresh one on every one of them — if a new field joins the
        checkpoint payload, this inventory (and reset()) must grow too.
        """
        fresh = Engine()
        used = Engine()
        for delay in (1.0, 1.0, 3.0):
            used.schedule(delay, lambda: None)
        used.step()
        used.schedule_at(7.5, lambda: None)  # leave events pending
        assert used.pending_events > 0 and used.now > 0.0

        used.reset()
        assert used.now == fresh.now == 0.0
        assert used.dump_pending() == fresh.dump_pending() == []
        assert used.next_sequence == fresh.next_sequence == 0
        assert used.executed_events == fresh.executed_events == 0


class TestCancellation:
    def test_cancelled_event_never_runs(self):
        engine = Engine()
        seen = []
        handle = engine.schedule(1.0, lambda: seen.append("cancelled"))
        engine.schedule(2.0, lambda: seen.append("kept"))
        engine.cancel(handle)
        engine.run()
        assert seen == ["kept"]
        assert engine.executed_events == 1
        assert engine.cancelled_events == 1

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.cancel(handle)
        engine.cancel(handle)
        assert engine.pending_events == 0
        assert engine.cancelled_events == 1
        engine.run()
        assert engine.executed_events == 0

    def test_pending_events_excludes_cancelled(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert engine.pending_events == 5
        engine.cancel(handles[0])
        engine.cancel(handles[3])
        assert engine.pending_events == 3

    def test_dump_pending_excludes_cancelled(self):
        engine = Engine()
        keep = lambda: None  # noqa: E731
        drop = lambda: None  # noqa: E731
        engine.schedule(1.0, keep)
        handle = engine.schedule(2.0, drop)
        engine.cancel(handle)
        dumped = engine.dump_pending()
        assert [callback for _, _, callback in dumped] == [keep]

    def test_cancelled_head_does_not_advance_clock(self):
        """Discarding a dead heap head is bookkeeping, not simulation:
        neither the clock nor executed_events may move."""
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(5.0, lambda: None)
        engine.cancel(handle)
        assert engine.step() is True
        assert engine.now == 5.0
        assert engine.executed_events == 1

    def test_step_returns_false_when_only_cancelled_remain(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.cancel(handle)
        assert engine.step() is False
        assert engine.now == 0.0

    def test_cancelled_events_do_not_count_against_budget(self):
        engine = Engine()
        for i in range(50):
            handle = engine.schedule(float(i + 1), lambda: None)
            engine.cancel(handle)
        engine.schedule(100.0, lambda: None)
        engine.run(max_events=1)  # only the live event should be charged
        assert engine.executed_events == 1

    def test_reset_clears_cancellation_counters(self):
        engine = Engine()
        engine.cancel(engine.schedule(1.0, lambda: None))
        engine.reset()
        assert engine.cancelled_events == 0
        assert engine.pending_events == 0

    def test_restore_state_adopts_list_entries_by_identity(self):
        """Restoring from list entries must keep them live handles:
        cancelling the original entry cancels the restored event."""
        engine = Engine()
        seen = []
        entry = [3.0, 0, lambda: seen.append("x")]
        engine.restore_state(
            now=1.0, next_sequence=1, executed_events=0, pending=[entry]
        )
        engine.cancel(entry)
        engine.run()
        assert seen == []
        assert engine.pending_events == 0


class TestRestoreState:
    def test_restore_round_trip(self):
        engine = Engine()
        marks = []
        engine.schedule(1.0, lambda: marks.append("early"))
        engine.run()
        pending = [(5.0, 1, lambda: marks.append("a")), (5.0, 2, lambda: marks.append("b"))]
        engine.restore_state(
            now=2.0, next_sequence=3, executed_events=4, pending=pending
        )
        assert engine.now == 2.0
        assert engine.next_sequence == 3
        assert engine.executed_events == 4
        engine.run()
        assert marks == ["early", "a", "b"]  # FIFO order preserved

    def test_restore_rejects_past_events(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="predates"):
            engine.restore_state(
                now=5.0,
                next_sequence=2,
                executed_events=0,
                pending=[(1.0, 0, lambda: None)],
            )

    def test_restore_rejects_future_sequences(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="next_sequence"):
            engine.restore_state(
                now=0.0,
                next_sequence=1,
                executed_events=0,
                pending=[(1.0, 5, lambda: None)],
            )


class TestEngineProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_execution_times_monotone(self, delays):
        engine = Engine()
        times = []
        for delay in delays:
            engine.schedule(delay, lambda: times.append(engine.now))
        engine.run()
        assert times == sorted(times)
        assert len(times) == len(delays)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_random_cascades_terminate(self, seed):
        """Random finite cascades execute exactly once per scheduled event."""
        rng = random.Random(seed)
        engine = Engine()
        counter = {"n": 0}

        def spawn(depth):
            counter["n"] += 1
            if depth > 0:
                for _ in range(rng.randrange(3)):
                    engine.schedule(rng.uniform(0, 2), lambda d=depth - 1: spawn(d))

        engine.schedule(0.0, lambda: spawn(4))
        engine.run()
        assert counter["n"] == engine.executed_events


def _run_by_steps(engine, *, until, max_events):
    """``Engine.run`` spelled with ``peek_next_time`` / ``step`` only.

    ``_drain`` pops and dispatches inline instead of calling ``step``;
    this is the reference the two are held together by.
    """
    if until is not None:
        until = max(until, engine.now)
    executed = 0
    while True:
        head_time = engine.peek_next_time()
        if head_time is None:
            break
        if until is not None and head_time > until:
            engine.now = until
            return
        if executed >= max_events:
            raise ConvergenceError(
                f"event budget of {max_events} exhausted at t={engine.now:.3f}s "
                f"with {engine.pending_events} events still pending"
            )
        assert engine.step() is True
        executed += 1
    if until is not None and until > engine.now:
        engine.now = until


class _Script:
    """A schedule whose callbacks schedule and cancel further events."""

    #: Bound on events ever scheduled (children may share descendants).
    SPAWN_BUDGET = 80

    def __init__(self, engine, specs, cancel_first):
        self.engine = engine
        self.specs = specs
        self.handles = []
        self.log = []
        for index, (delay, _children, _cancels, is_root) in enumerate(specs):
            if is_root or index == 0:
                self._schedule(index, delay)
        for target in cancel_first:
            engine.cancel(self.handles[target % len(self.handles)])

    def _schedule(self, index, delay):
        if len(self.handles) < self.SPAWN_BUDGET:
            self.handles.append(
                self.engine.schedule(delay, lambda: self._fire(index))
            )

    def _fire(self, index):
        self.log.append((index, self.engine.now, self.engine.executed_events))
        _delay, children, cancels, _is_root = self.specs[index]
        for offset in children:
            child = index + 1 + offset
            if child < len(self.specs):
                self._schedule(child, self.specs[child][0])
        for target in cancels:
            self.engine.cancel(self.handles[target % len(self.handles)])

    def state(self):
        engine = self.engine
        return (
            list(self.log),
            engine.now,
            engine.executed_events,
            engine.cancelled_events,
            engine.pending_events,
            engine.next_sequence,
        )


# Half-second grid: ties, and horizons that fall before, on and after events.
_grid = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.5)
_spec = st.tuples(
    _grid,
    st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    st.lists(st.integers(min_value=0, max_value=40), max_size=2),
    st.booleans(),
)


class TestRunMatchesStepLoop:
    @given(
        specs=st.lists(_spec, min_size=1, max_size=12),
        cancel_first=st.lists(st.integers(min_value=0, max_value=40), max_size=3),
        until=st.one_of(st.none(), _grid, st.just(1000.0)),
        max_events=st.one_of(st.just(10_000), st.integers(min_value=0, max_value=12)),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_trajectory_and_same_error(self, specs, cancel_first, until, max_events):
        outcomes = []
        for drive in (
            lambda engine, **kwargs: engine.run(**kwargs),
            _run_by_steps,
        ):
            script = _Script(Engine(), specs, cancel_first)
            error = None
            try:
                drive(script.engine, until=until, max_events=max_events)
            except ConvergenceError as exc:
                error = str(exc)
            halted = (error, script.state())
            # Whatever the first call left queued must drain identically.
            drive(script.engine, until=None, max_events=10_000)
            outcomes.append((halted, script.state()))
        assert outcomes[0] == outcomes[1]
