"""Tests for the MRAI-gated output channel (the heart of Sec. 6)."""

import random

import pytest

from repro.bgp.config import BGPConfig, MRAIMode, SendDiscipline
from repro.bgp.mrai import OutputChannel
from repro.prefix.prefix import host_prefix

P0, P1 = host_prefix(0), host_prefix(1)


def channel(**overrides):
    defaults = dict(mrai=10.0, jitter_low=1.0, jitter_high=1.0, wrate=False)
    defaults.update(overrides)
    config = BGPConfig(**defaults)
    return OutputChannel(owner=1, neighbor=2, config=config, rng=random.Random(0))


class TestDelayFirstDiscipline:
    """The paper's model: every rate-limited update waits for an expiry."""

    def test_announcement_is_queued_not_sent(self):
        ch = channel()
        messages, wakeup = ch.set_target(P0, (9,), now=0.0)
        assert messages == []
        assert wakeup == pytest.approx(10.0)
        assert ch.pending_count == 1

    def test_wakeup_flushes_with_owner_prepended(self):
        ch = channel()
        ch.set_target(P0, (9,), now=0.0)
        messages, next_wakeup = ch.wakeup(now=10.0)
        assert len(messages) == 1
        assert messages[0].path == (1, 9)
        assert next_wakeup is None
        assert ch.advertised(P0) == (9,)

    def test_two_announcements_separated_by_interval(self):
        ch = channel()
        ch.set_target(P0, (9,), now=0.0)
        ch.wakeup(now=10.0)  # sent, timer re-armed to 20
        messages, wakeup = ch.set_target(P0, (8, 9), now=11.0)
        assert messages == []
        assert wakeup == pytest.approx(20.0)
        flushed, _ = ch.wakeup(now=20.0)
        assert flushed[0].path == (1, 8, 9)

    def test_withdrawal_bypasses_timer_no_wrate(self):
        ch = channel(wrate=False)
        ch.set_target(P0, (9,), now=0.0)
        ch.wakeup(now=10.0)
        messages, wakeup = ch.set_target(P0, None, now=11.0)
        assert len(messages) == 1
        assert messages[0].is_withdrawal
        assert wakeup is None

    def test_withdrawal_rate_limited_with_wrate(self):
        ch = channel(wrate=True)
        ch.set_target(P0, (9,), now=0.0)
        ch.wakeup(now=10.0)
        messages, wakeup = ch.set_target(P0, None, now=11.0)
        assert messages == []
        assert wakeup == pytest.approx(20.0)
        flushed, _ = ch.wakeup(now=20.0)
        assert flushed[0].is_withdrawal

    def test_queued_update_invalidated_by_newer(self):
        """'If a queued update becomes invalid ... removed from the queue'."""
        ch = channel()
        ch.set_target(P0, (9,), now=0.0)
        ch.set_target(P0, (8, 9), now=1.0)
        assert ch.pending_count == 1
        messages, _ = ch.wakeup(now=10.0)
        assert len(messages) == 1
        assert messages[0].path == (1, 8, 9)

    def test_withdrawal_cancels_queued_announcement(self):
        """NO-WRATE: a withdrawal kills the queued announcement silently
        when the neighbour never saw the route."""
        ch = channel(wrate=False)
        ch.set_target(P0, (9,), now=0.0)
        messages, wakeup = ch.set_target(P0, None, now=1.0)
        assert messages == []  # neighbour never knew the route
        assert ch.pending_count == 0
        assert ch.wakeup(now=10.0) == ([], None)

    def test_flap_back_to_advertised_cancels_pending(self):
        ch = channel()
        ch.set_target(P0, (9,), now=0.0)
        ch.wakeup(now=10.0)  # (9,) advertised
        ch.set_target(P0, (8, 9), now=11.0)  # queued
        messages, wakeup = ch.set_target(P0, (9,), now=12.0)  # back to known
        assert messages == []
        assert wakeup is None
        assert ch.pending_count == 0

    def test_withdrawal_for_never_advertised_suppressed(self):
        ch = channel()
        messages, wakeup = ch.set_target(P0, None, now=0.0)
        assert messages == []
        assert wakeup is None

    def test_duplicate_target_suppressed(self):
        ch = channel()
        ch.set_target(P0, (9,), now=0.0)
        ch.wakeup(now=10.0)
        messages, wakeup = ch.set_target(P0, (9,), now=11.0)
        assert messages == [] and wakeup is None


class TestSendFirstDiscipline:
    def test_idle_timer_sends_immediately(self):
        ch = channel(discipline=SendDiscipline.SEND_FIRST)
        messages, wakeup = ch.set_target(P0, (9,), now=0.0)
        assert len(messages) == 1
        assert wakeup is None

    def test_second_update_waits(self):
        ch = channel(discipline=SendDiscipline.SEND_FIRST)
        ch.set_target(P0, (9,), now=0.0)
        messages, wakeup = ch.set_target(P0, (8, 9), now=1.0)
        assert messages == []
        assert wakeup == pytest.approx(10.0)


class TestPerInterfaceBatching:
    def test_one_expiry_flushes_all_prefixes(self):
        ch = channel()
        ch.set_target(P0, (9,), now=0.0)
        ch.set_target(P1, (7,), now=1.0)
        messages, next_wakeup = ch.wakeup(now=10.0)
        assert len(messages) == 2
        assert {m.prefix for m in messages} == {P0, P1}
        assert next_wakeup is None


class TestPerPrefixMode:
    def test_independent_gates(self):
        ch = channel(mrai_mode=MRAIMode.PER_PREFIX)
        ch.set_target(P0, (9,), now=0.0)  # gate at 10
        messages, _ = ch.wakeup(now=10.0)
        assert len(messages) == 1
        # prefix 1 arrives later and gets its own gate
        _, wakeup = ch.set_target(P1, (7,), now=12.0)
        assert wakeup == pytest.approx(22.0)
        # prefix 0's next update waits for prefix-0 gate (20), not 22
        _, wakeup0 = ch.set_target(P0, (8, 9), now=12.0)
        assert wakeup0 == pytest.approx(20.0)
        flushed, next_wakeup = ch.wakeup(now=20.0)
        assert [m.prefix for m in flushed] == [P0]
        assert next_wakeup == pytest.approx(22.0)


class TestRateLimitingDisabled:
    def test_mrai_zero_sends_immediately(self):
        ch = channel(mrai=0.0)
        messages, wakeup = ch.set_target(P0, (9,), now=0.0)
        assert len(messages) == 1 and wakeup is None
        messages, wakeup = ch.set_target(P0, (8, 9), now=0.001)
        assert len(messages) == 1 and wakeup is None


class TestJitter:
    def test_jittered_interval_within_band(self):
        config = BGPConfig(mrai=30.0, jitter_low=0.75, jitter_high=1.0)
        ch = OutputChannel(1, 2, config, random.Random(3))
        gates = []
        for trial in range(50):
            now = trial * 1000.0
            _, wakeup = ch.set_target(host_prefix(trial), (9,), now=now)
            gates.append(wakeup - now)
            ch.wakeup(now=wakeup)
        assert all(22.5 <= g <= 30.0 for g in gates)
        assert max(gates) - min(gates) > 1.0  # actually jittered


class TestReset:
    def test_reset_clears_session_state(self):
        ch = channel()
        ch.set_target(P0, (9,), now=0.0)
        ch.wakeup(now=10.0)
        ch.set_target(P1, (7,), now=11.0)
        ch.reset()
        assert ch.pending_count == 0
        assert ch.advertised(P0) is None
        # gate re-opened: next update queues against a fresh timer at now
        _, wakeup = ch.set_target(P0, (9,), now=12.0)
        assert wakeup == pytest.approx(22.0)


class TestPerPrefixGatePruning:
    """Expired per-prefix gates must not accumulate (unbounded growth bug)."""

    def test_wakeup_prunes_expired_gates(self):
        ch = channel(mrai_mode=MRAIMode.PER_PREFIX)
        for index in range(50):
            ch.set_target(host_prefix(index), (9,), now=0.0)  # all gates at 10
        ch.wakeup(now=10.0)  # flush everything
        assert ch.pending_count == 0
        # Regression: the gates of already-flushed prefixes used to stay in
        # _prefix_gates forever; after the re-armed gates (20) expire, a
        # wakeup must drop them all.
        ch.wakeup(now=25.0)
        assert ch._prefix_gates == {}

    def test_pruning_preserves_semantics(self):
        # An expired gate behaves exactly like a missing one, so pruning
        # must not change what a later update for that prefix does.
        pruned = channel(mrai_mode=MRAIMode.PER_PREFIX)
        pruned.set_target(P0, (9,), now=0.0)
        pruned.wakeup(now=10.0)   # sent; gate re-armed to 20
        pruned.wakeup(now=30.0)   # nothing pending: prunes the stale gate
        assert pruned._prefix_gates == {}
        _, wakeup = pruned.set_target(P0, (8, 9), now=31.0)
        assert wakeup == pytest.approx(41.0)  # fresh timer from now

    def test_pending_prefix_gates_survive_pruning(self):
        ch = channel(mrai_mode=MRAIMode.PER_PREFIX)
        ch.set_target(P0, (9,), now=0.0)   # gate 10
        ch.wakeup(now=10.0)               # sent, re-armed to 20
        ch.set_target(P1, (7,), now=15.0)  # gate 25, pending
        messages, next_wakeup = ch.wakeup(now=22.0)  # prefix-0 gate stale
        assert messages == []
        assert next_wakeup == pytest.approx(25.0)
        assert ch._prefix_gates == {P1: pytest.approx(25.0)}
        flushed, _ = ch.wakeup(now=25.0)
        assert [m.prefix for m in flushed] == [P1]

    def test_dump_load_roundtrip_after_pruning(self):
        ch = channel(mrai_mode=MRAIMode.PER_PREFIX)
        for index in range(5):
            ch.set_target(host_prefix(index), (9,), now=0.0)
        ch.wakeup(now=10.0)
        ch.set_target(P0, (8, 9), now=12.0)  # pending again, gate 20
        ch.wakeup(now=15.0)                 # prunes prefixes 1..4
        state = ch.dump_state()
        restored = channel(mrai_mode=MRAIMode.PER_PREFIX)
        restored.load_state(state)
        assert restored.dump_state() == state
        a, wa = ch.wakeup(now=20.0)
        b, wb = restored.wakeup(now=20.0)
        assert [m.prefix for m in a] == [m.prefix for m in b] == [P0]
        assert wa == wb


class TestWakeupEdgeCases:
    """Timer edge cases at the node level: stale and early wakeups."""

    def test_early_wakeup_sends_nothing_and_reports_gate(self):
        ch = channel()
        _, gate = ch.set_target(P0, (9,), now=0.0)
        messages, next_wakeup = ch.wakeup(now=gate - 1.0)
        assert messages == []
        assert next_wakeup == pytest.approx(gate)
        assert ch.pending_count == 1
        # The real expiry still flushes normally afterwards.
        flushed, _ = ch.wakeup(now=gate)
        assert len(flushed) == 1

    def test_early_wakeup_per_prefix(self):
        ch = channel(mrai_mode=MRAIMode.PER_PREFIX)
        _, gate = ch.set_target(P0, (9,), now=0.0)
        messages, next_wakeup = ch.wakeup(now=gate - 1.0)
        assert messages == []
        assert next_wakeup == pytest.approx(gate)
        flushed, _ = ch.wakeup(now=gate)
        assert [m.prefix for m in flushed] == [P0]

    def test_wakeup_before_gate_reschedules(self, diamond, fast_config):
        from repro.sim.network import SimNetwork

        network = SimNetwork(diamond, fast_config, seed=3)
        node = network.node(2)
        ch = node.channel(4)
        _, gate = ch.set_target(P0, (9,), now=0.0)
        assert gate is not None
        # Fire the node's wakeup handler before the gate expires: nothing
        # may be sent, and the correct next wakeup must be re-armed.
        node.channel(4).wakeup_at = 5.0
        node._mrai_wakeup(4, 5.0)
        assert ch.pending_count == 1
        assert node.channel(4).wakeup_at == pytest.approx(gate)
