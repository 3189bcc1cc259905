"""PER_PREFIX gate hygiene under multi-prefix churn.

Every prefix that ever passed through a rate-limited send arms a gate;
without pruning, the per-channel gate dict grows with the lifetime union
of churned prefixes.  The wakeup path drops expired gates (an expired
gate is indistinguishable from a missing one) and reports the survivor
count through the ``mrai.prefix_gates`` telemetry gauge.
"""

import random

from repro.bgp.config import BGPConfig, MRAIMode
from repro.bgp.mrai import OutputChannel
from repro.obs.telemetry import Telemetry
from repro.prefix.prefix import make_prefix

PREFIXES = [make_prefix(index << 16, 16) for index in range(40)]


def channel(telemetry=None, **overrides):
    config = BGPConfig(
        mrai=2.0, mrai_mode=MRAIMode.PER_PREFIX, jitter_low=1.0, jitter_high=1.0,
        **overrides,
    )
    kwargs = {} if telemetry is None else {"telemetry": telemetry}
    return OutputChannel(1, 2, config, random.Random(5), **kwargs)


def churn(ch, *, rounds=6, step=5.0):
    """Announce/withdraw every prefix each round, servicing wakeups."""
    now = 0.0
    wakeups = []
    for round_index in range(rounds):
        for index, prefix in enumerate(PREFIXES):
            target = None if (round_index + index) % 2 else (3, 4)
            _messages, wakeup_at = ch.set_target(prefix, target, now)
            if wakeup_at is not None:
                wakeups.append(wakeup_at)
        while wakeups and min(wakeups) <= now + step:
            at = min(wakeups)
            wakeups = [w for w in wakeups if w > at]
            _messages, next_wakeup = ch.wakeup(at)
            if next_wakeup is not None:
                wakeups.append(next_wakeup)
        now += step
    # Drain: service every remaining wakeup, then one final sweep well
    # past the last gate so all expired gates are pruned.
    while wakeups:
        at = min(wakeups)
        wakeups = [w for w in wakeups if w > at]
        _messages, next_wakeup = ch.wakeup(at)
        if next_wakeup is not None:
            wakeups.append(next_wakeup)
    ch.wakeup(now + 1000.0)
    return ch


class TestGatePruning:
    def test_gate_table_is_bounded_after_churn(self):
        ch = churn(channel())
        # All 40 prefixes were rate-limited repeatedly; once drained and
        # swept, no expired gate may linger.
        assert ch.pending_count == 0
        assert len(ch._prefix_gates) == 0

    def test_pending_prefixes_keep_their_gates(self):
        ch = channel()
        _m, wakeup_at = ch.set_target(PREFIXES[0], (3,), 0.0)
        ch.wakeup(wakeup_at)  # sends, re-arms the gate
        # NO-WRATE would send a withdrawal immediately; a changed path
        # announcement always queues behind the closed gate.
        _m, _w = ch.set_target(PREFIXES[0], (3, 9), wakeup_at + 0.1)
        # The queued update's own (future) gate must survive a sweep.
        _m, next_wakeup = ch.wakeup(wakeup_at + 0.2)
        assert ch.pending_count == 1
        assert PREFIXES[0] in ch._prefix_gates
        assert next_wakeup == ch._prefix_gates[PREFIXES[0]]

    def test_gauge_records_the_high_water_mark(self):
        hub = Telemetry()
        churn(channel(telemetry=hub))
        high_water = hub.gauges["mrai.prefix_gates"]
        # Every live gate at some wakeup was counted, and the mark can
        # never exceed the number of distinct prefixes churned.
        assert 1 <= high_water <= len(PREFIXES)

    def test_gauge_is_monotone_max(self):
        # The hub reports the worst case over every kernel record it
        # reads, and a later, smaller sample never lowers it.
        hub = Telemetry()
        first, second = hub.new_counts(), hub.new_counts()
        first.prefix_gates = 7
        second.prefix_gates = 3
        assert hub.gauges["mrai.prefix_gates"] == 7.0
        second.prefix_gates = 11
        assert hub.gauges["mrai.prefix_gates"] == 11.0
