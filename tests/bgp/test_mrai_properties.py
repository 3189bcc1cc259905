"""Property-based tests of the MRAI output channel.

Two invariants must hold under ANY interleaving of target changes:

1. **Rate limiting**: consecutive rate-limited sends to the same
   neighbour are separated by at least the (un-jittered) MRAI interval;
   NO-WRATE withdrawals are exempt.
2. **Eventual consistency**: once the caller stops changing targets and
   the queue drains, what the neighbour was last told equals the last
   target set.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.config import BGPConfig, MRAIMode, SendDiscipline
from repro.bgp.mrai import OutputChannel
from repro.prefix.prefix import host_prefix

MRAI = 10.0


@st.composite
def channel_script(draw):
    """A random sequence of (time-gap, prefix, target) operations."""
    config = BGPConfig(
        mrai=MRAI,
        jitter_low=1.0,
        jitter_high=1.0,
        wrate=draw(st.booleans()),
        mrai_mode=draw(st.sampled_from(list(MRAIMode))),
        discipline=draw(st.sampled_from(list(SendDiscipline))),
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=25.0),  # time gap
                st.integers(min_value=0, max_value=2).map(host_prefix),  # prefix
                st.one_of(  # target: None (withdraw) or a path
                    st.none(),
                    st.lists(
                        st.integers(min_value=5, max_value=9),
                        min_size=1,
                        max_size=3,
                    ).map(tuple),
                ),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return config, ops


def drive(config, ops):
    """Execute the script; returns (send log, final advertised, last targets)."""
    channel = OutputChannel(owner=1, neighbor=2, config=config, rng=random.Random(0))
    sends = []  # (time, message)
    pending_wakeups = []
    now = 0.0
    last_target = {}

    def flush_wakeups(upto):
        nonlocal pending_wakeups
        while pending_wakeups and min(pending_wakeups) <= upto:
            at = min(pending_wakeups)
            pending_wakeups = [w for w in pending_wakeups if w != at]
            messages, nxt = channel.wakeup(at)
            sends.extend((at, m) for m in messages)
            if nxt is not None:
                pending_wakeups.append(nxt)

    for gap, prefix, target in ops:
        now += gap
        flush_wakeups(now)
        last_target[prefix] = target
        messages, wakeup = channel.set_target(prefix, target, now)
        sends.extend((now, m) for m in messages)
        if wakeup is not None:
            pending_wakeups.append(wakeup)
    # drain
    flush_wakeups(now + 100 * MRAI)
    return sends, channel, last_target


class TestChannelProperties:
    @given(script=channel_script())
    @settings(max_examples=200, deadline=None)
    def test_rate_limited_sends_are_separated(self, script):
        config, ops = script
        sends, _, _ = drive(config, ops)
        limited = [
            (t, m)
            for t, m in sends
            if not (m.is_withdrawal and not config.wrate)
        ]
        if config.mrai_mode is MRAIMode.PER_INTERFACE:
            groups = {None: limited}
        else:
            groups = {}
            for t, m in limited:
                groups.setdefault(m.prefix, []).append((t, m))
        for group in groups.values():
            times = sorted(t for t, _ in group)
            for a, b in zip(times, times[1:]):
                if b != a:  # same-instant batch flush is one timer firing
                    assert b - a >= MRAI - 1e-9, (times, config)

    @given(script=channel_script())
    @settings(max_examples=200, deadline=None)
    def test_eventual_consistency(self, script):
        config, ops = script
        _, channel, last_target = drive(config, ops)
        assert channel.pending_count == 0
        for prefix, target in last_target.items():
            assert channel.advertised(prefix) == target

    @given(script=channel_script())
    @settings(max_examples=100, deadline=None)
    def test_wire_state_tracks_sends(self, script):
        """Replaying the send log yields the channel's advertised view."""
        config, ops = script
        sends, channel, last_target = drive(config, ops)
        replayed = {}
        for _, message in sends:
            if message.is_withdrawal:
                replayed[message.prefix] = None
            else:
                # channel prepends the owner to the stored target path
                replayed[message.prefix] = message.path[1:]
        for prefix in last_target:
            assert replayed.get(prefix) == channel.advertised(prefix)