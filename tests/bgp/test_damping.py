"""Tests for route-flap damping (RFC 2439 extension)."""

import pytest

from repro.bgp.config import DampingConfig
from repro.bgp.damping import FlapKind, RouteFlapDamper
from repro.errors import ParameterError
from repro.prefix.prefix import host_prefix

P0, P7 = host_prefix(0), host_prefix(7)


def damper(**overrides):
    defaults = dict(
        enabled=True,
        withdrawal_penalty=1.0,
        readvertisement_penalty=0.5,
        suppress_threshold=2.0,
        reuse_threshold=0.75,
        half_life=900.0,
    )
    defaults.update(overrides)
    return RouteFlapDamper(DampingConfig(**defaults))


class TestPenaltyAccumulation:
    def test_single_flap_below_threshold(self):
        d = damper()
        penalty = d.record_flap(5, P0, FlapKind.WITHDRAWAL, now=0.0)
        assert penalty == pytest.approx(1.0)
        assert not d.is_suppressed(5, P0, now=0.0)

    def test_repeated_flaps_suppress(self):
        d = damper()
        d.record_flap(5, P0, FlapKind.WITHDRAWAL, now=0.0)
        d.record_flap(5, P0, FlapKind.READVERTISEMENT, now=1.0)
        d.record_flap(5, P0, FlapKind.WITHDRAWAL, now=2.0)
        assert d.is_suppressed(5, P0, now=2.0)

    def test_penalty_decays_exponentially(self):
        d = damper()
        d.record_flap(5, P0, FlapKind.WITHDRAWAL, now=0.0)
        assert d.penalty(5, P0, now=900.0) == pytest.approx(0.5, rel=1e-6)
        assert d.penalty(5, P0, now=1800.0) == pytest.approx(0.25, rel=1e-6)

    def test_flap_kinds_have_distinct_penalties(self):
        d = damper()
        d.record_flap(1, P0, FlapKind.WITHDRAWAL, now=0.0)
        d.record_flap(2, P0, FlapKind.READVERTISEMENT, now=0.0)
        d.record_flap(3, P0, FlapKind.ATTRIBUTE_CHANGE, now=0.0)
        assert d.penalty(1, P0, 0.0) > d.penalty(2, P0, 0.0)
        assert d.penalty(2, P0, 0.0) == pytest.approx(d.penalty(3, P0, 0.0))


class TestReuse:
    def test_suppression_lifts_after_decay(self):
        d = damper()
        for t in (0.0, 1.0, 2.0, 3.0):
            d.record_flap(5, P0, FlapKind.WITHDRAWAL, now=t)
        assert d.is_suppressed(5, P0, now=4.0)
        wait = d.time_until_reuse(5, P0, now=4.0)
        assert wait is not None and wait > 0
        assert not d.is_suppressed(5, P0, now=4.0 + wait + 1.0)

    def test_time_until_reuse_none_when_not_suppressed(self):
        d = damper()
        d.record_flap(5, P0, FlapKind.WITHDRAWAL, now=0.0)
        assert d.time_until_reuse(5, P0, now=0.0) is None

    def test_max_suppress_time_caps_wait(self):
        d = damper(max_suppress_time=10.0, half_life=1e6)
        for t in (0.0, 1.0, 2.0, 3.0):
            d.record_flap(5, P0, FlapKind.WITHDRAWAL, now=t)
        assert d.is_suppressed(5, P0, now=4.0)
        # with an enormous half-life only the cap can lift suppression
        assert not d.is_suppressed(5, P0, now=20.0)


class TestDisabled:
    def test_disabled_damper_never_suppresses(self):
        d = damper(enabled=False)
        for t in range(10):
            d.record_flap(5, P0, FlapKind.WITHDRAWAL, now=float(t))
        assert not d.is_suppressed(5, P0, now=10.0)
        assert not d.enabled


class _Untouchable:
    """Stands in for a PenaltyRecord that must never be inspected."""

    def __getattr__(self, name):
        raise AssertionError(
            f"a record for an unrelated prefix was touched (attribute {name!r})"
        )


class TestPerPrefixIndex:
    """The records table is indexed prefix-first so per-prefix scans never
    visit other prefixes' records — the regression that made
    ``earliest_reuse`` O(all records) under multi-prefix workloads."""

    def test_earliest_reuse_ignores_other_prefixes_records(self):
        d = damper()
        for t in (0.0, 1.0, 2.0):
            d.record_flap(1, P0, FlapKind.WITHDRAWAL, now=t)
            d.record_flap(2, P0, FlapKind.WITHDRAWAL, now=t)
        assert d.is_suppressed(1, P0, now=2.0)
        # White-box: plant 10k records under *other* prefixes that blow up
        # on any attribute access.  A flat-table scan would trip them.
        for other in range(1, 10_001):
            d._records[host_prefix(other)] = {1: _Untouchable()}
        wait = d.earliest_reuse(P0, now=2.0)
        assert wait is not None and wait > 0

    def test_point_queries_ignore_other_prefixes_records(self):
        d = damper()
        d.record_flap(1, P0, FlapKind.WITHDRAWAL, now=0.0)
        for other in range(1, 1001):
            d._records[host_prefix(other)] = {1: _Untouchable()}
        assert d.penalty(1, P0, now=0.0) == pytest.approx(1.0)
        assert not d.is_suppressed(1, P0, now=0.0)
        assert d.time_until_reuse(1, P0, now=0.0) is None

    def test_earliest_reuse_is_min_over_neighbors(self):
        d = damper()
        # Neighbour 1 accumulates more penalty than neighbour 2, so 2
        # decays back below the reuse threshold first.
        for t in (0.0, 1.0, 2.0, 3.0):
            d.record_flap(1, P0, FlapKind.WITHDRAWAL, now=t)
        for t in (0.0, 1.0, 2.0):
            d.record_flap(2, P0, FlapKind.WITHDRAWAL, now=t)
        assert d.is_suppressed(1, P0, now=4.0) and d.is_suppressed(2, P0, now=4.0)
        wait = d.earliest_reuse(P0, now=4.0)
        assert wait == pytest.approx(d.time_until_reuse(2, P0, now=4.0))
        assert wait < d.time_until_reuse(1, P0, now=4.0)

    def test_earliest_reuse_none_without_suppressed_records(self):
        d = damper()
        assert d.earliest_reuse(P0, now=0.0) is None
        d.record_flap(1, P0, FlapKind.WITHDRAWAL, now=0.0)
        assert d.earliest_reuse(P0, now=0.0) is None

    def test_earliest_reuse_unsuppresses_decayed_records(self):
        d = damper(half_life=10.0)
        for t in (0.0, 1.0, 2.0):
            d.record_flap(1, P0, FlapKind.WITHDRAWAL, now=t)
        assert d.is_suppressed(1, P0, now=2.0)
        # Long after the penalty decayed away, the sweep both reports
        # nothing suppressed and clears the stale flag in place.
        assert d.earliest_reuse(P0, now=500.0) is None
        assert not d._records[P0][1].suppressed

    def test_dump_load_round_trip_preserves_rows(self):
        d = damper()
        d.record_flap(1, P0, FlapKind.WITHDRAWAL, now=0.0)
        d.record_flap(2, P0, FlapKind.WITHDRAWAL, now=1.0)
        d.record_flap(1, P7, FlapKind.READVERTISEMENT, now=2.0)
        rows = d.dump_state()
        assert all(len(row) == 5 for row in rows)  # flat checkpoint layout
        restored = damper()
        restored.load_state(rows)
        assert restored.dump_state() == rows
        assert restored.penalty(1, P0, now=2.0) == pytest.approx(
            d.penalty(1, P0, now=2.0)
        )


class TestConfigValidation:
    def test_reuse_must_be_below_suppress(self):
        with pytest.raises(ParameterError):
            DampingConfig(suppress_threshold=1.0, reuse_threshold=1.5)

    def test_half_life_positive(self):
        with pytest.raises(ParameterError):
            DampingConfig(half_life=0.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ParameterError):
            DampingConfig(withdrawal_penalty=-1.0)
