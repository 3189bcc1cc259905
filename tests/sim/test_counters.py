"""Tests for the update counter."""

import pytest

from repro.errors import CheckpointError, SimulationError
from repro.sim.counters import UpdateCounter
from repro.topology.types import Relationship

CUST = Relationship.CUSTOMER
PEER = Relationship.PEER
PROV = Relationship.PROVIDER
LINKS = {(1, 2): CUST, (1, 3): PEER, (4, 2): PROV, (4, 3): PEER}


class TestRecording:
    def test_basic_counts(self):
        counter = UpdateCounter()
        counter.record(1, 2, is_withdrawal=False)
        counter.record(1, 2, is_withdrawal=True)
        counter.record(1, 3, is_withdrawal=False)
        assert counter.total == 3
        assert counter.received_by_pair == {(1, 2): 2, (1, 3): 1}
        assert counter.announcements[1] == 2
        assert counter.withdrawals[1] == 1
        assert counter.announcements.get(9, 0) == counter.withdrawals.get(9, 0) == 0

    def test_disabled_counter_ignores(self):
        counter = UpdateCounter()
        counter.enabled = False
        counter.record(1, 2, is_withdrawal=False)
        assert counter.total == 0
        counter.enabled = True
        counter.record(1, 2, is_withdrawal=False)
        assert counter.total == 1

    def test_active_senders(self):
        counter = UpdateCounter()
        counter.record(1, 2, is_withdrawal=False)
        counter.record(1, 2, is_withdrawal=False)
        counter.record(1, 3, is_withdrawal=False)
        counter.record(4, 2, is_withdrawal=False)
        assert counter.active_senders(1) == {2: 2, 3: 1}
        assert counter.active_senders(4) == {2: 1}
        assert counter.active_senders(9) == {}

    def test_reset(self):
        counter = UpdateCounter()
        counter.record(1, 2, is_withdrawal=True)
        counter.reset()
        assert counter.total == 0
        assert counter.announcements.get(1, 0) == counter.withdrawals.get(1, 0) == 0
        assert counter.active_senders(1) == {}
        assert counter.enabled  # reset keeps the enabled flag


class TestRelationshipRows:
    def test_rows_follow_first_seen_order(self):
        counter = UpdateCounter(lambda receiver, sender: LINKS[receiver, sender])
        counter.record(4, 3, is_withdrawal=False)
        counter.record(1, 3, is_withdrawal=False)
        counter.record(4, 2, is_withdrawal=True)
        counter.record(1, 2, is_withdrawal=False)
        counter.record(1, 3, is_withdrawal=False)
        assert counter.received_by_relationship() == [
            (4, PEER, 1),
            (1, PEER, 2),
            (4, PROV, 1),
            (1, CUST, 1),
        ]

    def test_state_round_trips_and_checks_the_rows(self):
        counter = UpdateCounter(lambda receiver, sender: LINKS[receiver, sender])
        counter.record(1, 2, is_withdrawal=False)
        counter.record(4, 3, is_withdrawal=True)
        state = counter.dump_state()
        restored = UpdateCounter(counter.relationship)
        restored.load_state(state)
        assert restored.dump_state() == state
        state["received_by_relationship"][0][1] = PEER
        with pytest.raises(CheckpointError, match="per-relationship totals"):
            restored.load_state(state)

    def test_a_bare_counter_cannot_classify(self):
        counter = UpdateCounter()
        counter.record(1, 2, is_withdrawal=False)
        with pytest.raises(SimulationError):
            counter.dump_state()
