"""Tests for update messages."""

import pytest

from repro.bgp.messages import UpdateMessage, announcement, withdrawal
from repro.prefix.prefix import host_prefix

P0 = host_prefix(0)


class TestConstruction:
    def test_announcement(self):
        msg = announcement(1, 2, P0, (1, 5, 9))
        assert not msg.is_withdrawal
        assert msg.path == (1, 5, 9)
        assert msg.sender == 1 and msg.receiver == 2

    def test_withdrawal(self):
        msg = withdrawal(1, 2, P0)
        assert msg.is_withdrawal
        assert msg.path is None

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            announcement(1, 2, P0, ())

    def test_path_coerced_to_tuple(self):
        msg = announcement(1, 2, P0, [1, 5])
        assert msg.path == (1, 5)

    def test_messages_are_frozen(self):
        msg = withdrawal(1, 2, P0)
        with pytest.raises(AttributeError):
            msg.sender = 9

    def test_str_forms(self):
        assert "W(" in str(withdrawal(1, 2, P0))
        assert "A(" in str(announcement(1, 2, P0, (1,)))


class TestValueSemantics:
    def test_equal_fields_make_equal_messages(self):
        a = announcement(1, 2, P0, (1, 5))
        b = UpdateMessage(sender=1, receiver=2, prefix=P0, path=(1, 5))
        assert a == b and hash(a) == hash(b)
        assert a != withdrawal(1, 2, P0)
        assert a != announcement(1, 3, P0, (1, 5))

    def test_no_field_can_be_added_or_rebound(self):
        msg = announcement(1, 2, P0, (1, 5))
        for name in ("sender", "receiver", "prefix", "path", "extra"):
            with pytest.raises(AttributeError):
                setattr(msg, name, 9)

    @pytest.mark.parametrize(
        "msg",
        [announcement(1, 2, P0, (1, 5)), withdrawal(1, 2, P0)],
        ids=["announcement", "withdrawal"],
    )
    def test_pickles_to_an_equal_message(self, msg):
        import pickle

        copy = pickle.loads(pickle.dumps(msg))
        assert type(copy) is UpdateMessage and copy == msg

    @pytest.mark.parametrize(
        "msg",
        [announcement(1, 2, P0, (1, 5)), withdrawal(1, 2, P0)],
        ids=["announcement", "withdrawal"],
    )
    def test_delivery_descriptor_round_trips(self, msg):
        from repro.bgp.events import Delivery, build_event, describe_event

        descriptor = describe_event(Delivery(None, msg))
        path = None if msg.path is None else [1, 5]
        assert descriptor == ["delivery", 1, 2, [0, 32], path]
        assert build_event(None, descriptor).message == msg
