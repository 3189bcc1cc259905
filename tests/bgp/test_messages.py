"""Tests for update messages."""

import pytest

from repro.bgp.messages import UpdateMessage, announcement, withdrawal
from repro.prefix.prefix import host_prefix

P0 = host_prefix(0)


class TestConstruction:
    def test_announcement(self):
        msg = announcement(1, 2, P0, (1, 5, 9))
        assert msg.is_announcement
        assert not msg.is_withdrawal
        assert msg.path == (1, 5, 9)
        assert msg.sender == 1 and msg.receiver == 2

    def test_withdrawal(self):
        msg = withdrawal(1, 2, P0)
        assert msg.is_withdrawal
        assert not msg.is_announcement
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
