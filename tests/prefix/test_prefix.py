"""Tests for the :class:`Prefix` value type and its token contract."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CheckpointError, ParameterError
from repro.prefix.prefix import (
    ADDRESS_BITS,
    Prefix,
    host_prefix,
    iter_block,
    make_prefix,
    prefix_from_json,
    prefix_to_json,
)


def prefixes(max_length=ADDRESS_BITS):
    """Strategy: canonical (addr, length) pairs as interned Prefixes."""
    return st.integers(0, max_length).flatmap(
        lambda length: st.integers(0, (1 << length) - 1 if length else 0).map(
            lambda top: make_prefix(top << (ADDRESS_BITS - length), length)
        )
    )


class TestValueSemantics:
    def test_equality_is_by_value(self):
        assert Prefix(0x0A000000, 8) == Prefix(0x0A000000, 8)
        assert Prefix(0x0A000000, 8) != Prefix(0x0A000000, 9)
        assert Prefix(0x0A000000, 8) != Prefix(0x0B000000, 8)

    def test_interning_returns_the_same_object(self):
        assert make_prefix(0x0A000000, 8) is make_prefix(0x0A000000, 8)

    def test_hash_matches_equality(self):
        assert hash(Prefix(0x0A000000, 8)) == hash(make_prefix(0x0A000000, 8))

    def test_frozen(self):
        prefix = make_prefix(0x0A000000, 8)
        with pytest.raises(Exception):
            prefix.addr = 1

    def test_pickle_round_trips_through_intern_table(self):
        prefix = make_prefix(0x0A000000, 8)
        assert pickle.loads(pickle.dumps(prefix)) is prefix

    def test_non_canonical_address_rejected(self):
        with pytest.raises(ParameterError, match="host bits"):
            Prefix(0x0A000001, 8)

    def test_length_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            Prefix(0, 33)
        with pytest.raises(ParameterError):
            Prefix(0, -1)

    def test_address_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            Prefix(1 << 32, 32)

    @given(prefixes(), prefixes())
    def test_prefix_order_is_addr_then_length(self, a, b):
        assert (a < b) == ((a.addr, a.length) < (b.addr, b.length))


class TestTextAndJson:
    def test_str_is_dotted_quad(self):
        assert str(make_prefix(0x0A010200, 24)) == "10.1.2.0/24"

    def test_parse_round_trips(self):
        prefix = Prefix.parse("192.168.4.0/22")
        assert prefix is make_prefix(0xC0A80400, 22)
        assert Prefix.parse(str(prefix)) is prefix

    def test_parse_rejects_garbage(self):
        for text in ("10.0.0.0", "10.0.0/8", "10.0.0.256/8", "banana/8"):
            with pytest.raises(ParameterError):
                Prefix.parse(text)

    def test_json_int_reads_as_its_host_prefix(self):
        # Releases 1.3.0-1.6.0 wrote single-prefix tokens as bare ints.
        assert prefix_from_json(7) is host_prefix(7)
        assert prefix_from_json(2**32 - 1) is host_prefix(2**32 - 1)

    @pytest.mark.parametrize(
        "data",
        ["5", 5.7, True, -1, 2**32, [1], ["0", "32"], [1.9, 32], [1, 33], [1, 8], None],
        ids=repr,
    )
    def test_json_reader_refuses_anything_else(self, data):
        with pytest.raises(CheckpointError, match="malformed prefix"):
            prefix_from_json(data)

    def test_json_prefix_is_addr_length_pair(self):
        prefix = make_prefix(0x0A000000, 8)
        assert prefix_to_json(prefix) == [0x0A000000, 8]
        assert prefix_from_json([0x0A000000, 8]) is prefix

    @given(prefixes())
    def test_json_round_trip(self, prefix):
        assert prefix_from_json(prefix_to_json(prefix)) is prefix


class TestStructure:
    def test_parent_shortens_by_one_bit(self):
        assert make_prefix(0x0A010000, 16).parent() is make_prefix(0x0A000000, 15)

    def test_default_route_has_no_parent(self):
        assert make_prefix(0, 0).parent() is None

    def test_children_split_the_address_space(self):
        low, high = make_prefix(0x0A000000, 8).children()
        assert low is make_prefix(0x0A000000, 9)
        assert high is make_prefix(0x0A800000, 9)

    def test_host_prefix_cannot_split(self):
        with pytest.raises(ParameterError):
            host_prefix(1).children()

    @given(prefixes(max_length=31))
    def test_children_parent_inverts(self, prefix):
        low, high = prefix.children()
        assert low.parent() is prefix
        assert high.parent() is prefix
        assert prefix.contains(low) and prefix.contains(high)

    @given(prefixes(), prefixes())
    def test_contains_matches_definition(self, a, b):
        expected = a.length <= b.length and (b.addr & a.netmask) == a.addr
        assert a.contains(b) == expected

    def test_iter_block_enumerates_in_address_order(self):
        base = make_prefix(0x0A000000, 8)
        block = list(iter_block(base, 10))
        assert len(block) == 4
        assert block[0] is make_prefix(0x0A000000, 10)
        assert block == sorted(block)
        assert all(base.contains(p) for p in block)

    def test_iter_block_rejects_shorter_lengths(self):
        with pytest.raises(ParameterError):
            list(iter_block(make_prefix(0x0A000000, 8), 4))


class TestHostPrefixIntIdentity:
    """The single-prefix C-event machinery swaps ints for /32 tokens; the
    swap is only sound if host prefixes sort exactly like the ints did."""

    def test_host_prefixes_sort_like_their_ints(self):
        indices = [9, 2, 7, 0, 5]
        ordered = sorted(host_prefix(i) for i in indices)
        assert ordered == [host_prefix(i) for i in sorted(indices)]

    def test_host_prefixes_are_distinct_per_index(self):
        assert len({host_prefix(i) for i in range(100)}) == 100
