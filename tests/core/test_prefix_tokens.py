"""Prefix-token agnosticism of the single-prefix C-event machinery.

The C-event sweep migrated from bare-int prefixes to interned ``/32``
host prefixes; because host prefixes sort exactly like the ints they
replaced, fixed-seed measurements must be unaffected.
"""

from repro.prefix.prefix import Prefix


class TestCEventTokens:
    def test_origin_prefixes_are_host_prefixes(self):
        from repro.prefix.prefix import host_prefix

        # The per-event token is the /32 of the event index: interned,
        # distinct, and int-sort-compatible.
        tokens = [host_prefix(i) for i in range(6)]
        assert all(isinstance(t, Prefix) and t.length == 32 for t in tokens)
        assert tokens == sorted(tokens)
