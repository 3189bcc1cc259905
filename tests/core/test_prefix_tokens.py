"""The token of the single-prefix drivers.

C-events, link events, exploration, load and damping flaps moved from
bare-int prefixes to interned ``/32`` host prefixes; because host
prefixes sort exactly like the ints they replaced, fixed-seed
measurements are unaffected (the kernel digests pin them).
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
