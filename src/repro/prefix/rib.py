"""Trie-backed RIB implementations (``--rib-backend radix``).

Drop-in replacements for :class:`repro.bgp.rib.AdjRIBIn` /
:class:`repro.bgp.rib.LocRIB` with the same method surface plus the
structural queries only a radix trie can answer (longest match, covered
subtree, per-prefix counts) — what aggregation-aware workloads and
table-size gauges need.

Two invariants carry over from the dict backend, because the simulator's
byte-identity guarantees depend on them:

* **candidate order** — within one prefix, (neighbour → route) insertion
  order is exactly the dict backend's, so the decision process sees the
  same first-wins tie-breaks;
* **iteration order** — :meth:`entries`, :meth:`prefixes` and
  :meth:`prefixes_from` follow global insertion order, not trie order.
  A flat insertion-ordered mirror preserves this while the trie serves
  the per-prefix hot path and the structural queries; the equivalence
  suite in ``tests/prefix`` holds both backends to identical decisions
  on random operation sequences.

Legacy bare-int tokens (old checkpoints, single-prefix scenarios that
never migrated) have no bit structure to index, so they live in a plain
side dict; mixing token kinds in one RIB is supported and deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.prefix.prefix import Prefix, PrefixToken
from repro.prefix.trie import PrefixTrie

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Routes are handled opaquely; importing repro.bgp at runtime would
    # create a cycle (bgp.node imports this module).
    from repro.bgp.route import Route


class RadixAdjRIBIn:
    """Latest routes learned from neighbours, indexed by a radix trie."""

    def __init__(self) -> None:
        self._routes: Dict[Tuple[PrefixToken, int], Route] = {}
        self._trie = PrefixTrie()
        self._int_index: Dict[int, Dict[int, Route]] = {}
        self._dirty: Dict[PrefixToken, None] = {}

    def _bucket(self, prefix: PrefixToken) -> Optional[Dict[int, Route]]:
        if isinstance(prefix, Prefix):
            return self._trie.get(prefix)
        return self._int_index.get(prefix)

    def update(
        self, prefix: PrefixToken, neighbor: int, route: Optional[Route]
    ) -> Optional[Route]:
        """Install ``route`` (or remove on ``None``); returns the previous route."""
        key = (prefix, neighbor)
        previous = self._routes.get(key)
        if route is None:
            if previous is None:
                return None
            del self._routes[key]
            bucket = self._bucket(prefix)
            bucket.pop(neighbor, None)
            if not bucket:
                if isinstance(prefix, Prefix):
                    self._trie.delete(prefix)
                else:
                    del self._int_index[prefix]
        else:
            if previous is route:
                return previous
            self._routes[key] = route
            bucket = self._bucket(prefix)
            if bucket is None:
                bucket = {}
                if isinstance(prefix, Prefix):
                    self._trie.insert(prefix, bucket)
                else:
                    self._int_index[prefix] = bucket
            bucket[neighbor] = route
        self._dirty[prefix] = None
        return previous

    def retire(self, prefix: PrefixToken) -> None:
        """Forget every entry for ``prefix``, without marking it dirty."""
        bucket = self._bucket(prefix)
        if bucket is not None:
            for neighbor in bucket:
                del self._routes[(prefix, neighbor)]
            if isinstance(prefix, Prefix):
                self._trie.delete(prefix)
            else:
                del self._int_index[prefix]
        if prefix in self._dirty:
            del self._dirty[prefix]

    def route_from(self, prefix: PrefixToken, neighbor: int) -> Optional[Route]:
        """The route ``neighbor`` currently advertises for ``prefix``."""
        return self._routes.get((prefix, neighbor))

    def candidates(self, prefix: PrefixToken) -> List[Tuple[int, Route]]:
        """All (neighbour, route) pairs for ``prefix`` (insertion order)."""
        bucket = self._bucket(prefix)
        if bucket is None:
            return []
        return list(bucket.items())

    def prefixes(self) -> Iterator[PrefixToken]:
        """All prefixes with at least one learned route (repeat-free)."""
        seen = set()
        for prefix, _neighbor in self._routes:
            if prefix not in seen:
                seen.add(prefix)
                yield prefix

    def prefixes_from(self, neighbor: int) -> List[PrefixToken]:
        """All prefixes for which ``neighbor`` currently advertises a route."""
        return [pfx for (pfx, nbr) in self._routes if nbr == neighbor]

    def entries(self) -> List[Tuple[PrefixToken, int, Route]]:
        """All ``(prefix, neighbor, route)`` entries in insertion order."""
        return [
            (prefix, neighbor, route)
            for (prefix, neighbor), route in self._routes.items()
        ]

    def __len__(self) -> int:
        return len(self._routes)

    # ------------------------------------------------------------------
    # Dirty-set tracking
    # ------------------------------------------------------------------
    def take_dirty(self) -> List[PrefixToken]:
        """Prefixes whose entries changed since the last take (mark order)."""
        dirty = list(self._dirty)
        self._dirty.clear()
        return dirty

    def clear_dirty(self, prefix: PrefixToken) -> None:
        """Acknowledge that ``prefix`` has been re-decided."""
        self._dirty.pop(prefix, None)

    @property
    def dirty_count(self) -> int:
        """Number of prefixes currently awaiting a decision."""
        return len(self._dirty)

    # ------------------------------------------------------------------
    # Structural queries (radix-only surface)
    # ------------------------------------------------------------------
    def covered(self, prefix: Prefix) -> List[Prefix]:
        """Stored :class:`Prefix` keys inside ``prefix`` ((addr, length) order)."""
        return [stored for stored, _bucket in self._trie.covered(prefix)]


class RadixLocRIB:
    """Selected best route per prefix, with longest-match lookup."""

    def __init__(self) -> None:
        self._best: Dict[PrefixToken, Route] = {}
        self._trie = PrefixTrie()

    def best(self, prefix: PrefixToken) -> Optional[Route]:
        """The currently selected route for ``prefix`` (None if unreachable)."""
        return self._best.get(prefix)

    def install(self, prefix: PrefixToken, route: Optional[Route]) -> bool:
        """Set the best route; returns True if it changed."""
        previous = self._best.get(prefix)
        if route == previous:
            return False
        if route is None:
            self._best.pop(prefix, None)
            if isinstance(prefix, Prefix) and prefix in self._trie:
                self._trie.delete(prefix)
        else:
            self._best[prefix] = route
            if isinstance(prefix, Prefix):
                self._trie.insert(prefix, route)
        return True

    def retire(self, prefix: PrefixToken) -> None:
        """Forget ``prefix``'s entry (no change is reported)."""
        if prefix in self._best:
            del self._best[prefix]
            if isinstance(prefix, Prefix):
                self._trie.delete(prefix)

    def prefixes(self) -> List[PrefixToken]:
        """All prefixes with an installed route (insertion order)."""
        return list(self._best)

    def entries(self) -> List[Tuple[PrefixToken, Route]]:
        """All ``(prefix, route)`` pairs in insertion order (checkpointing)."""
        return list(self._best.items())

    def __len__(self) -> int:
        return len(self._best)

    # ------------------------------------------------------------------
    # Structural queries (radix-only surface)
    # ------------------------------------------------------------------
    def longest_match(self, prefix: Prefix) -> Optional[Tuple[Prefix, Route]]:
        """The most specific installed route covering ``prefix``."""
        return self._trie.longest_match(prefix)

    def covered(self, prefix: Prefix) -> List[Tuple[Prefix, Route]]:
        """Installed routes inside ``prefix`` ((addr, length) order)."""
        return list(self._trie.covered(prefix))
