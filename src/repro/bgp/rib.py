"""Routing information bases.

Each simulated AS keeps, per the node model of Fig. 2:

* an **Adj-RIB-In** per neighbour ("neighbor routing tables"): the latest
  route each neighbour advertised for each prefix;
* a **Loc-RIB** ("forwarding table"): the currently selected best route
  per prefix.

Both are tiny wrappers over dicts, kept as classes so invariants (a
withdrawal removes state, announcements replace) live in one place.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.bgp.route import Route
from repro.prefix.prefix import Prefix


class AdjRIBIn:
    """Latest routes learned from neighbours, keyed (prefix, neighbour).

    The flat ``(prefix, neighbour) -> route`` dict stays authoritative —
    its insertion order is the checkpoint contract (:meth:`entries`) and
    feeds :meth:`prefixes_from`/:meth:`prefixes`.  A per-prefix index
    mirrors it so :meth:`candidates` (the decision process hot path) is
    O(neighbours of this prefix) instead of O(all routes at this node).
    Within one prefix both orders coincide: a dict re-assignment keeps the
    slot position and a delete+reinsert appends, in the flat dict and the
    inner index alike, so candidate iteration order is unchanged.

    The RIB keeps no record of which prefixes changed: the node decides a
    prefix again as each of its entries changes, and a session flush
    decides again exactly the prefixes :meth:`prefixes_from` lists.
    """

    def __init__(self) -> None:
        self._routes: Dict[Tuple[Prefix, int], Route] = {}
        self._by_prefix: Dict[Prefix, Dict[int, Route]] = {}

    def update(self, prefix: Prefix, neighbor: int, route: Optional[Route]) -> Optional[Route]:
        """Install ``route`` (or remove on ``None``); returns the previous route."""
        key = (prefix, neighbor)
        previous = self._routes.get(key)
        if route is None:
            if previous is None:
                return None  # withdrawing an absent entry: no state change
            del self._routes[key]
            per_prefix = self._by_prefix.get(prefix)
            if per_prefix is not None:
                per_prefix.pop(neighbor, None)
                if not per_prefix:
                    del self._by_prefix[prefix]
        else:
            if previous is route:
                return previous  # identical interned route: no state change
            self._routes[key] = route
            self._by_prefix.setdefault(prefix, {})[neighbor] = route
        return previous

    def retire(self, prefix: Prefix) -> None:
        """Forget every entry for ``prefix``."""
        by_prefix = self._by_prefix
        if prefix in by_prefix:
            routes = self._routes
            for neighbor in by_prefix[prefix]:
                del routes[(prefix, neighbor)]
            del by_prefix[prefix]

    def route_from(self, prefix: Prefix, neighbor: int) -> Optional[Route]:
        """The route ``neighbor`` currently advertises for ``prefix``."""
        return self._routes.get((prefix, neighbor))

    def candidates(self, prefix: Prefix) -> List[Tuple[int, Route]]:
        """All (neighbour, route) pairs for ``prefix``."""
        per_prefix = self._by_prefix.get(prefix)
        if per_prefix is None:
            return []
        return list(per_prefix.items())

    def prefixes(self) -> Iterator[Prefix]:
        """All prefixes with at least one learned route (repeat-free)."""
        seen = set()
        for prefix, _neighbor in self._routes:
            if prefix not in seen:
                seen.add(prefix)
                yield prefix

    def prefixes_from(self, neighbor: int) -> List[Prefix]:
        """All prefixes for which ``neighbor`` currently advertises a route."""
        return [pfx for (pfx, nbr) in self._routes if nbr == neighbor]

    def entries(self) -> List[Tuple[Prefix, int, Route]]:
        """All ``(prefix, neighbor, route)`` entries in insertion order.

        Replaying them through :meth:`update` on an empty RIB reproduces
        the exact internal dict order (checkpoint restore relies on this:
        candidate iteration order feeds the decision process).
        """
        return [
            (prefix, neighbor, route)
            for (prefix, neighbor), route in self._routes.items()
        ]

    def __len__(self) -> int:
        return len(self._routes)


class LocRIB:
    """Selected best route per prefix."""

    def __init__(self) -> None:
        self._best: Dict[Prefix, Route] = {}

    def best(self, prefix: Prefix) -> Optional[Route]:
        """The currently selected route for ``prefix`` (None if unreachable)."""
        return self._best.get(prefix)

    def install(self, prefix: Prefix, route: Optional[Route]) -> bool:
        """Set the best route; returns True if it changed."""
        previous = self._best.get(prefix)
        if route == previous:
            return False
        if route is None:
            self._best.pop(prefix, None)
        else:
            self._best[prefix] = route
        return True

    def retire(self, prefix: Prefix) -> None:
        """Forget ``prefix``'s entry (no change is reported)."""
        if prefix in self._best:
            del self._best[prefix]

    def prefixes(self) -> List[Prefix]:
        """All prefixes with an installed route."""
        return list(self._best)

    def entries(self) -> List[Tuple[Prefix, Route]]:
        """All ``(prefix, route)`` pairs in insertion order (checkpointing)."""
        return list(self._best.items())

    def __len__(self) -> int:
        return len(self._best)
