"""Routes and the attributes the decision process compares.

A :class:`Route` is an AS path to a prefix together with the local
preference the receiving AS assigned on import.  Paths are tuples of node
ids ordered most-recent-first: ``path[0]`` is the neighbour that advertised
the route, ``path[-1]`` the origin AS.  The origin's own route to its
prefix is represented with an empty path and :data:`LOCAL_ROUTE_PREF`,
which outranks anything learned from a neighbour.

Hot-path representation
-----------------------

Routes sit on the innermost simulation loop (every delivered update runs
the decision process over them), so the class is hand-slotted rather than
a dataclass and two layers of value sharing keep the per-route cost low:

* **path interning** (:func:`intern_path`) — equal AS-path tuples are
  one shared object, so a churning prefix re-imported thousands of times
  carries one path allocation, and tuple equality short-circuits on
  identity;
* **route interning** (:func:`import_route` / :func:`local_route` build
  through an intern table) — re-importing the same (prefix, path,
  local_pref) yields the *same* ``Route`` object, which makes the
  ``previous == route`` / Loc-RIB comparisons identity-fast and shares
  the per-route preference-key cache below across re-announcements.

``preference_key`` results are memoized per (route, receiver): the
SplitMix64 chain over the full AS path used to re-run on *every*
comparison inside ``best_route``/``select_best``; now it runs once per
(route, receiver) for the lifetime of the route object.  The cache is a
plain dict stored in a slot that is excluded from equality/hash/repr, so
the route still behaves as a frozen value object.

The intern tables are process-global caches keyed purely by value —
sharing them across concurrent simulations is safe, and clearing them
(:func:`clear_intern_caches`) only costs future sharing, never
correctness.  They self-clear when they exceed a size cap so arbitrarily
long multi-campaign processes cannot leak unboundedly.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.topology.types import LOCAL_PREFERENCE, Relationship

if TYPE_CHECKING:  # pragma: no cover - the prefix package imports this
    # module at runtime (workload generation hashes with stable_hash), so
    # the reverse import must stay typing-only to avoid a cycle.
    from repro.prefix.prefix import Prefix

#: Local preference of a locally-originated route — above customer routes.
LOCAL_ROUTE_PREF = max(LOCAL_PREFERENCE.values()) + 1

_HASH_MASK = (1 << 64) - 1

#: Cap on each intern table; on overflow the table is cleared (a pure
#: cache eviction — interning is an optimization, not an invariant).
_INTERN_CAP = 1 << 17

_PATH_INTERN: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
_ROUTE_INTERN: Dict[Tuple[int, Tuple[int, ...], int], "Route"] = {}


def stable_hash(*values: int) -> int:
    """Deterministic 64-bit mix of integers (SplitMix64 chain).

    Python's builtin ``hash`` is salted per process for strings and not
    guaranteed stable across versions for composite values; the decision
    tie-break (Sec. 2: "based on a hashed value of the node IDs") must be
    reproducible, so we use our own mixer.
    """
    state = 0x9E3779B97F4A7C15
    for value in values:
        state = (state + (value & _HASH_MASK) + 0x9E3779B97F4A7C15) & _HASH_MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _HASH_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _HASH_MASK
        state = z ^ (z >> 31)
    return state


def intern_path(path: Tuple[int, ...]) -> Tuple[int, ...]:
    """The canonical shared tuple equal to ``path``."""
    cached = _PATH_INTERN.get(path)
    if cached is not None:
        return cached
    if len(_PATH_INTERN) >= _INTERN_CAP:
        _PATH_INTERN.clear()
    _PATH_INTERN[path] = path
    return path


def clear_intern_caches() -> None:
    """Drop the path/route intern tables (tests, memory pressure)."""
    _PATH_INTERN.clear()
    _ROUTE_INTERN.clear()


class Route:
    """An imported route for one prefix (frozen value object)."""

    __slots__ = ("prefix", "path", "local_pref", "_pref_keys")

    def __init__(
        self, prefix: "Prefix", path: Tuple[int, ...], local_pref: int
    ) -> None:
        _set = object.__setattr__
        _set(self, "prefix", prefix)
        _set(self, "path", intern_path(tuple(path)))
        _set(self, "local_pref", local_pref)
        _set(self, "_pref_keys", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Route):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.local_pref == other.local_pref
            and self.path == other.path
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self.prefix, self.path, self.local_pref))

    def __repr__(self) -> str:
        return (
            f"Route(prefix={self.prefix!r}, path={self.path!r}, "
            f"local_pref={self.local_pref!r})"
        )

    def __reduce__(self):
        # Pickle as the constructor call; the per-receiver key cache is a
        # derived memo and is rebuilt lazily on the other side.
        return (Route, (self.prefix, self.path, self.local_pref))

    @property
    def next_hop(self) -> Optional[int]:
        """The neighbour the route was learned from (None for local routes)."""
        return self.path[0] if self.path else None

    @property
    def origin(self) -> Optional[int]:
        """The AS that originated the prefix (None for local routes)."""
        return self.path[-1] if self.path else None

    @property
    def is_local(self) -> bool:
        """Whether this is the origin's own route to its prefix."""
        return not self.path

    def contains(self, node_id: int) -> bool:
        """Whether ``node_id`` appears on the AS path (loop check)."""
        return node_id in self.path

    def preference_key(self, receiver_id: int) -> Tuple[int, int, int]:
        """Sort key: lower is better.

        Ordering per Sec. 2: highest local preference, then shortest AS
        path, then a stable hash of the node ids on the path (and the
        receiver, so different receivers break ties independently).
        Memoized per receiver — the underlying values are all immutable.
        """
        key = self._pref_keys.get(receiver_id)
        if key is None:
            key = (
                -self.local_pref,
                len(self.path),
                stable_hash(receiver_id, *self.path),
            )
            self._pref_keys[receiver_id] = key
        return key


def make_route(prefix: "Prefix", path: Tuple[int, ...], local_pref: int) -> Route:
    """Build (or reuse) the interned :class:`Route` for these attributes."""
    key = (prefix, path, local_pref)
    route = _ROUTE_INTERN.get(key)
    if route is None:
        if len(_ROUTE_INTERN) >= _INTERN_CAP:
            _ROUTE_INTERN.clear()
        route = Route(prefix=prefix, path=path, local_pref=local_pref)
        _ROUTE_INTERN[(prefix, route.path, local_pref)] = route
    return route


def local_route(prefix: "Prefix") -> Route:
    """The origin's own route to ``prefix``."""
    return make_route(prefix, (), LOCAL_ROUTE_PREF)


def import_route(
    prefix: "Prefix", path: Tuple[int, ...], learned_from_relationship: Relationship
) -> Route:
    """Build the imported :class:`Route` for an announcement from a neighbour."""
    return make_route(prefix, path, LOCAL_PREFERENCE[learned_from_relationship])


def best_route(routes: "list[Route]", receiver_id: int) -> Optional[Route]:
    """The most preferred route among ``routes`` (None if empty)."""
    best: Optional[Route] = None
    best_key: Optional[Tuple[int, int, int]] = None
    for route in routes:
        key = route.preference_key(receiver_id)
        if best_key is None or key < best_key:
            best = route
            best_key = key
    return best
