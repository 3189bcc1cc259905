"""The BGP decision process (Sec. 2 of the paper).

Selection order among candidate routes for a prefix:

1. highest local preference (customer > peer > provider, set at import),
2. shortest AS path,
3. stable hash of the node ids (deterministic, receiver-salted).

Locally originated routes carry a local preference above customer routes
and therefore always win at the origin.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bgp.route import Route


def better(a: Route, b: Route, receiver_id: int) -> bool:
    """Whether ``a`` is strictly preferred to ``b`` at ``receiver_id``.

    The same answer as ``a.preference_key(receiver_id) <
    b.preference_key(receiver_id)``, but the tie-break hash — a SplitMix64
    chain over the whole path on a cold route — is only consulted when
    local preference and path length tie.
    """
    pref_a = a.local_pref
    pref_b = b.local_pref
    if pref_a != pref_b:
        return pref_a > pref_b
    length_a = len(a.path)
    length_b = len(b.path)
    if length_a != length_b:
        return length_a < length_b
    return a.preference_key(receiver_id) < b.preference_key(receiver_id)


def not_worse(a: Route, b: Route, receiver_id: int) -> bool:
    """Whether ``a`` is at least as preferred as ``b`` (key ``<=``)."""
    return not better(b, a, receiver_id)


def select_best(receiver_id: int, candidates: List[Route]) -> Optional[Route]:
    """Pick the most preferred route, or None when no candidate exists.

    The first of equally preferred candidates wins, as with
    :func:`repro.bgp.route.best_route`, the key-based reference.
    """
    best: Optional[Route] = None
    for route in candidates:
        if best is None or better(route, best, receiver_id):
            best = route
    return best


def rank(receiver_id: int, candidates: List[Route]) -> List[Route]:
    """All candidates ordered from most to least preferred."""
    return sorted(candidates, key=lambda route: route.preference_key(receiver_id))
