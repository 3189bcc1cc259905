"""Attachment rules used by the generator.

The paper's generator selects providers and M-node peers by **preferential
attachment** (Barabási–Albert style), which produces the power-law degree
distribution observed in the Internet, while CP nodes select their peers
**uniformly** among eligible candidates.

The weight used for provider selection is the candidate's current transit
degree; for M–M peering it is the candidate's current *peering* degree
(Sec. 3: "considering only the peering degree of each potential peer").
Every weight gets a +1 offset so newborn nodes with zero degree remain
selectable (standard BA initialization).

Weights change by one per link while pools hold thousands of candidates,
so they live in a :class:`WeightedPool` that is updated in place instead
of being re-accumulated for every draw.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Set

from repro.errors import ParameterError


class WeightedPool:
    """Preferential-attachment candidates with incrementally kept weights.

    Items keep their insertion order; each carries an integer weight (the
    generator stores ``degree + 1``).  A Fenwick tree over the weights
    makes a weight change, a temporary exclusion (:meth:`hide`) and a
    draw O(log n) each, so choosing a provider no longer costs a pass
    over every candidate.

    :func:`preferential_draw` selects exactly the item that accumulating
    the visible items' weights into a list and bisecting it would: the
    first one at which the running total reaches the drawn target.
    """

    __slots__ = ("items", "total", "_position", "_weights", "_tree", "_hidden")

    def __init__(
        self,
        items: Iterable[int] = (),
        weight_of: Callable[[int], int] = lambda _item: 1,
    ) -> None:
        self.items: List[int] = list(items)
        self._position: Dict[int, int] = {
            item: index for index, item in enumerate(self.items)
        }
        self._weights: List[int] = [weight_of(item) for item in self.items]
        self._hidden: Set[int] = set()
        self.total: int = sum(self._weights)
        #: 1-based Fenwick tree: _tree[i] sums the visible weights of the
        #: ``i & -i`` items ending at item ``i - 1``.
        self._tree: List[int] = [0] + self._weights
        for index in range(1, len(self._tree)):
            parent = index + (index & -index)
            if parent < len(self._tree):
                self._tree[parent] += self._tree[index]

    def __contains__(self, item: int) -> bool:
        return item in self._position

    def __len__(self) -> int:
        return len(self.items)

    def append(self, item: int, weight: int) -> None:
        """Add ``item`` after all present items."""
        self._position[item] = len(self.items)
        self.items.append(item)
        self._weights.append(weight)
        self.total += weight
        index = len(self.items)
        covered = weight
        below = index - 1
        while below > index - (index & -index):
            covered += self._tree[below]
            below -= below & -below
        self._tree.append(covered)

    def add_weight(self, item: int, delta: int) -> None:
        """Change ``item``'s weight; a hidden item shows it once unhidden."""
        self._weights[self._position[item]] += delta
        if item not in self._hidden:
            self._shift(item, delta)

    def hide(self, item: int) -> bool:
        """Exclude ``item`` from draws; False if it already was."""
        if item in self._hidden:
            return False
        self._hidden.add(item)
        self._shift(item, -self._weights[self._position[item]])
        return True

    def unhide(self, item: int) -> None:
        """Undo :meth:`hide`."""
        self._hidden.remove(item)
        self._shift(item, self._weights[self._position[item]])

    def visible(self) -> Iterator[int]:
        """The items draws can return, in insertion order."""
        hidden = self._hidden
        return (item for item in self.items if item not in hidden)

    def select(self, target: float, base: int = 0) -> int:
        """The first visible item at which ``base`` plus the running sum of
        visible weights reaches ``target``.

        Requires ``base < target <= base + total``.  Sums stay integers,
        so each comparison against the float target is exact.
        """
        tree = self._tree
        size = len(self.items)
        position = 0
        step = 1 << (size.bit_length() - 1)
        while step:
            probe = position + step
            if probe <= size and base + tree[probe] < target:
                position = probe
                base += tree[probe]
            step >>= 1
        return self.items[position]

    def _shift(self, item: int, delta: int) -> None:
        self.total += delta
        index = self._position[item] + 1
        tree = self._tree
        size = len(tree)
        while index < size:
            tree[index] += delta
            index += index & -index


def preferential_draw(pools: Sequence[WeightedPool], rng: random.Random) -> int:
    """Draw one visible item, with probability proportional to its weight,
    from the concatenation of ``pools``.

    Raises :class:`ParameterError` when no pool has a visible item.
    """
    total = sum(pool.total for pool in pools)
    if not total:
        raise ParameterError("preferential draw from an empty candidate pool")
    target = rng.uniform(0.0, total)
    if target == 0.0:
        # Bisecting the cumulative weights maps a draw of exactly 0.0 to
        # the first candidate; every target in (0, 1] selects the same one
        # here without stopping on hidden items ahead of it.
        target = 1.0
    base = 0
    for pool in pools[:-1]:
        if target <= base + pool.total:
            return pool.select(target, base)
        base += pool.total
    return pools[-1].select(target, base)


def preferential_choice(
    candidates: Sequence[int],
    weight_of: Callable[[int], int],
    rng: random.Random,
) -> int:
    """Pick one candidate with probability proportional to ``weight + 1``.

    One-shot form of :func:`preferential_draw` for a candidate list that
    had to be assembled anyway.  Raises :class:`ParameterError` on an
    empty candidate list.
    """
    if not candidates:
        raise ParameterError("preferential_choice called with no candidates")
    pool = WeightedPool(candidates, lambda candidate: weight_of(candidate) + 1)
    return preferential_draw((pool,), rng)


def uniform_choice(candidates: Sequence[int], rng: random.Random) -> int:
    """Pick one candidate uniformly at random."""
    if not candidates:
        raise ParameterError("uniform_choice called with no candidates")
    return candidates[rng.randrange(len(candidates))]


def draw_link_count(average: float, rng: random.Random, *, minimum: int = 0) -> int:
    """Draw an integer link count with the paper's uniform spread.

    Degrees are "uniformly distributed between ``minimum`` and twice the
    specified average" (Sec. 3): provider counts use ``minimum=1``, peering
    counts ``minimum=0``.  The continuous draw is converted to an integer by
    probabilistic rounding so the *mean* equals ``average`` exactly, which
    matters for fractional averages such as ``p_cp_cp = 0.05`` (a Bernoulli
    mixture) or ``d_c = 1.05``.
    """
    if average < 0:
        raise ParameterError(f"average link count must be >= 0, got {average}")
    if average <= minimum:
        if minimum == 0:
            return 1 if rng.random() < average else 0
        return minimum
    upper = 2.0 * average - minimum
    value = rng.uniform(minimum, upper)
    floor_value = int(value)
    count = floor_value + (1 if rng.random() < value - floor_value else 0)
    return max(minimum, count)
