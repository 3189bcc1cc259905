"""Tests for attachment helpers (preferential choice, link-count draws)."""

import bisect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.topology.attachment import (
    WeightedPool,
    draw_link_count,
    preferential_choice,
    preferential_draw,
    uniform_choice,
)


def reference_choice(candidates, weights, target):
    """The sampler the pools replaced: accumulate, then bisect."""
    cumulative = list(itertools.accumulate(weights))
    return candidates[bisect.bisect_left(cumulative, target)]


class FixedDraw(random.Random):
    """An RNG whose ``uniform(0, total)`` lands on a chosen point."""

    def __init__(self, fraction=None, absolute=None):
        super().__init__(0)
        self.fraction = fraction
        self.absolute = absolute

    def uniform(self, a, b):
        return self.absolute if self.absolute is not None else a + (b - a) * self.fraction


class TestWeightedPool:
    @given(
        pools=st.lists(
            st.lists(
                st.tuples(st.integers(min_value=1, max_value=40), st.booleans()),
                max_size=12,
            ),
            min_size=1,
            max_size=3,
        ),
        fraction=st.one_of(
            st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
        ),
        on_boundary=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_draw_equals_bisect_over_visible_items(self, pools, fraction, on_boundary):
        """Same target, same item as the accumulate-and-bisect sampler —
        across pools, with hidden items, at 0.0, at the total and exactly
        on a cumulative boundary."""
        built, candidates, weights, next_item = [], [], [], 0
        for spec in pools:
            pool = WeightedPool()
            for weight, hidden in spec:
                pool.append(next_item, weight)
                if hidden:
                    assert pool.hide(next_item)
                else:
                    candidates.append(next_item)
                    weights.append(weight)
                next_item += 1
            built.append(pool)
        if not candidates:
            with pytest.raises(ParameterError):
                preferential_draw(built, random.Random(0))
            return
        target = 0.0 + (sum(weights) - 0.0) * fraction
        if on_boundary:
            target = float(round(target))
        expected = reference_choice(candidates, weights, target)
        assert preferential_draw(built, FixedDraw(absolute=target)) == expected

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["append", "add", "hide", "unhide"]),
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=1, max_value=9),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_incremental_updates_match_a_rebuilt_pool(self, steps):
        pool = WeightedPool()
        weights, hidden = {}, set()
        for kind, item, amount in steps:
            if kind == "append":
                item = len(weights)
                pool.append(item, amount)
                weights[item] = amount
            elif item not in weights:
                continue
            elif kind == "add":
                pool.add_weight(item, amount)
                weights[item] += amount
            elif kind == "hide":
                assert pool.hide(item) == (item not in hidden)
                hidden.add(item)
            elif item in hidden:
                pool.unhide(item)
                hidden.discard(item)
        visible = [item for item in weights if item not in hidden]
        assert list(pool.visible()) == visible
        assert pool.total == sum(weights[item] for item in visible)
        rebuilt = WeightedPool(visible, weights.__getitem__)
        for numerator in range(0, 11):
            if not visible:
                break
            rng_a, rng_b = FixedDraw(numerator / 10), FixedDraw(numerator / 10)
            assert preferential_draw([pool], rng_a) == preferential_draw([rebuilt], rng_b)

    def test_one_rng_draw_per_choice(self):
        """A draw consumes exactly one ``random()``, as the bisect sampler did."""
        pool = WeightedPool(range(50))
        rng, twin = random.Random(3), random.Random(3)
        for _ in range(20):
            preferential_draw([pool], rng)
            twin.uniform(0.0, 50)
        assert rng.random() == twin.random()

    def test_hidden_weight_changes_show_after_unhide(self):
        pool = WeightedPool([1, 2], lambda _item: 1)
        pool.hide(1)
        pool.add_weight(1, 5)
        assert pool.total == 1
        pool.unhide(1)
        assert pool.total == 7
        assert 1 in pool and 3 not in pool and len(pool) == 2


class TestPreferentialChoice:
    @given(
        weights=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=25),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_sampler(self, weights, seed):
        candidates = list(range(100, 100 + len(weights)))
        plus_one = [w + 1 for w in weights]
        target = random.Random(seed).uniform(0.0, sum(plus_one))
        chosen = preferential_choice(
            candidates, lambda c: weights[c - 100], random.Random(seed)
        )
        assert chosen == reference_choice(candidates, plus_one, target)

    def test_empty_candidates(self):
        with pytest.raises(ParameterError):
            preferential_choice([], lambda _: 1, random.Random(0))

    def test_single_candidate(self):
        rng = random.Random(0)
        assert preferential_choice([7], lambda _: 0, rng) == 7

    def test_weight_proportionality(self):
        """A candidate with weight 99 is drawn ~50x more often than weight 1."""
        rng = random.Random(5)
        weights = {0: 99, 1: 1}
        draws = [
            preferential_choice([0, 1], weights.__getitem__, rng)
            for _ in range(5000)
        ]
        heavy = draws.count(0)
        # expected ratio (99+1)/(1+1) = 50 -> p(0) = 50/51 ~ 0.98
        assert heavy / 5000 > 0.94

    def test_zero_weight_still_selectable(self):
        """The +1 offset keeps newborn nodes reachable."""
        rng = random.Random(9)
        draws = {
            preferential_choice([0, 1], lambda _: 0, rng) for _ in range(200)
        }
        assert draws == {0, 1}


class TestUniformChoice:
    def test_empty(self):
        with pytest.raises(ParameterError):
            uniform_choice([], random.Random(0))

    def test_covers_all(self):
        rng = random.Random(2)
        draws = {uniform_choice([1, 2, 3], rng) for _ in range(200)}
        assert draws == {1, 2, 3}


class TestDrawLinkCount:
    def test_negative_average_rejected(self):
        with pytest.raises(ParameterError):
            draw_link_count(-0.5, random.Random(0))

    def test_zero_average(self):
        rng = random.Random(0)
        assert all(draw_link_count(0.0, rng) == 0 for _ in range(20))

    def test_minimum_respected(self):
        rng = random.Random(1)
        assert all(
            draw_link_count(2.5, rng, minimum=1) >= 1 for _ in range(500)
        )

    def test_average_at_minimum_is_deterministic(self):
        rng = random.Random(1)
        assert all(draw_link_count(1.0, rng, minimum=1) == 1 for _ in range(50))

    def test_mean_preserved_provider_style(self):
        """Provider draws (minimum=1) keep the requested mean."""
        rng = random.Random(3)
        for average in (1.05, 2.0, 2.25, 4.5):
            draws = [
                draw_link_count(average, rng, minimum=1) for _ in range(20000)
            ]
            assert sum(draws) / len(draws) == pytest.approx(average, rel=0.05)

    def test_mean_preserved_fractional_peering(self):
        """Tiny peering averages become Bernoulli draws with the right mean."""
        rng = random.Random(4)
        draws = [draw_link_count(0.05, rng, minimum=0) for _ in range(40000)]
        assert sum(draws) / len(draws) == pytest.approx(0.05, rel=0.15)
        assert set(draws) <= {0, 1}

    def test_upper_bound_roughly_twice_average(self):
        rng = random.Random(5)
        draws = [draw_link_count(3.0, rng, minimum=1) for _ in range(5000)]
        assert max(draws) <= 6  # 2*average, +1 from probabilistic rounding
