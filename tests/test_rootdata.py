from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import type_a_positive_roots
from thinpart.rootdata import (
    delta_lower_bound,
    group_constants,
    order_bound_real,
)

# Closed-form data for A_rank, computed by hand:
# (positive root count, largest height, largest highest-root coefficient).
_CLOSED_FORMS = {
    ("A", 1): (1, 1, 1),
    ("A", 2): (3, 2, 1),
    ("A", 3): (6, 3, 1),
    ("A", 5): (15, 5, 1),
}


class TestRootSystems:
    """The explicit root enumeration behind group_constants' closed forms."""

    @pytest.mark.parametrize("family,rank", sorted(_CLOSED_FORMS))
    def test_counts_heights_coefficients(self, family, rank):
        count, ht, cmax = _CLOSED_FORMS[(family, rank)]
        roots = type_a_positive_roots(rank)
        highest = max(roots, key=sum)
        assert len(roots) == count
        assert sum(highest) == ht == group_constants(rank + 1).ht_sum
        assert max(highest) == cmax

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_type_a_height_multiset(self, rank):
        # height h occurs rank + 1 - h times in A_rank
        heights = sorted(sum(root) for root in type_a_positive_roots(rank))
        want = sorted(h for h in range(1, rank + 1) for _ in range(rank + 1 - h))
        assert heights == want

    def test_coefficients_are_nonnegative(self):
        for _, rank in _CLOSED_FORMS:
            roots = type_a_positive_roots(rank)
            assert all(c >= 0 for root in roots for c in root)
            assert all(sum(root) >= 1 for root in roots)


class TestGroupConstants:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_dimension_formulas(self, n):
        gc = group_constants(n)
        assert gc.dim_g == n * n - 1
        assert gc.dim_u == n * (n - 1) // 2
        assert gc.rank_k == n // 2
        assert gc.ht_sum == n - 1

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            group_constants(1)


class TestExactBounds:
    # Frozen by hand from the closed forms:
    #   order bound (6 ht dim_u + 1)^rank_k, delta (3 ht dim_g)^-(rank_k + 1)
    _EXPECTED = {
        2: (7, Fraction(1, 81)),
        3: (37, Fraction(1, 2304)),
        4: (11881, Fraction(1, 2460375)),
    }

    @pytest.mark.parametrize("n", sorted(_EXPECTED))
    def test_frozen_values(self, n):
        want_order, want_delta = self._EXPECTED[n]
        gc = group_constants(n)
        assert order_bound_real(gc) == want_order
        db = delta_lower_bound(gc)
        assert db.delta == want_delta

    @pytest.mark.parametrize("n", range(2, 9))
    def test_chain_ordering(self, n):
        # the order-based inverse bound is the sharper of the two
        db = delta_lower_bound(group_constants(n))
        assert db.delta.numerator == 1
        assert 0 < db.inverse_order <= db.delta.denominator

    def test_delta_decreases_with_n(self):
        deltas = [delta_lower_bound(group_constants(n)).delta for n in range(2, 8)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    @given(st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_rational_arithmetic_only(self, n):
        db = delta_lower_bound(group_constants(n))
        assert isinstance(db.delta, Fraction)
        assert db.delta > 0
        assert order_bound_real(group_constants(n)) >= 7
