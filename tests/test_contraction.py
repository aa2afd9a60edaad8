import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import AsymptoticParams, delta_asymptotic
from thinpart.contraction import (
    BalanceError,
    ContractionParams,
    balance_holds,
    contraction_constants,
    delta_opt,
    markov_superlevel_bound,
    phi,
)


def _balanced_triples(count, seed):
    """Random triples satisfying the strict balance condition."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a1 = float(np.exp(rng.uniform(np.log(1.2), np.log(8.0))))
        a2 = float(np.exp(rng.uniform(np.log(0.05), np.log(0.8))))
        p = float(rng.uniform(0.3, 0.98))
        if balance_holds(a1, a2, p):
            out.append((a1, a2, p))
    return out


class TestWorkedCase:
    def test_closed_form_minimizer(self):
        assert delta_opt(2.0, 0.5, 0.9) == pytest.approx(
            math.log(9.0) / math.log(4.0), abs=1e-12
        )

    def test_value_at_minimizer(self):
        delta0 = delta_opt(2.0, 0.5, 0.9)
        assert phi(delta0, 2.0, 0.5, 0.9) == pytest.approx(0.6, abs=1e-12)


class TestOptimizer:
    def test_ternary_search_oracle(self):
        # independent localization of the argmin; phi is strictly convex
        for a1, a2, p in _balanced_triples(300, seed=41):
            closed = delta_opt(a1, a2, p)
            lo, hi = 0.0, 2.0 * closed + 1.0
            for _ in range(200):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if phi(m1, a1, a2, p) <= phi(m2, a1, a2, p):
                    hi = m2
                else:
                    lo = m1
            assert abs(0.5 * (lo + hi) - closed) <= 1e-6

    def test_minimum_beats_neighbors(self):
        for a1, a2, p in _balanced_triples(100, seed=42):
            delta0 = delta_opt(a1, a2, p)
            v0 = phi(delta0, a1, a2, p)
            assert v0 < 1.0
            for shift in (-0.01, 0.01, -1e-4, 1e-4):
                if delta0 + shift > 0:
                    assert v0 <= phi(delta0 + shift, a1, a2, p) + 1e-15

    def test_unbalanced_raises(self):
        assert not balance_holds(2.0, 0.01, 0.5)
        with pytest.raises(BalanceError):
            delta_opt(2.0, 0.01, 0.5)

    def test_degenerate_probability_rejected(self):
        with pytest.raises(ValueError):
            delta_opt(2.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            balance_holds(2.0, 0.5, 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_phi_at_zero_is_one(self, index):
        rng = np.random.default_rng([43, index])
        a1 = float(np.exp(rng.uniform(0.1, 2.0)))
        a2 = float(np.exp(rng.uniform(-3.0, -0.1)))
        p = float(rng.uniform(0.0, 1.0))
        assert phi(0.0, a1, a2, p) == pytest.approx(1.0, abs=1e-12)


class TestDriftConstants:
    def test_constants_from_worked_case(self):
        cp = contraction_constants(2.0, 0.5, 0.9, rho0=0.25)
        assert cp.c == pytest.approx(0.6, abs=1e-12)
        assert cp.b == pytest.approx(0.125 ** (-cp.delta), rel=1e-12)
        assert 0.0 < cp.c < 1.0

    def test_validation_rejects_no_contraction(self):
        with pytest.raises(BalanceError):
            ContractionParams(a1=2.0, a2=0.5, p=0.9, rho0=0.25, delta=1.0, c=1.5, b=1.0)
        with pytest.raises(ValueError):
            ContractionParams(a1=2.0, a2=0.5, p=0.9, rho0=0.25, delta=1.0, c=0.5, b=0.0)

    def test_markov_bound(self):
        assert markov_superlevel_bound(0.5, 2.0, 8.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            markov_superlevel_bound(1.0, 2.0, 8.0)
        with pytest.raises(ValueError):
            markov_superlevel_bound(0.5, 2.0, 0.0)

    def test_superlevel_bound_shrinks_with_level(self):
        bounds = [markov_superlevel_bound(0.9, 1.0, m) for m in (1.0, 10.0, 100.0)]
        assert bounds[0] > bounds[1] > bounds[2]


class TestAsymptotics:
    def test_small_lambda_gives_none(self):
        ap = AsymptoticParams(h=2.0, alpha=1.0, zeta=1.0, a0=1.0)
        assert delta_asymptotic(ap, 1.1) is None

    def test_monotone_approach_to_limit(self):
        ap = AsymptoticParams(h=2.0, alpha=1.0, zeta=1.0, a0=1.0)
        lams = [10.0**k for k in range(2, 10)]
        values = [delta_asymptotic(ap, lam) for lam in lams]
        values = [v for v in values if v is not None]
        assert len(values) >= 5
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < ap.alpha / ap.h for v in values)

    def test_reference_values(self):
        # frozen from the closed form evaluated by hand at lambda = 1e8
        ap2 = AsymptoticParams(h=2.0, alpha=1.0, zeta=1.0, a0=1.0)
        ap1 = AsymptoticParams(h=1.0, alpha=1.0, zeta=1.0, a0=1.0)
        v2 = delta_asymptotic(ap2, 1e8)
        v1 = delta_asymptotic(ap1, 1e8)
        assert v2 == pytest.approx(0.384914, abs=1e-5)
        assert v1 == pytest.approx(0.792133, abs=1e-5)

    def test_no_cancellation_or_underflow_at_huge_lambda(self):
        # 1 - lam^-1 rounds to 1 from lam ~ 1e17, and lam^-2 underflows at
        # 1e300; neither may turn into a None
        for h in (2.0, 1.0):
            ap = AsymptoticParams(h=h, alpha=1.0, zeta=1.0, a0=1.0)
            values = [delta_asymptotic(ap, lam) for lam in (1e8, 1e17, 1e30, 1e300)]
            assert all(v is not None for v in values)
            assert all(a < b for a, b in zip(values, values[1:]))
            assert all(v < ap.alpha / ap.h for v in values)

    def test_agrees_with_delta_opt_where_p_is_representable(self):
        for h in (2.0, 1.0):
            ap = AsymptoticParams(h=h, alpha=1.0, zeta=1.0, a0=1.0)
            for lam in (1e2, 1e4, 1e8):
                a2 = lam ** (-h)
                p = 1 - lam ** (-1.0)
                assert delta_asymptotic(ap, lam) == pytest.approx(
                    delta_opt(2.0, a2, p), abs=1e-9
                )

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            AsymptoticParams(h=0.0, alpha=1.0, zeta=1.0, a0=1.0)
        ap = AsymptoticParams(h=1.0, alpha=1.0, zeta=1.0, a0=1.0)
        with pytest.raises(ValueError):
            delta_asymptotic(ap, 0.0)
