import functools
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    LogDomainError,
    ad_operator,
    ball_points,
    diagonal_ad_norm,
    entry_window,
    expansion_probability_quadrature,
    gauss_radius,
    gauss_reduce,
    int_det,
    kron_radius,
    lattice_candidates,
    mat_log,
    mu_s_draw,
    nilpotent_log_norm,
    op_norm,
    qr_lll_reduce,
    sl3_window_radius,
    sl_basis,
    square_zero_log_norm,
)
from thinpart.harness.config import ExperimentConfig, derive_group
from thinpart.harness.experiments import model_radius, sample_base_conjugator
from thinpart import slgroup
from thinpart.linalg import frobenius, haar_orthogonal
from thinpart.slgroup import (
    DegenerateRayError,
    RadiusParams,
    ZASSENHAUS_RADIUS,
    _gauss_reduce_stack,
    _lll_reduce,
    _pair_radius,
    _search_ball,
    discreteness_radii,
    exact_expansion_probability,
    expanding_element,
    mu_s_draws,
    radius_params,
    reduced_conjugator,
)

E = math.e


# Loose scale: rho = 0.34 / e^2, big enough that moderately conditioned
# conjugators already produce lattice elements below the ceiling.
_LOOSE_SP = expanding_element(2, E**2, math.exp(-1.0))
_LOOSE_RP = radius_params(_LOOSE_SP)
# The default config's scale: rho = 0.34 / e^4.
_DEFAULT_SP = expanding_element(2, 55.0, math.exp(-1.0))
_DEFAULT_RP = radius_params(_DEFAULT_SP)


class TestBasis:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthonormal_traceless(self, n):
        basis = sl_basis(n)
        assert basis.shape == (n * n - 1, n, n)
        gram = np.einsum("aij,bij->ab", basis, basis)
        assert np.abs(gram - np.eye(n * n - 1)).max() <= 1e-12
        assert np.abs(np.trace(basis, axis1=1, axis2=2)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_leading_slots_are_strictly_lower(self, n):
        basis = sl_basis(n)
        dim_u = n * (n - 1) // 2
        for k in range(dim_u):
            assert np.abs(np.triu(basis[k])).max() == 0.0


class TestAdOperator:
    def test_diagonal_element_acts_diagonally(self):
        s = np.diag([2.0, 1.0, 0.5])
        op = ad_operator(s)
        off = op - np.diag(np.diag(op))
        assert np.abs(off).max() <= 1e-12
        assert op_norm(op) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("case", range(30))
    def test_closed_form_norm(self, case):
        rng = np.random.default_rng([31, case])
        n = int(rng.integers(2, 5))
        d = np.exp(rng.uniform(-1.5, 1.5, size=n))
        d /= np.prod(d) ** (1.0 / n)
        closed = diagonal_ad_norm(d)
        numeric = op_norm(ad_operator(np.diag(d)))
        assert abs(closed - numeric) <= 1e-8 * closed

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            ad_operator(np.diag([1.0, 0.0]))


class TestExpandingElement:
    def test_worked_case_n2(self):
        sp = expanding_element(2, 55.0, math.exp(-1.0))
        assert sp.n0 == 4
        assert np.abs(sp.s_lambda - np.diag([E**-2, E**2])).max() <= 1e-12
        assert sp.ad_norm == pytest.approx(E**4, rel=1e-12)

    def test_worked_case_n3(self):
        sp = expanding_element(3, 55.0, math.exp(-1.0))
        # n0 counts ray steps against the adjacent-ratio scale 1/x0 = e,
        # so lambda = 55 still fits four of them; the full Ad norm is then
        # e^(4 ht) = e^8, inside the lambda^ht = 55^2 guarantee.
        assert sp.n0 == 4
        assert np.abs(sp.s_lambda - np.diag([E**-4, 1.0, E**4])).max() <= 1e-10
        assert sp.ad_norm == pytest.approx(E**8, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_norm_guarantee(self, n):
        for lam in (3.0, 10.0, 55.0, 400.0):
            try:
                sp = expanding_element(n, lam, math.exp(-1.0))
            except DegenerateRayError:
                continue
            assert sp.ad_norm <= lam ** (n - 1) * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_forms_match_adjoint_operator(self, n):
        # the spectral norm of the explicit adjoint matrix on all of sl(n)
        for lam in (3.0, 10.0, 55.0, 400.0):
            try:
                sp = expanding_element(n, lam, math.exp(-1.0))
            except DegenerateRayError:
                continue
            numeric = op_norm(ad_operator(sp.s_lambda))
            assert abs(numeric - sp.ad_norm) <= 1e-8 * sp.ad_norm

    def test_scale_below_one_step(self):
        with pytest.raises(DegenerateRayError):
            expanding_element(2, 2.0, math.exp(-1.0))

    def test_radius_params(self):
        sp = expanding_element(2, 55.0, math.exp(-1.0))
        rp = radius_params(sp)
        assert rp.rho == ZASSENHAUS_RADIUS / sp.ad_norm
        assert rp.rho == pytest.approx(0.34 * E**-4, rel=1e-12)
        for rho in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="rho > 0"):
                RadiusParams(rho=rho)

    def test_sampler_singular_values(self):
        sp = expanding_element(2, 55.0, math.exp(-1.0))
        want = np.sort(np.diag(sp.s_lambda))[::-1]
        for case in range(100):
            rng = np.random.default_rng([32, case])
            sv = np.linalg.svd(mu_s_draws(sp, rng, 1)[0], compute_uv=False)
            assert np.abs(sv - want).max() <= 1e-10


class TestCandidateEnumeration:
    def test_identity_small_radius_empty(self):
        # the oracle's window is one unit wider than the proof needs, so
        # it holds the unit shears; none lies in the ball |gamma - I|_F <= r e^r
        cands = lattice_candidates(np.eye(2), 0.3)
        assert cands
        assert all(np.linalg.norm(c - np.eye(2)) > 0.3 * math.exp(0.3) for c in cands)

    def test_identity_unit_ball_frozen_count(self):
        cands = lattice_candidates(np.eye(2), 1.2)
        assert len(cands) == 195
        as_tuples = {tuple(map(tuple, c)) for c in cands}
        for shear in (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1))):
            assert shear in as_tuples
        assert ((1, 0), (0, 1)) not in as_tuples
        assert all(int_det(c) == 1 for c in cands)

    def test_2x2_solver_matches_brute_force(self):
        # independent re-derivation: scan the full integer box
        bound = entry_window(np.eye(2), 1.2)
        brute = set()
        rng_box = range(-bound, bound + 1)
        for a, b, c, d in itertools.product(rng_box, repeat=4):
            gamma = np.array([[1 + a, b], [c, 1 + d]], dtype=np.int64)
            if (a, b, c, d) != (0, 0, 0, 0) and int_det(gamma) == 1:
                brute.add(tuple(map(tuple, gamma)))
        got = {tuple(map(tuple, c)) for c in lattice_candidates(np.eye(2), 1.2)}
        assert got == brute

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_int_det_matches_float_det(self, index):
        rng = np.random.default_rng([33, index])
        n = int(rng.integers(1, 6))
        mat = rng.integers(-9, 10, size=(n, n))
        assert int_det(mat) == round(float(np.linalg.det(mat.astype(float))))


class TestLatticeReduction:
    @pytest.mark.parametrize("case", range(25))
    def test_lll_transform_is_unimodular(self, case):
        rng = np.random.default_rng([34, case])
        d = int(rng.integers(2, 5))
        basis = rng.standard_normal((d, d)) + np.eye(d)
        assert abs(int_det(_lll_reduce(basis)[0])) == 1

    @pytest.mark.parametrize("case", range(15))
    def test_lll_first_vector_quality(self, case):
        rng = np.random.default_rng([35, case])
        d = 3
        basis = rng.integers(-4, 5, size=(d, d)).astype(float)
        # redraw singular bases from the same stream, so every case checks one
        while abs(np.linalg.det(basis)) < 0.5:
            basis = rng.integers(-4, 5, size=(d, d)).astype(float)
        reduced = basis @ _lll_reduce(basis)[0]
        min_col = float(np.linalg.norm(basis, axis=0).min())
        first = float(np.linalg.norm(reduced[:, 0]))
        assert first <= 2.0 ** ((d - 1) / 2.0) * min_col * (1.0 + 1e-9)

    @staticmethod
    def _reduction_inputs():
        # 2 x 2 bases, and the kron(g, g^-T) lattices the kron oracle
        # reduces for base draws at n = 2 and n = 3 up to cond 1e4
        for case in range(300):
            rng = np.random.default_rng([42, case])
            if case % 3 == 0:
                yield rng.standard_normal((2, 2)) * np.exp(rng.uniform(-3.0, 3.0, size=2))
            else:
                g = sample_base_conjugator(case % 3 + 1, rng, cond_low=1.5, cond_high=1e4)
                yield np.kron(g, np.linalg.inv(g).T)

    def test_lll_matches_reference_transform(self):
        # the in-place Gram-Schmidt updates take the same decisions as a
        # fresh QR after every swap
        for basis in self._reduction_inputs():
            _, ref_u = qr_lll_reduce(basis)
            assert np.array_equal(_lll_reduce(basis)[0], ref_u)

    def test_lll_output_is_size_reduced_and_lovasz(self):
        for basis in self._reduction_inputs():
            reduced = basis @ _lll_reduce(basis)[0]
            rr = np.linalg.qr(reduced, mode="r")
            diag = np.diag(rr)
            mu = rr / diag[:, None]  # mu[j, k] for j < k
            star = diag * diag
            for k in range(1, reduced.shape[1]):
                assert np.abs(mu[:k, k]).max() <= 0.5 + 1e-9
                lovasz = (0.75 - mu[k - 1, k] ** 2) * star[k - 1]
                assert star[k] >= lovasz - 1e-9 * star[k - 1]

    def test_lll_triangle_matches_qr(self):
        # the triangle read off the final Gram-Schmidt data, on which the
        # pair search runs its balls, is the positive-diagonal QR triangle
        # of the reduced basis to round-off: on the inputs above, and on
        # the conjugators g and g^-T that the pair search reduces
        inputs = list(self._reduction_inputs())
        for case in range(60):
            rng = np.random.default_rng([41, case])
            g = sample_base_conjugator(case % 3 + 3, rng, cond_low=1.5, cond_high=1e5)
            inputs += [g, np.linalg.inv(g).T]
        for basis in inputs:
            u, rows = _lll_reduce(basis)
            rr = np.linalg.qr(basis @ u, mode="r")
            rr *= np.sign(np.diag(rr))[:, None]
            assert np.abs(np.array(rows) - rr).max() <= 1e-12 * np.abs(rr).max()

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _ball_case(case):
        # one brute force per case, shared by its plain, signed and shrink ids
        rng = np.random.default_rng([36, case])
        d = int(rng.integers(2, 5))
        rmat = np.triu(rng.uniform(-1.0, 1.0, size=(d, d)))
        rmat[np.diag_indices(d)] = rng.uniform(0.4, 1.2, size=d)
        radius = float(rng.uniform(0.8, 2.0))
        signs = rng.choice([-1.0, 1.0], size=d)
        signs[rng.integers(d)] = -1.0
        span = int(math.ceil(radius / np.linalg.svd(rmat, compute_uv=False)[-1]))
        brute = set()
        for y in itertools.product(range(-span, span + 1), repeat=d):
            arr = np.array(y, dtype=float)
            if arr.any() and np.linalg.norm(rmat @ arr) <= radius:
                brute.add(y)
        return rmat, radius, signs, brute

    @staticmethod
    def _visited(rmat, radius):
        seen = []

        def record(y, _):
            seen.append(y)
            return None

        _search_ball(rmat.tolist(), radius, record)
        return seen

    @pytest.mark.parametrize(
        "case, mode",
        [(c, m) for m in ("plain", "signed", "shrink") for c in range(20)],
        ids=[f"{p}{c}" for p in ("", "signed-", "shrink-") for c in range(20)],
    )
    def test_ball_enumeration_matches_brute_force(self, case, mode):
        # signed cases flip rows so some diagonal entries are negative, as
        # QR returns them; the points and their order must not change.
        # shrink cases let confirm cut the ball to each point shorter than
        # the current radius: every later point lies inside the cut ball,
        # and both shortest vectors +-y of the brute force are visited
        rmat, radius, signs, brute = self._ball_case(case)
        if mode == "shrink":
            length = {y: float(np.linalg.norm(rmat @ np.array(y, dtype=float))) for y in brute}
            shortest = min(length.values())
            current = [radius]
            visited = []

            def shrink(y, _):
                visited.append((y, current[0]))
                if length.get(y, math.inf) < current[0]:
                    current[0] = length[y]
                    return length[y]
                return None

            _search_ball(rmat.tolist(), radius, shrink)
            assert all(length.get(y, math.inf) <= bound * (1.0 + 1e-12) for y, bound in visited)
            short = {y for y in brute if length[y] <= shortest * (1.0 + 1e-12)}
            assert short <= {y for y, _ in visited}
            return
        got = self._visited(rmat, radius)
        if mode == "signed":
            assert self._visited(rmat * signs[:, None], radius) == got
        assert len(set(got)) == len(got)
        assert set(got) == brute


@functools.lru_cache(maxsize=None)
def _box_oracle_cases():
    """(g, rho, nilpotent-log minimum, series-log minimum) at a loose rho
    and at the default config's rho ~ 0.0062 with the conditioning its base
    draws reach; each minimum is the least log-norm over the exhaustive
    entry window, taken with the finite nilpotent log sum and with the
    Mercator series."""
    inputs = [(0.3, 1.5, 10.0, 39, 30), (_DEFAULT_RP.rho, 1e2, 3e3, 41, 24)]
    cases = []
    for rho, cond_low, cond_high, tag, count in inputs:
        for case in range(count):
            rng = np.random.default_rng([tag, case])
            g = sample_base_conjugator(2, rng, cond_low=cond_low, cond_high=cond_high)
            g_inv = np.linalg.inv(g)
            nilpotent = series = rho
            for gamma in lattice_candidates(g, rho):
                value = nilpotent_log_norm(g, g_inv, gamma - np.eye(2, dtype=np.int64))
                if value is not None:
                    nilpotent = min(nilpotent, value)
                try:
                    series = min(series, frobenius(mat_log(g @ gamma.astype(float) @ g_inv)))
                except LogDomainError:
                    continue
            cases.append((g, rho, nilpotent, series))
    return cases


class TestDiscretenessRadius:
    def test_identity_model_sits_at_ceiling(self):
        assert model_radius(np.eye(2), _LOOSE_RP) == _LOOSE_RP.rho

    def test_cusp_closed_form(self):
        t = 10.0
        got = model_radius(np.diag([1.0 / t, t]), _LOOSE_RP)
        assert got == pytest.approx(1e-2, rel=1e-15)

    def test_cusp_scaling_family(self):
        for t in (8.0, 12.0, 20.0):
            got = model_radius(np.diag([1.0 / t, t]), _LOOSE_RP)
            assert got == pytest.approx(t**-2, rel=1e-12)

    def test_rotation_invariance(self):
        for case in range(20):
            rng = np.random.default_rng([37, case])
            g = sample_base_conjugator(2, rng, cond_low=2.0, cond_high=200.0)
            base = model_radius(g, _LOOSE_RP)
            k = haar_orthogonal(2, rng)
            assert abs(model_radius(k @ g, _LOOSE_RP) - base) <= 1e-9

    def test_global_expansion_floor(self):
        sp, rp = _LOOSE_SP, _LOOSE_RP
        nontrivial = 0
        for case in range(30):
            rng = np.random.default_rng([38, case])
            g = sample_base_conjugator(2, rng, cond_low=2.0, cond_high=200.0)
            before = model_radius(g, rp)
            after = model_radius(sp.s_lambda @ g, rp)
            assert after >= before / sp.ad_norm - 1e-9
            if before < rp.rho:
                nontrivial += 1
        assert nontrivial >= 5  # the sweep must exercise real candidates

    def test_box_oracle_agreement_is_exact(self):
        # dual route to the pair search, which runs at n = 2 too, and to
        # the kron oracle: exhaustive box enumeration + the finite
        # nilpotent log sum, which reduces to the pair score
        # |g v w^T g^{-1}|_F; the box route is complete at rho, so the
        # minima agree exactly
        nontrivial = 0
        for g, rho, best, _ in _box_oracle_cases():
            assert _pair_radius(g, np.linalg.inv(g), rho) == best
            assert kron_radius(g, rho) == best
            nontrivial += best < rho
        assert nontrivial >= 20

    def test_closed_form_matches_box_oracle(self):
        # the n = 2 production path takes lambda_1^2 from g directly, not
        # through the log of a conjugated matrix, so it agrees to round-off
        nontrivial = 0
        for g, rho, _, best in _box_oracle_cases():
            got = model_radius(g, RadiusParams(rho=rho))
            assert abs(got / best - 1.0) <= 1e-10
            nontrivial += best < rho
        assert nontrivial >= 20

    @pytest.mark.parametrize("rho", [0.3, 0.05])
    def test_n3_matches_reference_full_ball(self, rho):
        # reference route at n = 3: QR-per-swap LLL, then every point of the
        # padded rho-ball, none skipped by shrinking, each unipotent one
        # weighed by the finite log sum; the minima agree exactly, so the
        # unipotent hits with C^2 != 0 that the kernel skips fuzz the
        # square-zero lemma, and at rho = 0.3 there must be some
        rp = RadiusParams(rho=rho)
        radius = rho * math.exp(rho) * (1.0 + 1e-9) + 1e-12
        nontrivial = 0
        not_square_zero = 0
        for case in range(12):
            rng = np.random.default_rng([43, case])
            g = sample_base_conjugator(3, rng, cond_low=2.0, cond_high=30.0)
            g_inv = np.linalg.inv(g)
            reduced, transform = qr_lll_reduce(np.kron(g, g_inv.T))
            best = rho
            for y in ball_points(np.linalg.qr(reduced, mode="r"), radius):
                c = (transform @ y).reshape(3, 3)
                value = nilpotent_log_norm(g, g_inv, c)
                if value is not None:
                    best = min(best, value)
                    not_square_zero += bool((c @ c).any())
            assert model_radius(g, rp) == best
            nontrivial += best < rho
        assert nontrivial >= 2
        if rho == 0.3:
            assert not_square_zero >= 1

    def test_hit_with_nonzero_square_is_rejected(self):
        # the kron ball of g = k diag(0.1, 1, 10) holds I + C with
        # C = e1 e2^T + e2 e3^T, unipotent with C^2 = e1 e3^T != 0, and
        # I + C^2; the kron oracle's confirm rejects C, its radius comes
        # from C^2, and the pair search, which never forms C, agrees
        g = haar_orthogonal(3, np.random.default_rng(7)) @ np.diag([0.1, 1.0, 10.0])
        g_inv = np.linalg.inv(g)
        c = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int64)
        assert nilpotent_log_norm(g, g_inv, c) == pytest.approx(0.1415, abs=1e-4)
        assert square_zero_log_norm(g, g_inv, c) is None
        got = discreteness_radii(g[None], RadiusParams(rho=ZASSENHAUS_RADIUS))[0]
        assert got == kron_radius(g, ZASSENHAUS_RADIUS)
        assert got == frobenius(g @ (c @ c) @ g_inv)
        assert got == pytest.approx(0.01, rel=1e-12)

    def test_n3_matches_window_scan(self):
        # every det-1 matrix of entry window 2 with scipy's logm, which
        # assumes nothing about unipotence; a-factor cond 2.5-3.5 keeps the
        # base draws' window at 2
        rp = RadiusParams(rho=ZASSENHAUS_RADIUS)
        nontrivial = 0
        for case in range(40):
            rng = np.random.default_rng([49, case])
            g = sample_base_conjugator(3, rng, cond_low=2.5, cond_high=3.5)
            want = sl3_window_radius(g, rp.rho)
            assert abs(model_radius(g, rp) / want - 1.0) <= 1e-12
            nontrivial += want < rp.rho
        assert nontrivial >= 20

    def test_unipotent_log_norm(self):
        # N^3 != 0: the oracle's finite sum N - N^2/2 + N^3/3, conjugated,
        # equals scipy's logm, and the kron oracle's square-zero confirm
        # rejects it; determinant 1 without unipotence gives None from
        # both, also at trace n (the companion matrix of x^3 - 3x^2 - 1)
        g = sample_base_conjugator(4, np.random.default_rng(50), cond_low=2.0, cond_high=5.0)
        g_inv = np.linalg.inv(g)
        nil = np.triu(np.arange(1, 17).reshape(4, 4), 1)
        want = frobenius(scipy.linalg.logm(g @ (np.eye(4) + nil) @ g_inv))
        assert nilpotent_log_norm(g, g_inv, nil) == pytest.approx(want, rel=1e-12)
        assert square_zero_log_norm(g, g_inv, nil) is None
        for gamma in ([[2, 1], [1, 1]], [[0, -1], [1, 0]], [[0, 0, 1], [1, 0, 0], [0, 1, 3]]):
            n = len(gamma)
            nil = np.array(gamma) - np.eye(n, dtype=np.int64)
            for log_norm in (nilpotent_log_norm, square_zero_log_norm):
                assert log_norm(np.eye(n), np.eye(n), nil) is None

    def test_rho_above_zassenhaus_rejected(self):
        with pytest.raises(ValueError, match="unipotence"):
            model_radius(np.eye(2), RadiusParams(rho=0.4))

    def test_rho_past_the_unipotence_bound_rejected(self):
        # K = ceil((n - 1) / 2) is 2 up to n = 5 and 3 at n = 6, where
        # K^2 rho^2 e^{K rho} / 2 = 1.44 >= 1 at rho = 0.34
        rp = RadiusParams(rho=ZASSENHAUS_RADIUS)
        with pytest.raises(ValueError, match="unipotence"):
            model_radius(np.eye(6), rp)
        for n in (3, 4, 5):
            assert model_radius(np.eye(n), rp) == rp.rho
        _, rp6 = derive_group(ExperimentConfig(group_n=6, eps_grid=(1e-12,)))
        assert model_radius(np.eye(6), rp6) == rp6.rho

    def test_invalid_conjugator_rejected(self):
        for g in (np.eye(3)[:2], np.diag([np.nan, 1.0]), np.diag([2.0, 1.0])):
            with pytest.raises(ValueError):
                model_radius(g, _LOOSE_RP)


def _wide_base_draws(count, seed, cond_low, cond_high, shears=0):
    # base draws at n = 3, 4 and 5 in turn, cond log-uniform in the
    # window; with shears, each times a product of that many elementary
    # integer matrices, the same lattice in a basis far from reduced
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 3 + i % 3
        cond = math.exp(rng.uniform(math.log(cond_low), math.log(cond_high)))
        g = sample_base_conjugator(n, rng, cond_low=cond, cond_high=cond)
        for _ in range(shears):
            row, col = rng.choice(n, 2, replace=False)
            g[:, col] += int(rng.integers(-3, 4)) * g[:, row]
        out.append(g)
    return out


class TestPairSearch:
    """The radius as a minimum over orthogonal pairs (v, w), against the
    kron oracle and the rank-one lemma of discreteness_radii."""

    def test_orthogonal_basis_spans_the_complement(self):
        # v^perp n Z^n has covolume |v| for primitive v: n - 1 integer
        # columns orthogonal to v whose Gram determinant is |v|^2 span it
        rng = np.random.default_rng(67)
        for case in range(300):
            n = 3 + case % 3
            v = rng.integers(-40, 41, size=n) * (rng.random(n) < 0.7)
            if math.gcd(*v.tolist()) != 1:
                continue
            cols = np.array(slgroup._orthogonal_basis(v.tolist()), dtype=np.int64)
            assert cols.shape == (n - 1, n)
            assert not (cols @ v).any()
            assert int_det(cols @ cols.T) == int(v @ v)

    def test_matches_kron_oracle_bit_for_bit(self):
        # 1,080 radii at n = 3, 4 and 5, cond 1.5 to 1e4 and four rho from
        # 0.3 down to the default n = 3 scale, all inside the entry window
        # of 10^6 that the kron search scanned, a third of them in sheared
        # bases, so that the pairs' v and w are far from unit vectors: the
        # pair search gives the kron search's radius to the last bit,
        # shortcut entries included
        draws = _wide_base_draws(180, 63, 1.5, 1e4) + _wide_base_draws(90, 68, 1.5, 1e3, 6)
        below = 0
        for rho in (0.3, 0.05, 0.01, 1.14e-4):
            assert all(entry_window(g, rho) <= 10**6 for g in draws)
            got = discreteness_radii(np.stack(draws[0::3]), RadiusParams(rho=rho))
            got += discreteness_radii(np.stack(draws[1::3]), RadiusParams(rho=rho))
            got += discreteness_radii(np.stack(draws[2::3]), RadiusParams(rho=rho))
            want = [kron_radius(g, rho) for g in draws[0::3] + draws[1::3] + draws[2::3]]
            assert np.array(got).tobytes() == np.array(want).tobytes()
            below += sum(r < rho for r in got)
        assert 400 <= below < 1080

    def test_rank_two_element_is_never_shorter(self):
        # g = k diag(0.1, 0.1, 10, 10) u with u integer upper unipotent:
        # the kron ball holds I + C with C = u^-1 (e1 e3^T + e2 e4^T) u,
        # square-zero of rank 2 and log-norm 0.01 sqrt(2); the radius is
        # a rank-one pair's, as the kron oracle finds, and at most
        # gamma_2 / sqrt(2) = 0.8165 of the rank-2 log-norm
        k = haar_orthogonal(4, np.random.default_rng(64))
        u = np.array([[1, 1, 0, 2], [0, 1, -1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], dtype=np.int64)
        g = k @ np.diag([0.1, 0.1, 10.0, 10.0]) @ u
        u_inv = np.round(np.linalg.inv(u)).astype(np.int64)
        assert (u_inv @ u == np.eye(4, dtype=np.int64)).all()
        e = np.eye(4, dtype=np.int64)
        c = u_inv @ (np.outer(e[0], e[2]) + np.outer(e[1], e[3])) @ u
        assert not (c @ c).any() and np.linalg.matrix_rank(c) == 2
        rank_two = square_zero_log_norm(g, np.linalg.inv(g), c)
        assert rank_two == pytest.approx(0.01 * math.sqrt(2.0), rel=1e-12)
        rho = 0.3
        got = model_radius(g, RadiusParams(rho=rho))
        assert got == kron_radius(g, rho)
        assert got <= 0.817 * rank_two
        assert got == pytest.approx(0.01, rel=1e-12)

    def test_far_past_the_old_window_radii_lie_between_bounds(self):
        # cond 1e6 to 1e9 at rho = 0.3, where the kron search's entry
        # window passed its cap: every pair has |g v| |g^-T w| >= 1/cond(g),
        # and the radius is at most rho
        rho = 0.3
        draws = _wide_base_draws(60, 65, 1e6, 1e9)
        assert sum(entry_window(g, rho) > 10**6 for g in draws) >= 30
        got = discreteness_radii(np.stack(draws[0::3]), RadiusParams(rho=rho))
        got += discreteness_radii(np.stack(draws[1::3]), RadiusParams(rho=rho))
        got += discreteness_radii(np.stack(draws[2::3]), RadiusParams(rho=rho))
        for g, r in zip(draws[0::3] + draws[1::3] + draws[2::3], got):
            assert 1.0 / np.linalg.cond(g) <= r <= rho

    @staticmethod
    def _unreduced(basis):
        # a stand-in for _lll_reduce that reduces nothing: the identity
        # transform and the basis's own positive-diagonal QR triangle
        r = np.linalg.qr(np.asarray(basis, dtype=float), mode="r")
        r *= np.sign(np.diag(r))[:, None]
        return np.eye(len(r), dtype=np.int64), r.tolist()

    @pytest.mark.parametrize("diag, shear", [
        ([0.1, 1.0, 10.0], [[1, 0, 0], [-2, 1, 0], [1, 0, 1]]),
        ([0.2, 1.0, 5.0], [[1, 2, 0], [0, 1, 0], [1, 1, 1]]),
        ([0.1, 0.5, 2.0, 10.0], [[1, 0, 0, 0], [-2, 1, 0, 0], [0, 1, 1, 0], [1, 0, -1, 1]]),
        ([0.2, 0.5, 1.0, 10.0], [[1, 1, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 1, -1]]),
    ], ids=["n3-two", "n3-last", "n4-two", "n4-last"])
    def test_unreduced_basis_gives_the_same_radius(self, monkeypatch, diag, shear):
        # The search is complete on any basis; LLL only makes it fast.
        # Below rho < 1 the minimising v is a shortest vector s of g Z^n (a
        # shorter s with s . w != 0 has |s| >= 1 / |g^-T w|).  On an LLL
        # basis at n <= 4 its last coordinate is 0, as |s| >= |b*_n| >=
        # 2^(-(n-1)/2) max |b*_i| (Lovasz) would give a score above 0.34,
        # and size reduction keeps the others in {-1, 0, 1} but at exact
        # ties.  So a search that skips such coordinates shows only on an
        # unreduced basis.  Here g = k diag(d) U with increasing d: the
        # minimising v is U^-1 e1, whose coordinates on the basis g hold a
        # 2 or end negative.
        n = len(diag)
        u = np.array(shear, dtype=np.int64)
        assert int_det(u) == 1
        v = np.round(np.linalg.inv(u)[:, 0]).astype(np.int64)
        v *= np.sign(v[np.flatnonzero(v)[0]])
        assert np.abs(v).max() >= 2 or v[-1] < 0
        d = np.array(diag) / np.prod(diag) ** (1.0 / n)
        g = haar_orthogonal(n, np.random.default_rng(69)) @ np.diag(d) @ u
        rp = RadiusParams(rho=0.3)
        want = kron_radius(g, rp.rho)
        assert want == pytest.approx(d[0] / d[-1], rel=1e-12)
        assert model_radius(g, rp) == want
        with monkeypatch.context() as patch:
            patch.setattr(slgroup, "_lll_reduce", self._unreduced)
            assert model_radius(g, rp) == want

    @pytest.mark.parametrize("n", [3, 4])
    def test_near_tie_found_second(self, n):
        # b1 = e1 and b2 = (0.3, r2) with |b2| = (1 - 1e-4) |b1| form an
        # LLL basis as they stand, and the later columns are orthogonal
        # and 10, 100 times longer: the pairs (e1, e_n) and (e2, e_n) score
        # within 1e-4 of each other, and the outer search meets e1 first,
        # so the lower pair is found second, in balls that the first one
        # shrank; the radius is the lower score, the kron oracle's
        r2 = math.sqrt((1.0 - 1e-4) ** 2 - 0.09)
        tri = np.diag([1.0, r2] + [10.0**i for i in range(1, n - 1)])
        tri[0, 1] = 0.3
        g = haar_orthogonal(n, np.random.default_rng(70 + n)) @ tri
        g /= np.prod(np.diag(tri)) ** (1.0 / n)
        u, rows = _lll_reduce(g)
        assert (u == np.eye(n, dtype=np.int64)).all()
        seen = []
        _search_ball(rows, 2.0, lambda y, _: seen.append(y))
        e = np.eye(n, dtype=np.int64)
        assert seen.index(tuple(e[0])) < seen.index(tuple(e[1]))
        g_inv = np.linalg.inv(g)
        first = frobenius(g @ np.outer(e[0], e[-1]) @ g_inv)
        second = frobenius(g @ np.outer(e[1], e[-1]) @ g_inv)
        assert second < first < second * (1.0 + 2e-4)
        assert model_radius(g, RadiusParams(rho=0.3)) == second == kron_radius(g, 0.3)


class TestExactExpansionProbability:
    @pytest.mark.parametrize("n0", range(1, 8))
    def test_matches_quadrature(self, n0):
        sp = expanding_element(2, 1.5 * E**n0, math.exp(-1.0))
        assert sp.n0 == n0
        want = expansion_probability_quadrature(sp.ad_norm, 2.0)
        assert abs(exact_expansion_probability(sp, 2.0) - want) <= 5e-6

    def test_zero_unless_the_step_outgrows_the_factor(self):
        # A = 2 and A = 5/3: f <= A, so f >= 2 holds on a null set at most
        for lam, x0 in ((2.0, 0.5), (1.7, 0.6)):
            sp = expanding_element(2, lam, x0)
            assert sp.ad_norm <= 2.0
            assert exact_expansion_probability(sp, 2.0) == 0.0
        assert 0.0 < exact_expansion_probability(expanding_element(2, 2.1, 1 / 2.1), 2.0)

    def test_rejects_n_above_two(self):
        with pytest.raises(ValueError):
            exact_expansion_probability(expanding_element(3, 55.0, math.exp(-1.0)), 2.0)

    def test_one_step_law_on_thin_bases(self):
        # the proof's key step, against the kernel: for a thin base of
        # radius r and shortest vector g v, radius(s k g) = min(rho, r f)
        # with f = (x^2 / A + y^2 A) / (x^2 + y^2) for k g v = (x, y)
        sp, rp = _DEFAULT_SP, _DEFAULT_RP
        rng = np.random.default_rng(48)
        angles = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        thin = 0
        while thin < 10:
            g = sample_base_conjugator(2, rng)
            r = model_radius(g, rp)
            if r > rp.rho / 2:
                continue
            thin += 1
            (a, _), (c, _) = gauss_reduce(g.tolist())
            for phi in angles:
                k = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
                x, y = k @ [a, c]
                f = (x * x / sp.ad_norm + y * y * sp.ad_norm) / (x * x + y * y)
                got = model_radius(sp.s_lambda @ k @ g, rp)
                assert got == pytest.approx(min(rp.rho, r * f), rel=1e-9)


class TestReducedConjugator:
    @staticmethod
    def _assert_tame(wild, tame, det_tol):
        # upper triangular, positive diagonal, det 1, no worse conditioned,
        # and the radius of the conjugated lattice kept
        assert not np.tril(tame, -1).any()
        assert (np.diag(tame) > 0.0).all()
        assert abs(float(np.linalg.det(tame)) - 1.0) <= det_tol
        assert np.linalg.cond(tame) <= np.linalg.cond(wild) * (1.0 + 1e-9)
        r_wild = model_radius(wild, _LOOSE_RP)
        r_tame = model_radius(tame, _LOOSE_RP)
        assert abs(r_wild - r_tame) <= 1e-9

    @staticmethod
    def _assert_gauss_triangle(r):
        # the n = 2 form: a det-1 triangle with positive diagonal whose
        # columns are Lagrange-Gauss reduced
        assert r[1, 0] == 0.0 and r[0, 0] > 0.0 and r[1, 1] > 0.0
        assert abs(float(np.linalg.det(r)) - 1.0) <= 1e-12
        assert abs(r[0, 1]) <= r[0, 0] / 2 * (1.0 + 1e-12)
        assert r[0, 0] ** 2 <= (r[0, 1] ** 2 + r[1, 1] ** 2) * (1.0 + 1e-12)

    @pytest.mark.parametrize("case", range(15))
    def test_preserves_radius_and_tames_conditioning(self, case):
        rng = np.random.default_rng([40, case])
        g = sample_base_conjugator(2, rng, cond_low=5.0, cond_high=500.0)
        # push g far from reduced form with a big integer shear
        shear = np.array([[1.0, 0.0], [17.0, 1.0]])
        wild = g @ shear
        tame = reduced_conjugator(wild)
        self._assert_tame(wild, tame, 1e-12)
        for r in [tame, *_walk_conjugators(300)[case::15]]:
            self._assert_gauss_triangle(r)
        # n = 3 and 4; the signed column swap makes LLL's transform det -1
        # on most inputs, so the discarded orthogonal factor is a reflection
        flipped = 0
        for n in (3, 4):
            g = sample_base_conjugator(n, np.random.default_rng([40, n, case]), 5.0, 500.0)
            shear = np.eye(n)
            shear[n - 1, 0] = 17.0
            swap = np.eye(n)[:, [1, 0, *range(2, n)]]
            swap[:, 0] *= -1.0
            for wild in (g @ shear, g @ shear @ swap):
                self._assert_tame(wild, reduced_conjugator(wild), 1e-9)
                flipped += int_det(_lll_reduce(wild)[0]) == -1
        assert flipped

    def test_n2_float_range_refusal_on_both_sides(self):
        # n = 2 entries up to 2**510 reduce with no numpy warning or float
        # error; one float past it, or a non-finite entry, refuses the
        # call with the ValueError of the n = 2 radius, naming the range
        edge = 2.0**510
        past = np.nextafter(edge, np.inf)
        inside = np.stack([
            np.diag([edge, 1.0 / edge]),
            np.diag([1.0 / edge, edge]),
            np.array([[1.0, edge], [0.0, 1.0]]),
            haar_orthogonal(2, np.random.default_rng(66)) @ np.diag([2.0**509, 2.0**-509]),
        ])
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            got = reduced_conjugator(inside)
            assert np.isfinite(got).all()
            for r in got:
                assert r[1, 0] == 0.0 and r[0, 0] > 0.0 and r[1, 1] > 0.0
            assert got[0, 0, 0] == got[1, 0, 0] == 2.0**-510
            for g in (np.diag([past, 1.0 / past]), np.diag([1e200, 1e-200]),
                      np.array([[1.0, -2.0 * edge], [0.0, 1.0]])):
                for gs in (g, np.stack([np.eye(2), g])):
                    with pytest.raises(ValueError, match=r"2\*\*510.*normal float range"):
                        reduced_conjugator(gs)
            with pytest.raises(ValueError, match="finite"):
                reduced_conjugator(np.diag([np.inf, 0.0]))

    def test_n2_singular_input_is_refused(self):
        # a singular 2 x 2, alone or in a stack, is refused with a
        # ValueError and no numpy warning; the last one has a LAPACK
        # determinant of -3.9e-17, but the pass reduces a column to zero
        singular = [
            np.zeros((2, 2)),
            np.array([[1.0, 2.0], [2.0, 4.0]]),
            np.array([[0.1, 3 * 0.1], [0.7, 3 * 0.7]]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in singular:
                for gs in (g, np.stack([np.eye(2), g]), np.stack([g, np.eye(2)])):
                    with pytest.raises(ValueError, match="singular"):
                        reduced_conjugator(gs)
            assert (reduced_conjugator(np.stack([np.eye(2)] * 2)) == np.eye(2)).all()

    def test_n3_float_range_refusal_on_both_sides(self):
        # n >= 3 entries of g and of g^-1 up to 2**26 reduce with no numpy
        # warning or float error; past it, in g or in g^-1 only, the call
        # is refused with the ValueError of the n >= 3 radius, naming the
        # range, as are non-finite entries and a singular matrix
        edge = 2.0**26

        # I + a (e1 e2^T + e2 e3^T): entries at most a, a^2 in its inverse
        def shear(a):
            return np.array([[1.0, a, 0.0], [0.0, 1.0, a], [0.0, 0.0, 1.0]])

        inside = np.stack([np.diag([edge, 1.0, 1.0 / edge]), shear(2.0**13)])
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            got = reduced_conjugator(inside)
            for g, r in zip(inside, got):
                self._assert_tame(g, r, 1e-9)
            assert got[0].tobytes() == reduced_conjugator(inside[0]).tobytes()
            past = [
                np.diag([1e200, 1.0, 1e-200]),
                np.array([[1.0, 1e30, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                np.diag([np.nextafter(edge, np.inf), 1.0, 1.0 / edge]),
                shear(2.0**13 * (1.0 + 2.0**-40)),
            ]
            for g in past:
                for gs in (g, np.stack([np.eye(3), g])):
                    with pytest.raises(ValueError, match=r"2\*\*26.*normal float range"):
                        reduced_conjugator(gs)
            with pytest.raises(ValueError, match="finite"):
                reduced_conjugator(np.diag([np.inf, 1.0, 0.0]))
            singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
            with pytest.raises(ValueError, match="Singular"):
                reduced_conjugator(singular)


def _walk_conjugators(count):
    # g_t = reduced_conjugator(k1 s_lambda k2 g_{t-1}) at the default scale
    g = np.eye(2)
    out = []
    for t in range(1, count + 1):
        g = reduced_conjugator(mu_s_draw(_DEFAULT_SP, np.random.default_rng([44, t])) @ g)
        out.append(g)
    return out


class TestStacked:
    """The stacked draws and radii equal their one-matrix forms bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mu_s_draws_match_sample_mu_s(self, n):
        # against plain k1 s_lambda k2 draws one after another on the same
        # stream, and a chunked draw equals one long one
        sp = expanding_element(n, 55.0, math.exp(-1.0))
        stacked = mu_s_draws(sp, np.random.default_rng(45), 200)
        rng = np.random.default_rng(45)
        for i in range(200):
            assert np.array_equal(stacked[i], mu_s_draw(sp, rng))
        rng = np.random.default_rng(45)
        chunked = np.concatenate([mu_s_draws(sp, rng, 73), mu_s_draws(sp, rng, 127)])
        assert np.array_equal(chunked, stacked)

    @pytest.mark.parametrize("rp", [_DEFAULT_RP, _LOOSE_RP], ids=["default-rho", "loose-rho"])
    def test_stacked_radii_match_scalar(self, rp):
        # walk conjugators, base draws, cusp-ray points and the identity,
        # interleaved so searched and shortcut entries alternate
        walk = _walk_conjugators(300)
        bases = [sample_base_conjugator(2, np.random.default_rng([46, i])) for i in range(60)]
        ys = np.geomspace(2.0 / rp.rho, 3000.0 / rp.rho, 41)
        cusp = [np.diag([y**-0.5, y**0.5]) for y in ys]
        stack = [np.eye(2)] + [m for group in itertools.zip_longest(walk, bases, cusp)
                               for m in group if m is not None]
        got = discreteness_radii(np.stack(stack), rp)
        want = [model_radius(g, rp) for g in stack]
        assert got == want
        assert got[0] == rp.rho
        assert 20 <= sum(r < rp.rho for r in got) < len(got)

    @staticmethod
    def _wide(n):
        # cond 1e8 and a rotated cond 1e10, far past the window the kron
        # search could scan at the loose rho
        mid = [1.0] * (n - 2)
        return [
            np.diag([1e-4, *mid, 1e4]),
            haar_orthogonal(n, np.random.default_rng(48)) @ np.diag([1e-5, *mid, 1e5]),
        ]

    def test_n3_wide_entries_get_radii(self):
        # n = 3: the wide entries, which the kron search's entry window
        # capped, get the radii of their rank-one pairs e1, e3 (1e-8 and
        # 1e-10), next to one searched and one shortcut neighbour; each is
        # its one-matrix value, bit for bit
        wide = self._wide(3)
        stack = np.stack([np.diag([0.1, 1.0, 10.0]), wide[0], np.eye(3), wide[1]])
        got = discreteness_radii(stack, _LOOSE_RP)
        assert got == [model_radius(g, _LOOSE_RP) for g in stack]
        assert got[0] == pytest.approx(0.01, rel=1e-12)
        assert got[1] == pytest.approx(1e-8, rel=1e-12)
        assert got[3] == pytest.approx(1e-10, rel=1e-9)
        assert got[2] == _LOOSE_RP.rho

    def test_n2_wide_entries_get_radii(self):
        # the n = 2 form of the stack above: every entry is the
        # one-matrix value and the oracle's, bit for bit
        wide = self._wide(2)
        stack = np.stack([np.diag([0.1, 10.0]), wide[0], np.eye(2), wide[1]])
        got = discreteness_radii(stack, _LOOSE_RP)
        assert got == [model_radius(g, _LOOSE_RP) for g in stack]
        assert got == [
            gauss_radius(g.tolist(), float(np.linalg.det(g)), _LOOSE_RP.rho) for g in stack
        ]
        assert got[1] == pytest.approx(1e-8, rel=1e-12)
        assert got[3] == pytest.approx(1e-10, rel=1e-9)
        assert got[2] == _LOOSE_RP.rho

    @pytest.mark.parametrize("n", [2, 3])
    def test_model_radius_of_a_stack_and_of_one_matrix(self, n):
        # entry for entry the radii of discreteness_radii,
        # and one matrix the entry of its stack of one, bit for bit
        rng = np.random.default_rng([49, n])
        bases = [sample_base_conjugator(n, rng) for _ in range(12)]
        stack = np.stack([np.eye(n)] + bases)
        rp = _DEFAULT_RP if n == 2 else RadiusParams(rho=0.02)
        got = model_radius(stack, rp)
        assert got == discreteness_radii(stack, rp)
        assert got[0] == rp.rho and min(got) < rp.rho
        for g, want in zip(stack, got):
            single = model_radius(g, rp)
            assert type(single) is float
            assert np.float64(single).tobytes() == np.float64(want).tobytes()
            assert model_radius(g[None], rp) == [single]

    def test_n3_float_range_refusal_on_both_sides(self):
        # entries of g and of g^-1 up to 2**26 get their radius with no
        # numpy warning or float error; one float past it, in g or in
        # g^-1 only, refuses the stack, naming the range
        edge = 2.0**26
        past = np.nextafter(edge, np.inf)
        k = haar_orthogonal(3, np.random.default_rng(62))
        # the shear I + a (e1 e2^T + e2 e3^T) has entries at most a, and its
        # inverse a^2 in the corner: inside for a = 2**13, g^-1 past for a
        # a shade above
        def shear(a):
            return np.array([[1.0, a, 0.0], [0.0, 1.0, a], [0.0, 0.0, 1.0]])

        inside = np.stack([
            np.diag([edge, 1.0, 1.0 / edge]),
            np.diag([1.0 / edge, 1.0, edge]),
            k @ np.diag([2.0**-25, 1.0, 2.0**25]),
            shear(2.0**13),
            np.eye(3),
        ])
        outside = [
            np.diag([past, 1.0, 1.0 / past]),
            np.diag([1.0 / past, 1.0, past]),
            np.diag([1e160, 1.0, 1e-160]),
            np.diag([1e-160, 1.0, 1e160]),
            shear(2.0**13 * (1.0 + 2.0**-40)),
        ]
        rp = _LOOSE_RP
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            got = discreteness_radii(inside, rp)
            assert got == [model_radius(g, rp) for g in inside]
            assert got[0] == got[1] == 2.0**-52
            assert got[2] == pytest.approx(2.0**-50, rel=1e-9)
            assert got[3] == got[4] == rp.rho
            for g in outside:
                for stack in (g[None], np.stack([np.eye(3), g])):
                    with pytest.raises(ValueError, match=r"2\*\*26.*normal float range"):
                        discreteness_radii(stack, rp)

    def test_n2_past_the_float_range_is_refused(self):
        # 1e150 is inside the 2**510 entry range of n = 2 and gets its
        # radius 1e-300; 1e160 is outside and raises, naming the range
        (got,) = discreteness_radii(np.diag([1e150, 1e-150])[None], _LOOSE_RP)
        assert got == pytest.approx(1e-300, rel=1e-12)
        for g in (np.diag([1e160, 1e-160]), np.diag([1e-160, 1e160])):
            with pytest.raises(ValueError, match=r"2\*\*510"):
                model_radius(g, _LOOSE_RP)

    def test_stacked_rejects_determinant_off_one(self):
        stack = np.stack([np.eye(2), np.diag([2.0, 1.0]), np.diag([0.1, 10.0])])
        with pytest.raises(ValueError, match="determinant 1"):
            discreteness_radii(stack, _LOOSE_RP)
        # the determinant is checked before the float range, which the
        # last matrix is outside too
        with pytest.raises(ValueError, match="determinant 1"):
            discreteness_radii(np.diag([1e-4, 2e4])[None], RadiusParams(rho=0.3))
        with pytest.raises(ValueError, match="determinant 1"):
            discreteness_radii(np.diag([1e-4, 1.0, 2e4])[None], RadiusParams(rho=0.3))
        with pytest.raises(ValueError, match="determinant 1"):
            discreteness_radii(np.diag([1e-30, 1.0, 2e30])[None], RadiusParams(rho=0.3))

    def test_stacked_rejects_bad_shapes(self):
        for gs in (np.eye(2), np.zeros((2, 2, 3)), np.full((1, 2, 2), np.nan)):
            with pytest.raises(ValueError):
                discreteness_radii(gs, _LOOSE_RP)


class TestStackedReduction:
    """The stacked reduced_conjugator equals its one-matrix forms bit for
    bit, signed zeros included: at n = 2 the stacked Lagrange-Gauss pass
    against the python loop of tests/oracles.py, at n >= 3 against one
    call per matrix."""

    @staticmethod
    def _scalar_gauss(gs):
        return np.array([gauss_reduce(g.tolist()) for g in gs])

    @staticmethod
    def _stacked_gauss(gs):
        # the reduced bases, after checking the squared length of each
        # first column that the pass hands back with them
        a, b, c, d, aa_cc = _gauss_reduce_stack(np.asarray(gs, dtype=float))
        assert aa_cc.tobytes() == (a * a + c * c).tobytes()
        return np.stack([a, b, c, d], axis=-1).reshape(-1, 2, 2)

    @staticmethod
    def _scalar_triangle(g):
        # the n = 2 triangle built in python floats from gauss_reduce
        (a, b), (c, d) = gauss_reduce(g.tolist())
        v = math.sqrt(a * a + c * c)
        s = math.sqrt(abs(a * d - b * c))
        return np.array([[v / s, (a * b + c * d) / (v * s)], [0.0, s / v]])

    @staticmethod
    def _mu_s_products(count, seed):
        # walk-like inputs, a draw times a reduced conjugator, and products
        # of up to 12 draws, which take up to a dozen Lagrange-Gauss steps
        rng = np.random.default_rng(seed)
        walk = [mu_s_draw(_DEFAULT_SP, rng) @ g for g in _walk_conjugators(count)]
        wild = []
        for length in range(count):
            g = np.eye(2)
            for _ in range(length % 12 + 1):
                g = mu_s_draw(_DEFAULT_SP, rng) @ g
            wild.append(g)
        return np.stack(walk + wild)

    def test_mu_s_products_match_scalar(self):
        gs = self._mu_s_products(150, 50)
        want = self._scalar_gauss(gs)
        assert self._stacked_gauss(gs).tobytes() == want.tobytes()
        got = reduced_conjugator(gs)
        assert got.shape == gs.shape
        assert got.tobytes() == np.stack([self._scalar_triangle(g) for g in gs]).tobytes()

    def test_half_integer_ties_round_to_even(self):
        # u = (1, 0) and v = (t, 1) give the ratio t exactly; python's round
        # and np.rint both send +-0.5 to 0 and +-1.5, +-2.5 to +-2.  The last
        # matrix rounds -0.198 to np.rint's -0.0, which must act as python's
        # int 0 on the -0.0 entry it reduces
        ties = [[[1.0, t], [0.0, 1.0]] for t in (0.5, -0.5, 1.5, -1.5, 2.5, -2.5)]
        gs = np.array(ties + [[[1.0, -0.0], [0.1, -2.0]]])
        want = self._scalar_gauss(gs)
        assert self._stacked_gauss(gs).tobytes() == want.tobytes()
        assert want[:6, 0, 1].tolist() == [0.5, -0.5, -0.5, 0.5, 0.5, -0.5]
        assert math.copysign(1.0, want[6, 0, 1]) == -1.0

    def test_stack_of_one(self):
        for g in self._mu_s_products(5, 51):
            assert self._stacked_gauss(g[None]).tobytes() == self._scalar_gauss(g[None]).tobytes()
            single = reduced_conjugator(g)
            assert single.shape == (2, 2)
            assert single.tobytes() == reduced_conjugator(g[None])[0].tobytes()
            assert single.tobytes() == self._scalar_triangle(g).tobytes()

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_iteration_cap(self, monkeypatch, cap):
        # no float input found needs 256 iterations, so the shared cap is
        # lowered until it binds on part of the stack: both loops stop
        # after the same swap there and agree everywhere else
        gs = self._mu_s_products(60, 52)
        uncapped = self._scalar_gauss(gs)
        monkeypatch.setattr(slgroup, "_GAUSS_CAP", cap)
        want = self._scalar_gauss(gs)
        assert self._stacked_gauss(gs).tobytes() == want.tobytes()
        capped = sum(not np.array_equal(w, u) for w, u in zip(want, uncapped))
        assert 0 < capped < len(gs)

    @pytest.mark.parametrize("n", [3, 4])
    def test_higher_rank_stack_matches_single_calls(self, n):
        sp = expanding_element(n, 55.0, math.exp(-1.0))
        rng = np.random.default_rng([53, n])
        gs = np.stack([mu_s_draw(sp, rng) @ mu_s_draw(sp, rng) for _ in range(12)])
        got = reduced_conjugator(gs)
        assert got.shape == gs.shape
        assert got.tobytes() == np.stack([reduced_conjugator(g) for g in gs]).tobytes()
        for g, r in zip(gs, got):
            assert not np.tril(r, -1).any() and (np.diag(r) > 0.0).all()


@functools.lru_cache(maxsize=None)
def _closed_form_pools():
    """256 n = 2 conjugators of each shape the runners hand the radius:
    walk blocks, drift stacks, base draws, cusp diagonals, and rotated
    near-isometries whose entry window at the default rho is empty (the
    entries the n >= 3 front end's rho shortcut would settle)."""
    sp, rho = _DEFAULT_SP, _DEFAULT_RP.rho
    rng = np.random.default_rng(60)
    chains = np.broadcast_to(np.eye(2), (128, 2, 2))
    walk = []
    for _ in range(6):
        chains = reduced_conjugator(mu_s_draws(sp, rng, 128) @ chains)
        walk.append(chains)
    g = sample_base_conjugator(2, rng)
    drift = np.concatenate([mu_s_draws(sp, rng, 255) @ g, g[None]])
    bases = np.stack([sample_base_conjugator(2, rng) for _ in range(256)])
    ys = np.geomspace(1.0, 3000.0 / rho, 256)
    cusp = np.stack([np.diag([y**-0.5, y**0.5]) for y in ys])
    stretch = np.exp(rng.uniform(0.0, 2.0, 256))
    shortcut = np.stack([
        haar_orthogonal(2, rng) @ np.diag([1.0 / t, t]) @ haar_orthogonal(2, rng)
        for t in stretch
    ])
    pools = {"walk": np.concatenate(walk[-2:]), "drift": drift, "base": bases,
             "cusp": cusp, "shortcut": shortcut}
    pools["mixed"] = np.stack([m for group in zip(*pools.values()) for m in group][:256])
    return pools


class TestClosedForm:
    """The n = 2 radius, one stacked Lagrange-Gauss pass, against the
    python loop of tests/oracles.py::gauss_radius, bit for bit."""

    @pytest.mark.parametrize("size", [1, 15, 16, 256])
    @pytest.mark.parametrize("kind", ["walk", "drift", "base", "cusp", "shortcut", "mixed"])
    def test_stack_matches_oracle(self, kind, size):
        stack = _closed_form_pools()[kind][:size]
        got = {}
        for rp in (_DEFAULT_RP, _LOOSE_RP):
            got[rp.rho] = discreteness_radii(stack, rp)
            want = [gauss_radius(g.tolist(), float(np.linalg.det(g)), rp.rho) for g in stack]
            assert all(type(r) is float for r in got[rp.rho])
            assert np.array(got[rp.rho]).tobytes() == np.array(want).tobytes()
        if kind == "shortcut":
            # an empty window means cond rho e^rho < 1/2, so lambda_1^2 / det
            # >= 1/cond > rho and the min gives rho exactly
            rho = _DEFAULT_RP.rho
            sv = np.linalg.svd(stack, compute_uv=False)
            assert (sv[:, -1] > 2.0 * rho * sv[:, 0]).all()
            assert got[rho] == [rho] * size
        elif size == 256:
            assert 0 < sum(r < _LOOSE_RP.rho for r in got[_LOOSE_RP.rho])

    def test_float_range_refusal_on_both_sides(self):
        # entries of modulus up to 2**510 get their radius with no numpy
        # warning or float error; one float past it refuses the stack,
        # naming the range, and never reaches inf or nan
        edge = 2.0**510
        past = np.nextafter(edge, np.inf)
        k = haar_orthogonal(2, np.random.default_rng(61))
        inside = np.stack([
            np.diag([edge, 1.0 / edge]),
            np.diag([1.0 / edge, edge]),
            np.array([[1.0, edge], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [-edge, 1.0]]),
            k @ np.diag([2.0**509, 2.0**-509]),
        ])
        outside = [
            np.diag([past, 1.0 / past]),
            np.diag([1.0 / past, past]),
            np.array([[1.0, -2.0 * edge], [0.0, 1.0]]),
            np.diag([2.0**-520, 2.0**520]),
        ]
        rp = _LOOSE_RP
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            got = discreteness_radii(inside, rp)
            want = [gauss_radius(g.tolist(), float(np.linalg.det(g)), rp.rho) for g in inside]
            assert got == want
            assert got[0] == got[1] == 2.0**-1020 and got[2] == got[3] == rp.rho
            assert got[4] == pytest.approx(2.0**-1018, rel=1e-12)
            for g in outside:
                for stack in (g[None], np.stack([np.eye(2), g])):
                    with pytest.raises(ValueError, match=r"2\*\*510.*normal float range"):
                        discreteness_radii(stack, rp)


class TestGaussOracle:
    """n = 2 closed form min(rho, lambda_1(g Z^2)^2) against the general
    search kernel, which stays as its oracle."""

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(1.0, 5.0),
        st.floats(_DEFAULT_RP.rho, ZASSENHAUS_RADIUS),
    )
    @settings(max_examples=120, deadline=None)
    def test_radius_matches_shortest_vector(self, seed, log10_cond, rho):
        rp = RadiusParams(rho=rho)
        cond = 10.0**log10_cond
        rng = np.random.default_rng([47, seed])
        g = sample_base_conjugator(2, rng, cond_low=cond, cond_high=cond)
        rotated = haar_orthogonal(2, rng) @ g
        want = kron_radius(g, rho)
        got = model_radius(g, rp)
        assert abs(got / want - 1.0) <= 1e-9
        assert abs(model_radius(rotated, rp) / got - 1.0) <= 1e-12
        for stacked in discreteness_radii(np.stack([g, rotated]), rp):
            assert abs(stacked / want - 1.0) <= 1e-9

    def test_oracle_on_the_cusp_ray_and_identity(self):
        assert gauss_radius(np.eye(2).tolist(), 1.0, 0.3) == 0.3
        for y in (10.0, 1e3, 1e5):
            g = np.diag([y**-0.5, y**0.5])
            assert gauss_radius(g.tolist(), 1.0, 0.3) == pytest.approx(1.0 / y, rel=1e-15)
            rp = RadiusParams(rho=0.3)
            assert model_radius(g, rp) == pytest.approx(1.0 / y, rel=1e-15)
