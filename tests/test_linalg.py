import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LogDomainError, mat_log, op_norm, wedge_power
from thinpart.linalg import (
    Subspace,
    frobenius,
    haar_orthogonal,
    haar_rotations,
    hadamard_bound,
)
from thinpart.slgroup import ZASSENHAUS_RADIUS


def _rng(index=0):
    return np.random.default_rng([77, index])


class TestExpLog:
    """The Mercator-series oracle mat_log against scipy; the exponential
    side of the pair is scipy's expm."""

    @pytest.mark.parametrize("case", range(40))
    def test_exp_matches_scipy(self, case):
        # on the ball |x|_F <= ZASSENHAUS_RADIUS, e^x obeys the bound
        # |e^x - I|_F <= |x|_F e^{|x|_F} that the radius kernel pads its
        # search ball with, and mat_log returns x
        rng = _rng(case)
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((n, n))
        x *= ZASSENHAUS_RADIUS * rng.uniform(0.1, 1.0) / frobenius(x)
        t = frobenius(x)
        m = scipy.linalg.expm(x)
        assert frobenius(m - np.eye(n)) <= t * np.exp(t)
        assert np.abs(mat_log(m) - x).max() <= 1e-12

    def test_exp_of_zero(self):
        # exp(0) = I read backwards: E = 0 ends the series at its first power
        assert np.array_equal(mat_log(np.eye(3)), np.zeros((3, 3)))

    def test_exp_rejects_non_finite(self):
        with pytest.raises(LogDomainError):
            mat_log(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(LogDomainError):
            mat_log(np.array([[1.0, -np.inf], [0.0, 1.0]]))

    @pytest.mark.parametrize("case", range(40))
    def test_log_matches_scipy(self, case):
        rng = _rng(1000 + case)
        n = int(rng.integers(2, 6))
        m = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / n
        if not frobenius(m - np.eye(n)) <= 0.5:
            pytest.skip("draw outside the log domain |M - I|_F <= 1/2")
        got = mat_log(m)
        want = scipy.linalg.logm(m)
        assert np.abs(got - want).max() <= 1e-10

    def test_log_exp_round_trip(self):
        # |x|_F <= ZASSENHAUS_RADIUS keeps |e^x - I|_F <= 0.34 e^0.34 < 1/2
        rng = _rng(7)
        for _ in range(20):
            x = rng.standard_normal((3, 3))
            x *= ZASSENHAUS_RADIUS * rng.uniform(0.1, 1.0) / frobenius(x)
            assert np.abs(mat_log(scipy.linalg.expm(x)) - x).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_log_at_the_search_ball_edge(self, n):
        # |M - I|_F = rho e^rho at rho = ZASSENHAUS_RADIUS, the widest ball
        # the radius kernel searches
        rng = _rng(9000 + n)
        e = rng.standard_normal((n, n))
        m = np.eye(n) + ZASSENHAUS_RADIUS * np.exp(ZASSENHAUS_RADIUS) * e / frobenius(e)
        want = np.real(scipy.linalg.logm(m))
        assert frobenius(mat_log(m) - want) <= 1e-13 * frobenius(want)

    def test_log_rejects_far_matrices(self):
        with pytest.raises(LogDomainError):
            mat_log(np.diag([3.0, 1.0]))
        with pytest.raises(LogDomainError):
            mat_log(np.diag([2.0, 1.0]))
        # boundary: |M - I|_F = 1/2 is in, one ulp above it is out
        assert mat_log(np.diag([1.5, 1.0]))[0, 0] == pytest.approx(np.log(1.5), rel=1e-15)
        with pytest.raises(LogDomainError):
            mat_log(np.diag([np.nextafter(1.5, 2.0), 1.0]))
        with pytest.raises(LogDomainError):
            mat_log(np.diag([np.nan, 1.0]))

    def test_log_of_unipotent_is_nilpotent(self):
        # the series terminates exactly for a single off-diagonal entry
        m = np.eye(2)
        m[0, 1] = 0.01
        log = mat_log(m)
        assert log[0, 1] == pytest.approx(0.01, rel=1e-15)
        assert abs(log[0, 0]) < 1e-18 and abs(log[1, 0]) < 1e-18


class TestWedge:
    """The exterior-power oracle that test_grassmann checks q(W) against."""

    @pytest.mark.parametrize("case", range(25))
    def test_cauchy_binet_multiplicativity(self, case):
        rng = _rng(2000 + case)
        n = int(rng.integers(2, 6))
        l = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        left = wedge_power(a @ b, l)
        right = wedge_power(a, l) @ wedge_power(b, l)
        assert np.abs(left - right).max() <= 1e-10 * max(1.0, np.abs(left).max())

    @pytest.mark.parametrize("case", range(25))
    def test_singular_values_are_subset_products(self, case):
        rng = _rng(3000 + case)
        n = int(rng.integers(2, 6))
        l = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, n))
        sv = np.linalg.svd(a, compute_uv=False)
        want = sorted(
            (float(np.prod(sv[list(ix)])) for ix in itertools.combinations(range(n), l)),
            reverse=True,
        )
        got = np.linalg.svd(wedge_power(a, l), compute_uv=False)
        assert np.abs(got - np.array(want)).max() <= 1e-8 * max(1.0, want[0])

    def test_diagonal_case(self):
        d = np.diag([2.0, 3.0, 5.0])
        got = wedge_power(d, 2)
        assert got == pytest.approx(np.diag([6.0, 10.0, 15.0]), rel=1e-12)

    def test_top_wedge_is_determinant(self):
        rng = _rng(4)
        a = rng.standard_normal((4, 4))
        assert wedge_power(a, 4)[0, 0] == pytest.approx(np.linalg.det(a), rel=1e-10)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            wedge_power(np.eye(3), 0)
        with pytest.raises(ValueError):
            wedge_power(np.eye(3), 4)


class TestHaar:
    def test_special_orthogonal(self):
        for case in range(30):
            rng = _rng(5000 + case)
            n = int(rng.integers(1, 7))
            q = haar_orthogonal(n, rng)
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-12
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_angle_is_uniform(self):
        # SO(2) Haar is the uniform angle; quartile counts must be balanced
        rng = _rng(6000)
        angles = []
        for _ in range(4000):
            q = haar_orthogonal(2, rng)
            angles.append(np.arctan2(q[1, 0], q[0, 0]))
        counts, _ = np.histogram(angles, bins=4, range=(-np.pi, np.pi))
        assert counts.min() > 850 and counts.max() < 1150

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            haar_orthogonal(0, _rng())

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_rotations_match_single_draws(self, n):
        # a stack of Gaussians gives, bit for bit, the rotation each one
        # gives alone, both through haar_orthogonal and through the plain
        # per-matrix recipe; the stream is one n x n draw per rotation, so
        # the generator ends where a draw of the same normals leaves it.
        # At n >= 3 (and n = 1) the recipe is QR, R-diagonal signs, last
        # column flipped on det -1; n = 2 takes its closed form
        # [[a, -c], [c, a]] / hypot(a, c) of the first column (a, c)
        stacked = haar_rotations(
            np.stack([_rng(8000 + case).standard_normal((n, n)) for case in range(200)])
        )
        for case in range(200):
            rng, drawn = _rng(8000 + case), _rng(8000 + case)
            assert np.array_equal(stacked[case], haar_orthogonal(n, rng))
            z = drawn.standard_normal((n, n))
            assert rng.bit_generator.state == drawn.bit_generator.state
            if n == 2:
                (a, _), (c, _) = z
                h = np.hypot(a, c)
                q = np.array([[a / h, -c / h], [c / h, a / h]])
            else:
                q = _qr_rotation(z)
            assert np.array_equal(stacked[case], q)
        if n != 2:
            return
        # the n = 2 closed form and the QR recipe are the same matrix in
        # exact arithmetic; in floats they agree within 4 ulp of 1.0 (the
        # entries of a rotation lie in [-1, 1]) on 10^4 draws, and the
        # closed form is a rotation to round-off
        z = _rng(8200).standard_normal((10_000, 2, 2))
        got = haar_rotations(z)
        want = np.stack([_qr_rotation(m) for m in z])
        assert np.abs(got - want).max() <= 4 * np.spacing(1.0)
        assert np.abs(got @ got.transpose(0, 2, 1) - np.eye(2)).max() <= 4 * np.spacing(1.0)
        assert np.abs(np.linalg.det(got) - 1.0).max() <= 4 * np.spacing(1.0)


def _qr_rotation(z):
    # the QR recipe for one Gaussian matrix
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


class TestNormsAndSubspace:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_norm_inequalities(self, index):
        rng = _rng(7000 + index)
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        op = op_norm(a)
        fro = frobenius(a)
        assert op <= fro * (1 + 1e-12)
        assert fro <= np.sqrt(n) * op * (1 + 1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_hadamard_dominates_det(self, index):
        rng = _rng(8000 + index)
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        bound = hadamard_bound(a)
        assert bound >= abs(np.linalg.det(a)) - 1e-9 * max(1.0, bound)

    def test_subspace_requires_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Subspace(3, np.ones((3, 2)))
        with pytest.raises(ValueError):
            Subspace(3, np.eye(3)[:, :0])
