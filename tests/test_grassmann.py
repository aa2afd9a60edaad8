import numpy as np
import pytest

from oracles import q_of_subspace, wedge_vector
from thinpart.grassmann import check_bijection_contraction, check_projection_bound
from thinpart.linalg import Subspace, haar_orthogonal


def _random_case(rng):
    """Random subspace U plus a subspace W with dim W <= dim U."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, n))
    q = haar_orthogonal(n, rng)
    l = int(rng.integers(1, m + 1))
    wq, _ = np.linalg.qr(rng.standard_normal((n, l)))
    return Subspace(n, q[:, :m]), Subspace(n, wq[:, :l]), q, m


class TestQOfSubspace:
    def test_never_exceeds_one(self):
        for case in range(200):
            rng = np.random.default_rng([21, case])
            u, w, _, _ = _random_case(rng)
            q_val = q_of_subspace(u, w)
            assert 0.0 <= q_val <= 1.0 + 1e-12

    def test_sampled_tuples_never_beat_the_basis_value(self):
        # the supremum is attained on an orthonormal basis: the wedge of P B,
        # from its minors, has norm q(W), and random unit tuples B C stay
        # below it (up to determinant round-off)
        for case in range(100):
            rng = np.random.default_rng([22, case])
            u, w, _, _ = _random_case(rng)
            a = u.basis @ (u.basis.T @ w.basis)
            q_val = q_of_subspace(u, w)
            assert np.linalg.norm(wedge_vector(a)) == pytest.approx(q_val, rel=1e-9, abs=1e-15)
            coeffs = rng.standard_normal((200, w.dim, w.dim))
            coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
            for c in coeffs:
                assert np.linalg.norm(wedge_vector(a @ c)) <= q_val * (1.0 + 1e-12) + 1e-15

    def test_w_inside_u_gives_one(self):
        u = Subspace(4, np.eye(4)[:, :2])
        w = Subspace(4, np.eye(4)[:, :2])
        assert q_of_subspace(u, w) == pytest.approx(1.0, abs=1e-12)

    def test_w_orthogonal_to_u_gives_zero(self):
        u = Subspace(4, np.eye(4)[:, :2])
        w = Subspace(4, np.eye(4)[:, 2:3])
        assert q_of_subspace(u, w) == pytest.approx(0.0, abs=1e-12)

    def test_oversized_tuple_rejected(self):
        u = Subspace(4, np.eye(4)[:, :1])
        w = Subspace(4, np.eye(4)[:, :2])
        with pytest.raises(ValueError):
            q_of_subspace(u, w)

    def test_mismatched_ambient_dimensions_rejected(self):
        u = Subspace(4, np.eye(4)[:, :2])
        w = Subspace(3, np.eye(3)[:, :1])
        with pytest.raises(ValueError, match="dimensions disagree"):
            check_projection_bound(u, w)
        with pytest.raises(ValueError, match="dimensions disagree"):
            check_bijection_contraction(np.eye(4), u, w)


class TestProjectionBound:
    def test_random_sweep(self):
        for case in range(1000):
            rng = np.random.default_rng([23, case])
            u, w, _, _ = _random_case(rng)
            holds, slack = check_projection_bound(u, w)
            assert holds, f"case {case}: slack {slack}"


class TestBijectionContraction:
    def test_split_preserving_maps(self):
        for case in range(300):
            rng = np.random.default_rng([24, case])
            u, w, q, m = _random_case(rng)
            n = u.ambient_dim
            d = np.concatenate(
                [np.exp(rng.uniform(0.2, 1.0, m)), np.exp(rng.uniform(-1.0, -0.2, n - m))]
            )
            l_map = q @ np.diag(d) @ q.T
            holds, slack = check_bijection_contraction(l_map, u, w)
            assert holds, f"case {case}: slack {slack}"

    def test_unit_vectors_never_beat_the_exact_infimum(self):
        # the check takes inf_W ||Lw||/||w|| as the smallest singular value
        # of L on W; random unit vectors of W stay above it up to round-off
        for case in range(300):
            rng = np.random.default_rng([25, case])
            u, w, q, m = _random_case(rng)
            n = u.ambient_dim
            d = np.concatenate(
                [np.exp(rng.uniform(0.2, 1.0, m)), np.exp(rng.uniform(-1.0, -0.2, n - m))]
            )
            l_map = q @ np.diag(d) @ q.T
            sigma_min = np.linalg.svd(l_map @ w.basis, compute_uv=False)[-1]
            coeffs = rng.standard_normal((64, w.dim))
            coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
            ratios = np.linalg.norm(coeffs @ w.basis.T @ l_map.T, axis=1)
            assert ratios.min() >= sigma_min * (1.0 - 1e-12), f"case {case}"

    def test_rejects_split_breaking_map(self):
        u = Subspace(3, np.eye(3)[:, :1])
        w = Subspace(3, np.eye(3)[:, :1])
        shear = np.eye(3)
        shear[0, 2] = 1.0
        with pytest.raises(ValueError):
            check_bijection_contraction(shear, u, w)
