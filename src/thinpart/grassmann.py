"""Lower bounds for projections restricted to a moving subspace.

U and W are `Subspace` values, so the split R^n = U + U^perp is orthogonal
by construction and P = U U^T is the orthogonal projection onto U.  The
wedge functional q(W) bounds from below how much P can shrink unit vectors
of W.  Everything is phrased through the singular values of P restricted
to W, which are those of U^T W: P W = U (U^T W), and U has orthonormal
columns.
"""

from __future__ import annotations

import numpy as np

from .linalg import Subspace

__all__ = [
    "check_projection_bound",
    "check_bijection_contraction",
]


def _restricted_singular_values(u: Subspace, w: Subspace) -> np.ndarray:
    """Singular values of P restricted to W, in decreasing order."""
    if w.dim > u.dim:
        raise ValueError(f"tuple length {w.dim} exceeds dim U = {u.dim}")
    if w.ambient_dim != u.ambient_dim:
        raise ValueError("split and subspace dimensions disagree")
    return np.linalg.svd(u.basis.T @ w.basis, compute_uv=False)


def check_projection_bound(u: Subspace, w: Subspace) -> tuple:
    """Verify inf ||P w|| / ||w|| >= q(W); returns (holds, slack).

    q(W), the sup over unit tuples (w_1 .. w_l) in W of
    ||P w_1 ^ ... ^ P w_l||, is the product of the singular values of P
    restricted to W: it is attained on an orthonormal basis of W, and a
    unit tuple w_i = B c_i scales it by |det C| <= 1 (Hadamard).
    """
    svals = _restricted_singular_values(u, w)
    slack = float(svals[-1]) - float(np.prod(svals))
    return slack >= -1e-10, slack


def check_bijection_contraction(l_map: np.ndarray, u: Subspace, w: Subspace) -> tuple:
    """Check inf_W ||Lw||/||w|| >= (inf_U ||Lu||/||u||) * (inf_W ||Pw||/||w||).

    L must preserve U and U^perp, i.e. commute with P.  Each infimum is the
    smallest singular value of the map restricted to the subspace, so the
    check is exact.  Returns (holds, slack) with slack the left side minus
    the right.
    """
    l_map = np.asarray(l_map, dtype=float)
    p = u.basis @ u.basis.T
    commute_defect = float(np.abs(p @ l_map - l_map @ p).max())
    if commute_defect > 1e-10:
        raise ValueError(f"L does not preserve the split, defect {commute_defect:.3e}")
    inf_on_u = float(np.linalg.svd(l_map @ u.basis, compute_uv=False)[-1])
    inf_p = float(_restricted_singular_values(u, w)[-1])
    lhs = float(np.linalg.svd(l_map @ w.basis, compute_uv=False)[-1])
    slack = lhs - inf_on_u * inf_p
    return slack >= -1e-10, slack
