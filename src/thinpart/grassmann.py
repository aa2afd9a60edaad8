"""Lower bounds for projections restricted to a moving subspace.

For an orthogonal split R^n = U + U' with projection P onto U, the wedge
functional q(W) bounds from below how much P can shrink unit vectors of a
subspace W.  Everything is phrased through singular values of P restricted
to W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import Subspace

__all__ = [
    "SplitSpace",
    "split_from_basis",
    "check_projection_bound",
    "check_bijection_contraction",
]


@dataclass(frozen=True)
class SplitSpace:
    """The projection P onto U of a split R^n = U + U' (along U')."""

    ambient_dim: int
    proj_u: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.proj_u, dtype=float)
        n = self.ambient_dim
        if p.shape != (n, n):
            raise ValueError("projection must be n x n")
        if np.abs(p @ p - p).max() > 1e-12:
            raise ValueError("proj_u is not idempotent")
        object.__setattr__(self, "proj_u", p)

    @property
    def dim_u(self) -> int:
        return int(round(float(np.trace(self.proj_u))))


def split_from_basis(u_basis: np.ndarray) -> SplitSpace:
    """Orthogonal split onto span(columns) and its complement."""
    b = np.asarray(u_basis, dtype=float)
    q, _ = np.linalg.qr(b)
    return SplitSpace(b.shape[0], q @ q.T)


def _restricted_singular_values(ss: SplitSpace, w: Subspace) -> np.ndarray:
    """Singular values of P restricted to W, in decreasing order."""
    if w.dim > ss.dim_u:
        raise ValueError(f"tuple length {w.dim} exceeds dim U = {ss.dim_u}")
    if w.ambient_dim != ss.ambient_dim:
        raise ValueError("split and subspace dimensions disagree")
    return np.linalg.svd(ss.proj_u @ w.basis, compute_uv=False)


def check_projection_bound(ss: SplitSpace, w: Subspace) -> tuple:
    """Verify inf ||P w|| / ||w|| >= q(W); returns (holds, slack).

    q(W), the sup over unit tuples (w_1 .. w_l) in W of
    ||P w_1 ^ ... ^ P w_l||, is the product of the singular values of P
    restricted to W: it is attained on an orthonormal basis of W, and a
    unit tuple w_i = B c_i scales it by |det C| <= 1 (Hadamard).  Valid for
    orthogonal splits, so P is required to be symmetric.
    """
    if np.abs(ss.proj_u - ss.proj_u.T).max() > 1e-10:
        raise ValueError("projection bound requires an orthogonal split")
    svals = _restricted_singular_values(ss, w)
    slack = float(svals[-1]) - float(np.prod(svals))
    return slack >= -1e-10, slack


def check_bijection_contraction(l_map: np.ndarray, ss: SplitSpace, w: Subspace) -> tuple:
    """Check inf_W ||Lw||/||w|| >= (inf_U ||Lu||/||u||) * (inf_W ||Pw||/||w||).

    L must preserve U and U', i.e. commute with P.  Each infimum is the
    smallest singular value of the map restricted to the subspace, so the
    check is exact.  Returns (holds, slack) with slack the left side minus
    the right.
    """
    l_map = np.asarray(l_map, dtype=float)
    p = ss.proj_u
    if np.abs(p - p.T).max() > 1e-10:
        raise ValueError("contraction bound requires an orthogonal split")
    commute_defect = float(np.abs(p @ l_map - l_map @ p).max())
    if commute_defect > 1e-10:
        raise ValueError(f"L does not preserve the split, defect {commute_defect:.3e}")
    u_basis = np.linalg.svd(p)[0][:, : ss.dim_u]  # orthonormal basis of range(P)
    inf_on_u = float(np.linalg.svd(l_map @ u_basis, compute_uv=False)[-1])
    inf_p = float(np.linalg.svd(p @ w.basis, compute_uv=False)[-1])
    lhs = float(np.linalg.svd(l_map @ w.basis, compute_uv=False)[-1])
    slack = lhs - inf_on_u * inf_p
    return slack >= -1e-10, slack
