"""Dense matrix kernels shared by every experiment.

Everything here is plain float64 numpy. Matrices are square unless noted,
and random sampling always goes through an explicit numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Subspace",
    "frobenius",
    "haar_orthogonal",
    "haar_rotations",
    "hadamard_bound",
]


def frobenius(x: np.ndarray) -> float:
    return float(np.sqrt(np.sum(x * x)))


@dataclass(frozen=True)
class Subspace:
    """Subspace of R^n given by an orthonormal basis in the columns of `basis`."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis must be {self.ambient_dim} x l, got {b.shape}")
        if not 1 <= b.shape[1] <= self.ambient_dim:
            raise ValueError("subspace dimension out of range")
        gram_defect = np.abs(b.T @ b - np.eye(b.shape[1])).max()
        if gram_defect > 1e-10:
            raise ValueError(f"basis not orthonormal, Gram defect {gram_defect:.3e}")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of SO(n), from one n x n Gaussian draw of rng."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return haar_rotations(rng.standard_normal((n, n)))


def haar_rotations(z: np.ndarray) -> np.ndarray:
    """One Haar-random element of SO(n) per standard Gaussian n x n matrix
    in the trailing two axes of z (a single matrix or a stack).

    QR of each Gaussian matrix, the R diagonal sign-corrected so Q is Haar
    on O(n); where det Q = -1 the last column is flipped, pushing Haar on
    the reflection component onto SO(n).  The stacked QR and det run the
    same LAPACK routine per matrix as a single call, and the signs are
    exact multiplications by +-1, so each rotation is bit-identical to the
    one its matrix gives alone.

    n = 2 takes the closed form of that recipe, with no LAPACK call: for
    first column (a, c) and h = hypot(a, c), the rotation is
    [[a/h, -c/h], [c/h, a/h]].  In exact arithmetic the recipe gives the
    same matrix: the sign-corrected first column of Q is (a, c) / h, and
    the second is the unit vector orthogonal to it that makes det +1.  It
    is Haar on SO(2) because the direction of a Gaussian vector is
    uniform.  The second column of z is drawn but unused, so the stream
    position does not depend on the recipe; the entries differ from the
    QR recipe's by a few ulp.  Each rotation is elementwise in its own
    column, so stacked and single draws agree bit for bit here too.
    """
    if z.shape[-2:] == (2, 2):
        q = np.empty(z.shape)
        q[..., 0] = z[..., 0] / np.hypot(z[..., 0, 0], z[..., 1, 0])[..., None]
        q[..., 0, 1] = -q[..., 1, 0]
        q[..., 1, 1] = q[..., 0, 0]
        return q
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    q[..., -1] *= np.sign(np.linalg.det(q))[..., None]
    return q


def hadamard_bound(a: np.ndarray) -> float:
    """Product of column 2-norms; dominates |det A|."""
    a = np.asarray(a, dtype=float)
    return float(np.prod(np.linalg.norm(a, axis=0)))
