"""Dense matrix kernels shared by every experiment.

Everything here is plain float64 numpy. Matrices are square unless noted,
random sampling always goes through an explicit numpy Generator, and the
exp/log pair is written so that each stays a usable oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LogDomainError",
    "Subspace",
    "frobenius",
    "op_norm",
    "haar_orthogonal",
    "mat_exp",
    "mat_log",
    "hadamard_bound",
]


class LogDomainError(ValueError):
    """Matrix logarithm requested outside the series-convergence ball."""


def frobenius(x: np.ndarray) -> float:
    return float(np.sqrt(np.sum(x * x)))


def op_norm(m: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(m, 2))


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
    """Haar-random element of SO(n).

    QR of a Gaussian matrix, the R diagonal sign-corrected so Q is Haar on
    O(n); if det Q = -1 the last column is flipped, pushing Haar on the
    reflection component onto SO(n).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def mat_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring on the Taylor series."""
    x = np.asarray(x, dtype=float)
    nrm = frobenius(x)
    if not np.isfinite(nrm):
        raise ValueError("non-finite input")
    squarings = max(0, int(np.ceil(np.log2(nrm / 0.0625))) if nrm > 0.0625 else 0)
    y = x / (2.0**squarings)
    n = x.shape[0]
    term = np.eye(n)
    out = np.eye(n)
    # ||y|| <= 1/16, so 16 terms leave a remainder below 1e-21
    for k in range(1, 17):
        term = term @ y / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _sqrt_near_identity(m: np.ndarray) -> np.ndarray:
    """Denman-Beavers square root; valid on our domain (spectrum right of 0)."""
    y, z = m, np.eye(m.shape[0])
    for _ in range(60):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z = 0.5 * (z + np.linalg.inv(y))
        step = frobenius(y_next - y)
        y = y_next
        if step <= 1e-16 * max(1.0, frobenius(y)):
            break
    return y


def mat_log(m: np.ndarray) -> np.ndarray:
    """Principal logarithm for ||M - I||_op < 1.

    Inverse scaling-and-squaring: repeated square roots until the Mercator
    series converges fast, then sum and undo by doubling.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    eye = np.eye(n)
    dist = op_norm(m - eye)
    if not dist < 1.0:
        raise LogDomainError(f"||M - I||_op = {dist:.6f} is outside the unit ball")
    doublings = 0
    while frobenius(m - eye) > 0.25:
        m = _sqrt_near_identity(m)
        doublings += 1
        if doublings > 60:  # not reachable from the guarded domain
            raise LogDomainError("square-root scaling failed to contract")
    e = m - eye
    out = np.zeros_like(e)
    power = eye.copy()
    # ||E||_F <= 1/4: 32 terms put the remainder near 1e-20
    for k in range(1, 33):
        power = power @ e
        out = out + ((-1.0) ** (k + 1) / k) * power
    return out * (2.0**doublings)


def hadamard_bound(a: np.ndarray) -> float:
    """Product of column 2-norms; dominates |det A|."""
    a = np.asarray(a, dtype=float)
    return float(np.prod(np.linalg.norm(a, axis=0)))
