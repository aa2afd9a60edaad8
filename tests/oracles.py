"""Brute-force references that tests compare the library against.

Each one reaches its answer by a route independent of the code under test:
exhaustive integer windows for the discreteness radius, minors for wedge
norms, explicit roots for the type-A constants, and the adjoint action
as an explicit matrix on sl(n), whose spectral norm checks the closed-form
Ad norms (expanding_element's and diagonal_ad_norm's largest entry ratio).
"""

import itertools
import math

import numpy as np

from thinpart.slgroup import candidate_entry_bound


def lattice_candidates(conjugator: np.ndarray, r: float) -> list:
    """Every gamma in SL(2,Z), gamma != I, inside the integer entry window
    for radius r.  Complete for log-norm <= r by the candidate_entry_bound
    derivation; deliberately exhaustive rather than fast.
    """
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError(f"radius must be finite and nonnegative, got {r}")
    if np.shape(conjugator) != (2, 2):
        raise ValueError("the window oracle is written for 2 x 2 conjugators")
    bound = candidate_entry_bound(conjugator, r)
    # Solve a d - b c = 1 for d instead of scanning the fourth entry.
    out = []
    for a in range(1 - bound, bound + 2):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if a == 0:
                    if b * c == -1:
                        out.extend(
                            np.array([[0, b], [c, d]], dtype=np.int64)
                            for d in range(1 - bound, bound + 2)
                        )
                    continue
                if (1 + b * c) % a != 0:
                    continue
                d = (1 + b * c) // a
                if abs(d - 1) > bound or (a, b, c, d) == (1, 0, 0, 1):
                    continue
                out.append(np.array([[a, b], [c, d]], dtype=np.int64))
    return out


def wedge_vector(a: np.ndarray) -> np.ndarray:
    """Coordinates of a_1 ^ ... ^ a_l for the columns of an n x l matrix:
    its l x l minors, row subsets in lexicographic order."""
    rows = np.array(list(itertools.combinations(range(a.shape[0]), a.shape[1])))
    return np.linalg.det(a[rows])


def wedge_power(m: np.ndarray, l: int) -> np.ndarray:
    """l-th exterior power: entry (I, J) is the minor on rows I, columns J,
    so wedge_power(A @ B, l) = wedge_power(A, l) @ wedge_power(B, l)."""
    n = m.shape[0]
    if m.shape != (n, n) or not 1 <= l <= n:
        raise ValueError(f"need a square matrix and 1 <= l <= n, got {m.shape}, l={l}")
    cols = itertools.combinations(range(n), l)
    return np.stack([wedge_vector(m[:, list(c)]) for c in cols], axis=1)


def type_a_positive_roots(rank: int) -> list:
    """Positive roots e_i - e_j (i < j) of A_rank as coefficient vectors over
    the simple roots e_k - e_{k+1}; coefficient k is the sum of the first
    k + 1 coordinates, an exact integer solve."""
    roots = []
    for i, j in itertools.combinations(range(rank + 1), 2):
        x = [0] * (rank + 1)
        x[i], x[j] = 1, -1
        roots.append(tuple(itertools.accumulate(x))[:rank])
    return roots


def op_norm(m: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(m, 2))


def sl_basis(n: int) -> np.ndarray:
    """Orthonormal Frobenius basis of the traceless n x n matrices.

    Layout: the n(n-1)/2 strictly lower elementary matrices first (the
    side contracted by the inverse of an increasing ray), then the n-1
    traceless diagonals, then the strictly upper elementary matrices.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    mats = []
    for i in range(n):
        for j in range(i):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            mats.append(e)
    for k in range(1, n):
        h = np.zeros((n, n))
        for i in range(k):
            h[i, i] = 1.0
        h[k, k] = -float(k)
        mats.append(h / math.sqrt(k * (k + 1)))
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            mats.append(e)
    return np.stack(mats)


def ad_operator(s: np.ndarray) -> np.ndarray:
    """Matrix of X -> s X s^{-1} in the sl_basis ordering."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 2:
        raise ValueError(f"need a square matrix of size >= 2, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix entries must be finite")
    det = np.linalg.det(s)
    if not np.isfinite(det) or abs(det) < 1e-300:
        raise ValueError("matrix must be invertible")
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix must be invertible") from exc
    basis = sl_basis(s.shape[0])
    conj = np.einsum("ij,ajk,kl->ail", s, basis, s_inv)
    return np.tensordot(basis, conj, axes=([1, 2], [1, 2]))


def diagonal_ad_norm(diag_entries: np.ndarray) -> float:
    """Closed form |Ad(s)| for diagonal s: the largest entry ratio."""
    d = np.abs(np.asarray(diag_entries, dtype=float))
    if d.ndim != 1 or d.size < 2:
        raise ValueError("need at least two diagonal entries")
    if not np.all(d > 0.0):
        raise ValueError("diagonal entries must be nonzero")
    return float(d.max() / d.min())
