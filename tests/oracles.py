"""Brute-force references that tests compare the library against.

Each one reaches its answer by a route independent of the code under test:
exhaustive integer windows for the discreteness radius, minors for wedge
norms, and explicit roots for the type-A constants.
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
