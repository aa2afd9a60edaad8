"""Brute-force references that tests compare the library against.

Each one reaches its answer by a route independent of the code under test:
exhaustive integer windows for the discreteness radius (every n = 2
candidate, and every n = 3 one within entry window 2 with log-norms from
scipy's logm), the n = 2 closed form one matrix at a time in python floats
(the scalar Lagrange-Gauss loop that the stacked pass must match bit for
bit), fraction-free elimination for integer determinants, the
Mercator-series matrix log, the finite log sum of every unipotent element
(not only the square-zero ones the library confirms), minors for wedge
norms, explicit roots for the type-A constants, and the adjoint action as
an explicit matrix on sl(n), whose spectral norm checks the closed-form Ad
norms (expanding_element's and diagonal_ad_norm's largest entry ratio).
The radius kernel's two search layers also keep their plain forms here:
an LLL that takes a fresh QR after every swap, and a full interval
enumeration of the ball that never shrinks it.  A mu_s draw keeps its
plain form too: two Haar rotations around s_lambda, one after the other.
Two formulas that only tests evaluate live here as well: q_of_subspace,
the wedge functional that check_projection_bound compares against, and
delta_asymptotic, the large-lambda exponent ray of criterion 03.  The
exact n = 2 expansion probability has a quadrature of its one-step law.
The sublevel measures keep their one-shot forms: every sample drawn at
once, then counted by sort + searchsorted or by the mean of a mask.
samples.csv keeps its row-by-row form, each cell spelled on its own.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from thinpart import slgroup
from thinpart.grassmann import _restricted_singular_values
from thinpart.linalg import frobenius, haar_orthogonal


def mu_s_draw(sp, rng: np.random.Generator) -> np.ndarray:
    """k1 s_lambda k2 with k1, then k2, Haar on SO(n) from rng."""
    k1 = haar_orthogonal(sp.n, rng)
    return k1 @ sp.s_lambda @ haar_orthogonal(sp.n, rng)


def expansion_probability_quadrature(a: float, factor: float, nodes: int = 10**6) -> float:
    """Midpoint rule for P(a cos^2 theta + a^-1 sin^2 theta >= factor) with
    theta uniform on [0, pi): the fraction of nodes where the indicator
    holds.  The indicator jumps twice, so the error is below 2 / nodes."""
    theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    f = a * np.cos(theta) ** 2 + np.sin(theta) ** 2 / a
    return float(np.count_nonzero(f >= factor)) / nodes


def sorted_sublevel_measures(eps_grid, rng, n_samples) -> np.ndarray:
    """measure{|cos theta| < eps} for each eps: one full draw of uniform
    angles, sorted, with #{|v| < eps} read off as searchsorted's left position."""
    values = np.abs(np.cos(rng.uniform(0.0, 2.0 * np.pi, size=n_samples)))
    values.sort()
    return np.searchsorted(values, np.asarray(eps_grid, dtype=float), side="left") / n_samples


def full_draw_sublevel_measure(f, eps_grid, n_samples, rng) -> np.ndarray:
    """Fraction of n_samples uniform points of [-1, 1] with |f| < eps, for
    each eps, drawn at once."""
    values = np.abs(np.asarray(f(rng.uniform(-1.0, 1.0, size=n_samples)), dtype=float))
    return np.array([np.mean(values < eps) for eps in eps_grid])


def entry_window(conjugator: np.ndarray, r: float) -> int:
    """Integer entry window for radius r: |log M|_F <= r gives
    |M - I|_F <= r e^r, undoing the conjugation stretches that by at most
    cond_2(g), and entries are bounded by the Frobenius norm; one unit of
    slack absorbs round-off."""
    return int(math.floor(np.linalg.cond(conjugator) * r * math.exp(r))) + 1


def lattice_candidates(conjugator: np.ndarray, r: float) -> list:
    """Every gamma in SL(2,Z), gamma != I, inside entry_window(g, r).
    Complete for log-norm <= r; deliberately exhaustive rather than fast.
    """
    if not (r >= 0.0 and math.isfinite(r)):
        raise ValueError(f"radius must be finite and nonnegative, got {r}")
    if np.shape(conjugator) != (2, 2):
        raise ValueError("the window oracle is written for 2 x 2 conjugators")
    bound = entry_window(conjugator, r)
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


def gauss_reduce(g):
    """Lagrange-Gauss reduced basis of the column lattice g Z^2, g rows of
    floats; returned in the same form, shortest column first.

    Reduce the longer column against the shorter, swap, and stop once the
    reduced one is no shorter, in python floats one matrix at a time.  The
    squared length of the shorter column drops at every swap, so it
    terminates; it stops after slgroup._GAUSS_CAP reductions, as the
    stacked pass does, read at call time so that a test can lower both.
    """
    (a, b), (c, d) = g
    uu = a * a + c * c
    vv = b * b + d * d
    if uu > vv:
        a, b, c, d, uu = b, a, d, c, vv
    for _ in range(slgroup._GAUSS_CAP):
        m = round((a * b + c * d) / uu)
        b -= m * a
        d -= m * c
        vv = b * b + d * d
        if vv >= uu:
            break
        a, b, c, d, uu = b, a, d, c, vv
    return [[a, b], [c, d]]


def gauss_radius(g, det: float, rho: float) -> float:
    """min(rho, |g v|^2 / det) for the shortest vector g v of g Z^2 from
    gauss_reduce, in python floats: the n = 2 closed form of
    discreteness_radii, whose docstring holds the proof, one matrix at a
    time."""
    (a, _), (c, _) = gauss_reduce(g)
    return min(rho, (a * a + c * c) / det)


@functools.lru_cache(maxsize=None)
def sl3_window(w: int) -> np.ndarray:
    """Every gamma in SL(3,Z), gamma != I, with |gamma_ij - delta_ij| <= w,
    for w <= 2: all (2w + 1)^9 integer matrices I + C, about 2 10^6 at
    w = 2.  The determinant expands along the first row, one product of
    the (2w + 1)^3 first rows with the cofactors of the (2w + 1)^6 lower
    two-row blocks."""
    if not 0 <= w <= 2:
        raise ValueError(f"the n = 3 window scan is written for w <= 2, got {w}")
    side = 2 * w + 1
    rows = np.indices((side,) * 3).reshape(3, -1).T - w
    lower = np.indices((side,) * 6).reshape(6, -1).T - w
    first = rows + np.array([1, 0, 0])
    (d, e, f), (p, h, i) = (lower[:, :3] + [0, 1, 0]).T, (lower[:, 3:] + [0, 0, 1]).T
    cofactors = np.stack([e * i - f * h, f * p - d * i, d * h - e * p], axis=1)
    a, b = np.nonzero(first @ cofactors.T == 1)
    gammas = np.concatenate([first[a], lower[b] + [0, 1, 0, 0, 0, 1]], axis=1)
    identity = (gammas == [1, 0, 0, 0, 1, 0, 0, 0, 1]).all(axis=1)
    window = gammas[~identity].reshape(-1, 3, 3)
    window.setflags(write=False)  # cached: every caller shares it
    return window


def sl3_window_radius(g: np.ndarray, rho: float) -> float:
    """Least |logm(g gamma g^{-1})|_F <= rho over sl3_window(entry_window(g,
    rho)), else rho.  Complete for log-norm <= rho: every such element
    lies in the window and has |M - I|_F <= rho e^rho < 2 rho."""
    if np.shape(g) != (3, 3):
        raise ValueError("the n = 3 window scan is written for 3 x 3 conjugators")
    if not 0.0 < rho < math.log(2.0):
        raise ValueError(f"rho must lie in (0, ln 2), got {rho}")
    conj = g @ sl3_window(entry_window(g, rho)) @ np.linalg.inv(g)
    near = np.sqrt(((conj - np.eye(3)) ** 2).sum(axis=(1, 2))) <= 2.0 * rho
    best = rho
    for m in conj[near]:
        log = scipy.linalg.logm(m)
        if np.abs(np.imag(log)).max() <= 1e-12:
            best = min(best, float(np.linalg.norm(np.real(log), "fro")))
    return best


def nilpotent_log_norm(g, g_inv, nil):
    """|log(g gamma g^{-1})|_F for gamma = I + nil, nil an integer matrix,
    or None when gamma is not unipotent.  The test nil^n = 0 runs in python
    ints; for nilpotent nil the log is the finite sum
    L = sum_{k<n} (-1)^{k+1} nil^k / k, and the value is |g L g^{-1}|_F.
    Unlike the library's confirm it weighs every unipotent gamma, also
    those with nil^2 != 0 that the square-zero lemma skips."""
    n = len(nil)
    power = [[int(v) for v in row] for row in nil]
    columns = list(zip(*power))
    log = np.zeros((n, n))
    for k in range(1, n + 1):
        if not any(map(any, power)):
            break
        if k == n:
            return None
        log += ((-1.0) ** (k + 1) / k) * np.array(power, dtype=float)
        power = [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in power]
    return frobenius(g @ log @ g_inv)


def int_det(mat: np.ndarray) -> int:
    """Exact determinant of an integer matrix, by fraction-free (Bareiss)
    elimination over python ints."""
    a = [[int(v) for v in row] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class LogDomainError(ValueError):
    """Matrix logarithm requested outside the series-convergence ball."""


def mat_log(m: np.ndarray) -> np.ndarray:
    """Principal logarithm for ||M - I||_F <= 1/2, by the Mercator series.

    log(I + E) = sum_{k >= 1} (-1)^{k+1} E^k / k, summed to the smallest K
    with t^K <= 2^-55, t = ||E||_F.  For t <= 1/2 the tail is at most
    t^{K+1} / ((K+1)(1-t)) <= 2^-54 t, while ||log M||_F >= t - t^2/(2(1-t))
    >= t/2, so the tail sits below an ulp of ||log M||_F.  K is 8 at
    t = 0.0062 and 55 at t = 1/2.  The sum stops early once a power of E
    is exactly zero (nilpotent E, as for unipotent M).
    """
    m = np.asarray(m, dtype=float)
    e = m - np.eye(m.shape[0])
    t = frobenius(e)
    if not t <= 0.5:
        raise LogDomainError(f"||M - I||_F = {t:.6f} is outside the ball of radius 1/2")
    out = np.zeros_like(e)
    power = np.eye(m.shape[0])
    k = 0
    t_k = 1.0
    while t_k > 2.0**-55:
        k += 1
        power = power @ e
        if not power.any():
            break
        out = out + ((-1.0) ** (k + 1) / k) * power
        t_k *= t
    return out


def qr_lll_reduce(basis: np.ndarray):
    """Column LLL reduction that recomputes the Gram-Schmidt data by a
    full QR after every swap.  Same size-reduction order, exchange test
    and step cap as the library's incremental version, so both return the
    same transform unless round-off flips a decision.
    """

    def gram_data(b):
        rr = np.linalg.qr(b, mode="r")
        diag = np.diag(rr).copy()
        return (rr / diag[:, None]).T, diag * diag

    b = np.array(basis, dtype=float)
    d = b.shape[1]
    u = np.eye(d, dtype=np.int64)
    mu, star = gram_data(b)
    k = 1
    steps = 0
    while k < d and steps < 64 * d * d:
        steps += 1
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                b[:, k] -= q * b[:, j]
                u[:, k] -= q * u[:, j]
                mu[k, j] -= q
                mu[k, :j] -= q * mu[j, :j]
        if star[k] >= (0.75 - mu[k, k - 1] ** 2) * star[k - 1]:
            k += 1
        else:
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            mu, star = gram_data(b)
            k = max(k - 1, 1)
    return b, u


def ball_points(rmat: np.ndarray, radius: float):
    """Every nonzero integer vector y with |rmat y| <= radius, rmat upper
    triangular with nonzero diagonal: a depth-first interval search over
    the whole ball, last coordinate first.
    """
    d = rmat.shape[0]
    y = np.zeros(d, dtype=np.int64)

    def descend(i: int, rem2: float, partial: np.ndarray):
        rii = rmat[i, i]
        center = -partial[i] / rii
        width = math.sqrt(max(rem2, 0.0)) / abs(rii)
        for yi in range(math.ceil(center - width), math.floor(center + width) + 1):
            contrib = rii * yi + partial[i]
            rem2_next = rem2 - contrib * contrib
            if rem2_next < -1e-12:
                continue
            y[i] = yi
            if i == 0:
                if y.any():
                    yield y.copy()
            else:
                yield from descend(i - 1, max(rem2_next, 0.0), partial + rmat[:, i] * yi)
        y[i] = 0

    yield from descend(d - 1, radius * radius, np.zeros(d))


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


def q_of_subspace(u, w) -> float:
    """sup over unit tuples (w_1 .. w_l) in W of ||P w_1 ^ ... ^ P w_l||,
    as the product of the singular values of P restricted to W, the form
    check_projection_bound compares against."""
    return float(np.prod(_restricted_singular_values(u, w)))


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


@dataclass(frozen=True)
class AsymptoticParams:
    """Large-parameter model a2 = a0 lam^-h, p = 1 - zeta lam^-alpha."""

    h: float
    alpha: float
    zeta: float
    a0: float

    def __post_init__(self):
        for name in ("h", "alpha", "zeta", "a0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def delta_asymptotic(ap: AsymptoticParams, lam: float) -> float | None:
    """Optimal exponent along the ray a2 = a0 lam^-h, p = 1 - zeta lam^-alpha.

    a1 is pinned at 2.  Returns None while lam is not yet large enough for
    the triple to be balanced (or even admissible); that is a signal, not a
    failure.  None never stands for float cancellation or underflow: the
    closed form of delta_opt is evaluated from L = ln lam, with
    q = 1 - p = zeta lam^-alpha kept in log space, so p is never formed.

    The limit of the returned values as lam grows is alpha / h, approached
    from below at rate ln ln lam / ln lam; for zeta = a0 = 1,
        alpha/h - delta ~ (ln(h L / ln 2) + alpha ln 2 / h) / (h L + ln 2),
    which is still 0.115 (h = 2) and 0.208 (h = 1) at lam = 1e8.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    big_l = math.log(lam)
    log_inv_a2 = ap.h * big_l - math.log(ap.a0)
    log_q = math.log(ap.zeta) - ap.alpha * big_l
    if not (log_inv_a2 > 0 and log_q < 0):
        return None
    q = math.exp(log_q)
    ln2 = math.log(2.0)
    if not q * log_inv_a2 < (1 - q) * ln2:
        return None
    return -(log_q - math.log1p(-q) + math.log(log_inv_a2 / ln2)) / (ln2 + log_inv_a2)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"reports must not contain non-finite floats, got {value}")
        return repr(float(value))
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValueError(f"csv cells must not contain separators: {value!r}")
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} in a csv cell")


def samples_csv_by_row(columns, samples) -> str:
    """samples.csv spelled a row at a time and a cell at a time; the first
    ragged row or refused cell in row order raises."""
    lines = [",".join(columns)]
    for row in samples:
        if len(row) != len(columns):
            raise ValueError("sample row width disagrees with the header")
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"
