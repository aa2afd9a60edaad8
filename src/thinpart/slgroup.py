"""The concrete SL(n, R) model.

Expanding diagonal rays with their closed-form adjoint norms, the
rotation-diagonal-rotation sampler, and the discreteness radius of
g SL(n,Z) g^{-1}: the smallest log-norm among lattice elements conjugated
near the identity, capped at a fixed search radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import frobenius, haar_rotations
from .rootdata import group_constants

# Search radius for discreteness.  Every lattice element of log-norm at
# most rho is unipotent while K^2 rho^2 e^{K rho} / 2 < 1 with
# K = ceil((n - 1) / 2) (unipotence_bound_holds); at 0.34 that holds for
# every n <= 5.
ZASSENHAUS_RADIUS = 0.34

class DegenerateRayError(ValueError):
    """The requested scale sits below one step of the ray (n0 would be 0)."""


@dataclass(frozen=True, eq=False)
class SemisimpleParams:
    """A diagonal ray s0 raised to the largest power n0 fitting the scale.

    Entries of s_lambda increase along the diagonal with consecutive
    ratios x0^n0, so the strictly lower triangle is the side contracted
    by the inverse.
    """

    n: int
    lambda0: float
    n0: int
    s_lambda: np.ndarray
    ad_norm: float

    def __post_init__(self):
        d = np.diag(self.s_lambda).copy()
        off = self.s_lambda - np.diag(d)
        if np.abs(off).max() != 0.0:
            raise ValueError("s_lambda must be diagonal")
        if not np.all(d > 0.0) or not np.all(np.diff(d) > 0.0):
            raise ValueError("s_lambda needs strictly monotone positive entries")
        if abs(float(np.prod(d)) - 1.0) > 1e-12:
            raise ValueError("s_lambda must have determinant 1")


def expanding_element(n: int, lam: float, x0: float) -> SemisimpleParams:
    """Build the ray step s0 = diag(x0^{(n+1)/2 - i}) and raise it to n0.

    n0 is the largest integer with (1/x0)^{n0} <= lam, so the adjoint norm
    lambda0^{n0 * ht} never exceeds lam^ht.  Ad(s) scales the (i, j) entry
    by s_ii / s_jj, so |Ad(s_lambda)| is the largest diagonal ratio
    lambda0^{n0 * ht}.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < x0 < 1.0:
        raise ValueError(f"x0 must lie in (0, 1), got {x0}")
    lambda0 = 1.0 / x0
    if lam < lambda0:
        raise DegenerateRayError(
            f"scale {lam} sits below one ray step {lambda0}; n0 would be 0"
        )
    n0 = int(math.floor(math.log(lam) / math.log(lambda0)))
    # Guard the floor against logarithm round-off in either direction.
    if lambda0 ** (n0 + 1) <= lam:
        n0 += 1
    while n0 > 1 and lambda0**n0 > lam:
        n0 -= 1
    # the adjoint norm first: it is the largest entry ratio of s_lambda, so
    # once it is a finite float no entry over- or underflows
    gc = group_constants(n)
    ad_norm = lambda0 ** (n0 * gc.ht_sum)
    if ad_norm > lam**gc.ht_sum * (1.0 + 1e-12):
        raise ArithmeticError("adjoint norm exceeds the requested scale")
    exponents = (n - 1) / 2.0 - np.arange(n)
    s_lambda = np.diag(x0 ** (n0 * exponents))
    return SemisimpleParams(
        n=n, lambda0=lambda0, n0=n0, s_lambda=s_lambda, ad_norm=ad_norm
    )


@dataclass(frozen=True)
class RadiusParams:
    """The contracted search radius."""

    rho: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"need rho > 0, got rho={self.rho}")


def radius_params(sp: SemisimpleParams) -> RadiusParams:
    """Search radius rho = ZASSENHAUS_RADIUS / |Ad(s_lambda)| so the ray
    maps the rho-ball into the ZASSENHAUS_RADIUS-ball in both directions."""
    return RadiusParams(rho=ZASSENHAUS_RADIUS / sp.ad_norm)


def unipotence_bound_holds(n: int, rho: float) -> bool:
    """True when every element of g SL(n,Z) g^{-1} of log-norm at most rho
    is unipotent: rho <= ZASSENHAUS_RADIUS and K^2 rho^2 e^{K rho} / 2 < 1
    with K = ceil((n - 1) / 2), which at rho = 0.34 refuses n >= 6.

    Proof.  Take g gamma g^{-1} = e^X with |X|_F <= rho.  X is real with
    det e^X = 1, so its eigenvalues mu_i sum to 0, and
    sum |mu_i|^2 <= rho^2 (Schur).  So
    tr gamma^k - n = sum_i (e^{k mu_i} - 1 - k mu_i) is at most
    k^2 rho^2 e^{|k| rho} / 2 < 1 in modulus for |k| <= K, and the integer
    tr gamma^{+-k} equals n.  Newton's identities turn the power sums of
    gamma and of gamma^{-1} into the coefficients e_1 .. e_K and, as
    e_j(gamma^{-1}) = e_{n-j}(gamma) when det gamma = 1, e_{n-K} .. e_{n-1}.
    With e_n = det gamma = 1 and 2K >= n - 1 these are all of them, and
    they equal those of the identity, so the characteristic polynomial is
    (x - 1)^n.
    """
    k_max = n // 2  # ceil((n - 1) / 2)
    return rho <= ZASSENHAUS_RADIUS and (k_max * rho) ** 2 * math.exp(k_max * rho) / 2 < 1.0


def mu_s_draws(sp: SemisimpleParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """count draws k1 s_lambda k2 with independent uniform rotations,
    stacked along the first axis.

    The Gaussians come from rng as one C-order block, draw by draw and
    within a draw k1's before k2's, so count draws equal the first count
    of a longer call on the same stream; one stacked haar_rotations call
    (a closed form at n = 2, QR and det at n >= 3) and one product turn
    them into the draws.  Singular values of every draw equal the
    diagonal of s_lambda.
    """
    k = haar_rotations(rng.standard_normal((count, 2, sp.n, sp.n)))
    return k[:, 0] @ sp.s_lambda @ k[:, 1]


def exact_expansion_probability(sp: SemisimpleParams, factor: float) -> float:
    """P(radius(s_lambda k g) >= factor radius(g)) for a uniform rotation k
    and any 2 x 2 conjugator g of radius r with factor r <= rho: with
    A = sp.ad_norm, 1 - (2/pi) arcsin sqrt((factor - 1/A) / (A - 1/A)), or
    0 when A <= factor.  Raises ValueError unless n = 2.

    Proof.  Scale g to det 1; r = |g v|^2 for the shortest vector g v of
    g Z^2 (the n = 2 closed form of discreteness_radii).  A primitive w
    off the line of v has
    |g v| |g w| >= |det [v w]| >= 1, and s_lambda = diag(A^-1/2, A^1/2)
    divides no squared length by more than A, so
    |s_lambda k g w|^2 >= 1/(A r) > 1/(A rho) = 1/0.34 > rho.  Only v is
    left: the new radius is min(rho, r f(theta)), where k g v makes the
    uniform angle theta + pi/2 with the first axis and
    f = A cos^2 theta + A^-1 sin^2 theta.  As factor r <= rho, the radius
    grows by factor exactly when f >= factor, that is
    cos^2 theta >= x = (factor - 1/A) / (A - 1/A): for A > factor, with
    probability (2/pi) arccos sqrt(x); as f <= A, for A <= factor on a
    null set at most.  The event depends on k alone, so expansion-prob's
    pairs are independent Bernoulli(p) draws, though they share bases.
    """
    if sp.n != 2:
        raise ValueError(f"the exact expansion law holds at n = 2 only, got n = {sp.n}")
    a = sp.ad_norm
    if a <= factor:
        return 0.0
    return 1.0 - 2.0 / math.pi * math.asin(math.sqrt((factor - 1 / a) / (a - 1 / a)))


# Lovasz constant of the LLL exchange test.
_LLL_DELTA = 0.75


def _lll_reduce(basis: np.ndarray):
    """Column LLL reduction in floating point.

    Returns (u, rows): the integer transform u, of determinant +-1, and
    the rows of the positive-diagonal QR triangle of the reduced basis
    basis @ u, read off the final Gram-Schmidt data (entry (j, i) is
    mu_ij |b*_j|), so no caller needs a second QR.  One QR gives the
    initial Gram-Schmidt coefficients mu and squared lengths |b*|^2; size
    reductions and swaps then update both in place (swap formulas of
    Cohen, A Course in Computational Algebraic Number Theory, Algorithm
    2.6.3), and every decision reads only those, so no float copy of the
    reduced columns is kept.  Reduction quality only affects the
    enumeration speed downstream, never its completeness, so float
    round-off in the swap decisions is harmless; an iteration cap
    backstops termination.
    """
    # the raw factor holds the QR triangle transposed: r_ji = h[i][j]
    h = np.linalg.qr(np.asarray(basis, dtype=float), mode="raw")[0].tolist()
    d = len(h)
    mu = [[h[i][j] / h[j][j] for j in range(i)] for i in range(d)]
    star = [h[j][j] * h[j][j] for j in range(d)]
    # u holds the columns
    u = [[int(i == j) for i in range(d)] for j in range(d)]
    k = 1
    steps = 0
    max_steps = 64 * d * d
    while k < d and steps < max_steps:
        steps += 1
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mk[j])
            if q:
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                mk[j] -= q
                mj = mu[j]
                for i in range(j):
                    mk[i] -= q * mj[i]
        m = mk[k - 1]
        if star[k] >= (_LLL_DELTA - m * m) * star[k - 1]:
            k += 1
            continue
        u[k - 1], u[k] = u[k], u[k - 1]
        big = star[k] + m * m * star[k - 1]
        m_new = m * star[k - 1] / big
        star[k] = star[k - 1] * star[k] / big
        star[k - 1] = big
        mu[k - 1], mu[k] = mk[: k - 1], mu[k - 1] + [m_new]
        for i in range(k + 1, d):
            mi = mu[i]
            t = mi[k]
            mi[k] = mi[k - 1] - m * t
            mi[k - 1] = t + m_new * mi[k]
        k = max(k - 1, 1)
    norms = [math.sqrt(x) for x in star]
    rows = [[0.0] * j + [norms[j]] + [mu[i][j] * norms[j] for i in range(j + 1, d)]
            for j in range(d)]
    return np.array(u, dtype=np.int64).T, rows


def _padded(r: float) -> float:
    # the relative padding of every pair-search ball (discreteness_radii)
    return r * (1.0 + 1e-9)


def _search_ball(r: list, radius: float, confirm) -> None:
    """Hand every nonzero integer vector y with |r y| <= radius to
    confirm(y, squared), y as a tuple of ints and squared the |r y|^2 the
    search summed; r is an upper triangle with nonzero diagonal, as rows.

    Depth-first search from the last coordinate down.  Each level visits
    integers in order of their distance from the level's centre
    (Schnorr & Euchner 1994) and stops at the first one outside the
    ball: a coordinate's contribution grows with that distance.  When
    confirm returns a radius below the current one, the ball shrinks
    to it for the rest of the search.
    """
    d = len(r)
    y = [0] * d
    limit = radius * radius + 1e-12

    def descend(i: int, used: float, partial: list) -> None:
        nonlocal limit
        rii = r[i][i]
        p = partial[i]
        center = -p / rii
        base = round(center)
        step = 1 if center >= base else -1
        offset = 0
        while True:
            yi = base + step * offset
            contrib = rii * yi + p
            total = used + contrib * contrib
            if total > limit:
                break
            y[i] = yi
            if i:
                descend(i - 1, total, [partial[t] + r[t][i] * yi for t in range(i)])
            elif any(y):
                shrunk = confirm(tuple(y), total)
                if shrunk is not None:
                    limit = min(limit, shrunk * shrunk + 1e-12)
            offset = -offset if offset > 0 else 1 - offset
        y[i] = 0

    descend(d - 1, 0.0, [0.0] * d)


# Largest entry modulus of an n = 2 conjugator (discreteness_radii): 2^510,
# about 3.4e153, keeps every squared length of the Lagrange-Gauss pass in
# the normal float range.
_GAUSS_ENTRY_LIMIT = 2.0**510


def discreteness_radii(conjugators: np.ndarray, rp: RadiusParams) -> list:
    """Smallest log-norm among elements of g SL(n,Z) g^{-1}, capped at rho,
    for every matrix g of a stack, one list entry each.

    n = 2 has a closed form: min(rho, lambda_1(g Z^2)^2 / det g).  Proof.
    Take gamma in SL(2,Z), gamma != I, with log(g gamma g^{-1}) = X and
    |X|_F <= rho.  Then |tr gamma - 2| <= rho^2 e^rho / 2 < 1, so the
    integer trace is 2 and gamma is unipotent (unipotence_bound_holds,
    K = 1): gamma = I + m v (J v)^T with v primitive, m a nonzero integer
    and J the quarter turn.  Since g^T J g = det(g) J, conjugation gives
    g gamma g^{-1} = I + N with N = m (g v)(J g v)^T / det(g).  N^2 = 0, so
    N is the exact log, of Frobenius norm |m| |g v|^2 / det(g).  The
    least such norm takes m = 1 and the shortest lattice vector, and that
    element lies in the lattice, so the radius is
    min(rho, lambda_1^2 / det g).  Dividing by det keeps the value a
    function of the conjugated lattice, which scaling g does not change.
    One Lagrange-Gauss pass over the whole stack (_gauss_reduce_stack)
    gives the shortest column (a, c), and each entry is
    min(rho, (a^2 + c^2) / det) in that order of operations; no search
    runs at n = 2.

    The n = 2 float range.  Every entry must have modulus at most 2^510
    (_GAUSS_ENTRY_LIMIT); any other entry raises ValueError for the
    stack.  Then each column has squared length at most 2^1021.  Every
    vector the pass holds is a nonzero lattice vector no longer than the
    longer input column (a size reduction by the nearest integer does not
    lengthen a column, and a swap only reorders), so squared lengths and
    inner products stay at most 2^1021 (times 1 + 1e-15), below the float
    maximum 2^1024.  From below, lambda_1 lambda_2 >= |det g| for the
    successive minima and lambda_2 is at most the longer input column, so
    lambda_1^2 >= det^2 2^-1021 > 2^-1022, the least normal float, as
    |det - 1| <= 1e-10.  So no squared length, quotient or radius is inf,
    NaN, zero or subnormal, and numpy raises no overflow, division or
    invalid-value warning.  A single entry squared may still underflow;
    numpy does not warn about that, and python floats round it the same
    way, so the bits still match the one-matrix loop.

    Square-zero lemma (every n).  Take g gamma g^{-1} = I + N = e^X with
    |X|_F <= rho and gamma = I + C; C is nilpotent
    (unipotence_bound_holds).  If C^2 != 0, let k >= 2 be the largest
    power with C^k != 0: I + C^k lies in SL(n,Z), its exact log is N^k,
    and as |N|_F <= e^{|X|} - 1 < 1, |N^k|_F <= |N|_F^2 <= 0.49 |X|_F.
    So the minimiser has C^2 = 0, hence N^2 = 0 and log-norm |N|_F.

    Rank-one lemma (every n).  Take C in M_n(Z) with C^2 = 0 and rank k,
    N = g C g^{-1}, and integer bases V of im C cap Z^n and W of
    row C cap Z^n.  Then C = V Z W^T with Z an integer, nonsingular k x k
    matrix, and W^T V = 0, as row C = (ker C)^perp and im C lies in
    ker C.  With R_A and R_B the QR triangles of g V and g^{-T} W,
    |N|_F = |R_A Z R_B^T|_F >= sqrt(k) |det(R_A Z R_B^T)|^(1/k)
    >= sqrt(k) (covol(g V Z^k) covol(g^{-T} W Z^k))^(1/k).  Hermite's
    bound then gives primitive v in V Z^k and w in W Z^k with
    |g v| |g^{-T} w| <= (gamma_k / sqrt(k)) |N|_F, where gamma_1 = 1,
    gamma_2 / sqrt(2) = 0.816 and gamma_k < sqrt(k) throughout.  As
    w . v = 0, I + v w^T lies in SL(n,Z) and is square-zero, of log-norm
    |g v w^T g^{-1}|_F = |g v| |g^{-T} w|: a rank-one element is never
    longer.  With both lemmas, at every n,
        r(g) = min(rho, min over primitive v, w with w . v = 0 of
                   |g v| |g^{-T} w|);
    at n = 2, w = J v and this is the closed form above.

    The n >= 3 search.  As |v|, |w| >= 1, every pair has
    |g v| |g^{-T} w| >= sigma_min / sigma_max = 1 / cond_2(g).  So one
    stacked SVD gives rho to every entry with
    sigma_min > (2 rho + 2^-40) sigma_max.  That margin covers the SVD's
    round-off: LAPACK's singular values are exact for g + E with
    |E|_2 <= p(n) u sigma_max, and p(n) u < 2^-41 at these n, so by Weyl
    the exact ratio exceeds 2 rho (1 - 2^-41) + 2^-41 > rho for every rho.
    Each other entry takes _pair_radius.  LLL (_lll_reduce) gives a basis
    B = g u of g Z^n with Gram-Schmidt vectors b*_i; a shrinking ball
    search over it of radius padded(best) max_i |b*_i| holds every v of a
    pair below best, as |g^{-T} w| >= 1 / |b*_j| for w != 0 in Z^n
    (Lagarias, Lenstra and Schnorr 1990): z = B^T g^{-T} w = u^T w is a
    nonzero integer vector, and at its first nonzero index j,
    b*_1 .. b*_{j-1} are orthogonal to g^{-T} w, so <b*_j, g^{-T} w> = z_j.
    For each primitive v met (one of +-v), |g v| is the root of the
    squared length that search summed, and a ball search of radius
    padded(best) / |g v| runs over the LLL-reduced g^{-T} (v^perp cap Z^n)
    (_orthogonal_basis).  A pair scores frobenius(g @ np.outer(v, w) @
    g_inv), the expression with which the earlier n^2-dimensional search
    confirmed a hit, so radii keep its bits; best starts at rho, and a
    lower score shrinks both balls.  The paddings, named here and not
    derived (ROADMAP item 5): the 2 and the 2^-40 of the shortcut, the
    relative 1e-9 of every ball radius (_padded), for the round-off of the
    triangles and the score, and the 1e-12 that _search_ball adds to each
    squared radius.

    The n >= 3 float range.  Every entry of g and of g^{-1} must have
    modulus at most L = 2^26.  Then sigma(g) and sigma(g^{-T}) lie in
    [1 / (n L), n L], which is within [2^-30, 2^30] for n <= 16.  So
    every nonzero lattice vector is at least 2^-30 long, and every
    product and radius at least 2^-60; balls have radius at most
    0.35 n L, as max_i |b*_i| <= n L (below) and |g v| >= 1 / (n L);
    integer vectors in the balls have
    |v| |w| <= |g^{-1}|_2 |g|_2 padded(rho) and LLL transforms entries at
    most (n L)^2 (a size-reduced column is at most n L long), both below
    2^63; and a score's intermediate entries are at most (n L)^4.  So
    every length, product, radius and score, and every square of one,
    lies in [2^-120, 2^240], inside the normal floats, and numpy warns
    about nothing.  The triangles of g and g^{-T} stay in [2^-30, 2^30]:
    Gram-Schmidt lengths lie between a basis's extreme singular values,
    and LLL keeps them between their first extremes.  The basis B of
    v^perp cap Z^n stays in python ints, and the triangle of g^{-T} B stays
    above 2^-30 / prod |b_i| (integer Gram determinants are at least 1).

    An invalid entry (not finite, determinant off 1, or outside its
    float range) raises ValueError for the whole stack, as does a rho too
    large for every element of log-norm at most rho to be unipotent
    (unipotence_bound_holds).  Every stacked piece is bit-identical to
    its one-matrix form, so an entry does not depend on the rest of the
    stack.
    """
    gs = np.asarray(conjugators, dtype=float)
    if gs.ndim != 3 or gs.shape[1] != gs.shape[2]:
        raise ValueError(f"conjugators must be a stack of square matrices, got shape {gs.shape}")
    n = gs.shape[1]
    if not unipotence_bound_holds(n, rp.rho):
        raise ValueError(f"rho = {rp.rho} is too large for the unipotence bound at n = {n}")
    if n == 2:
        _require_gauss_range(gs)
        det = np.linalg.det(gs)
        if np.abs(det - 1.0).max(initial=0.0) > 1e-10:
            raise ValueError("conjugator must have determinant 1")
        shortest = _gauss_reduce_stack(gs)[4]
        return np.minimum(rp.rho, shortest / det).tolist()
    # the determinant needs finite entries, and is checked before the range
    if not np.isfinite(gs).all():
        raise ValueError("conjugator entries must be finite")
    if np.abs(np.linalg.det(gs) - 1.0).max(initial=0.0) > 1e-10:
        raise ValueError("conjugator must have determinant 1")
    g_invs = _require_pair_range(gs)
    sv = np.linalg.svd(gs, compute_uv=False)
    shortcut = sv[:, -1] > (2.0 * rp.rho + 2.0**-40) * sv[:, 0]
    out = np.where(shortcut, rp.rho, 0.0).tolist()
    for index in np.flatnonzero(~shortcut).tolist():
        out[index] = _pair_radius(gs[index], g_invs[index], rp.rho)
    return out


def _require_gauss_range(gs: np.ndarray) -> None:
    """Refuse an n = 2 stack with an entry that is not finite or has
    modulus above _GAUSS_ENTRY_LIMIT (discreteness_radii derives the
    range); one reduction serves both checks."""
    peak = np.abs(gs).max(initial=0.0)
    if not math.isfinite(peak):
        raise ValueError("conjugator entries must be finite")
    if peak > _GAUSS_ENTRY_LIMIT:
        raise ValueError(
            "n = 2 conjugator entries must have modulus at most 2**510, so that "
            "every squared length stays in the normal float range [2**-1022, 2**1024)"
        )


def _require_pair_range(gs: np.ndarray) -> np.ndarray:
    """The inverses of an n >= 3 stack, after refusing it if an entry is not
    finite or an entry of g or g^{-1} has modulus above 2^26
    (discreteness_radii derives the range); a singular matrix raises
    numpy's LinAlgError, a ValueError."""
    if not np.isfinite(gs).all():
        raise ValueError("conjugator entries must be finite")
    g_invs = np.linalg.inv(gs)
    if max(np.abs(gs).max(initial=0.0), np.abs(g_invs).max(initial=0.0)) > 2.0**26:
        raise ValueError("n >= 3 conjugators and their inverses must have entries of modulus "
                         "at most 2**26, so that the pair search stays in the normal float range")
    return g_invs


def _orthogonal_basis(v) -> list:
    """Columns, in python ints, of a basis of v^perp cap Z^n for a primitive
    integer vector v: extended-gcd column operations make v^T U =
    (+-1, 0, .., 0) with U unimodular, and U's other columns span it."""
    cols = [[int(i == j) for i in range(len(v))] for j in range(len(v))]
    lead = v[0]
    for i, y in enumerate(v[1:], 1):
        if y:
            # s lead + t y = d, and the new pair of columns has determinant 1
            d = math.gcd(lead, y)
            s = pow(lead // d, -1, abs(y) // d)
            t = (d - s * lead) // y
            first, other = cols[0], cols[i]
            cols[0] = [s * p + t * q for p, q in zip(first, other)]
            cols[i] = [(lead // d) * q - (y // d) * p for p, q in zip(first, other)]
            lead = d
    return cols[1:]


def _pair_radius(g: np.ndarray, g_inv: np.ndarray, rho: float) -> float:
    """min(rho, least |g v| |g^{-T} w| over integer v, w != 0 with
    w . v = 0), each pair scored as frobenius(g @ np.outer(v, w) @ g_inv):
    the search of discreteness_radii for one n x n conjugator."""
    best = rho
    u, rows = _lll_reduce(g)
    # every nonzero g^{-T} w is at least 1 / max_i |b*_i| long
    stretch = max(row[i] for i, row in enumerate(rows))

    def pair(y, squared):
        # one of +-v, and primitive
        if y > tuple(-x for x in y) and math.gcd(*y) == 1:
            v = u @ y
            length = math.sqrt(squared)
            cols = _orthogonal_basis(v.tolist())
            transform, triangle = _lll_reduce(g_inv.T @ np.array(cols, dtype=float).T)
            # the reduced basis of v^perp cap Z^n, in python ints
            basis = np.array(cols, dtype=object).T @ transform

            def score(z, _):
                nonlocal best
                if z > tuple(-x for x in z):
                    best = min(best, frobenius(g @ np.outer(v, (basis @ z).tolist()) @ g_inv))
                return _padded(best) / length

            _search_ball(triangle, _padded(best) / length, score)
        return _padded(best) * stretch

    _search_ball(rows, _padded(best) * stretch, pair)
    return best


# Iteration cap of the stacked Lagrange-Gauss pass: the 64 d^2 iterations
# that _lll_reduce allows at d = 2, each one a size reduction and a swap
# there; it backstops float round-off.
_GAUSS_CAP = 256


def reduced_conjugator(gs: np.ndarray) -> np.ndarray:
    """Numerically tame representative of the same conjugated lattice, for
    one matrix g or for each matrix of a stack: the upper triangle R with
    positive diagonal and determinant 1 in g u = Q R det(g u)^{1/n}, for u
    in GL(n,Z) that reduces the columns of g.  Returns the same shape.

    u normalises SL(n,Z), so g u SL(n,Z) u^{-1} g^{-1} = g SL(n,Z) g^{-1};
    Q is orthogonal and X -> Q^T X Q fixes every Frobenius norm; scalars
    act trivially on conjugation.  So R has the radius of g.  No sign fix
    makes det u = +1: Q may then be a reflection, which fixes every
    log-norm too.  A walk that drops such a Q keeps its radii's law,
    because mu_s is invariant in law under conjugation by O(n): write
    Q = k P with k in SO(n) and P a diagonal reflection; P s_lambda P^T is
    s_lambda, conjugation by P maps Haar measure on SO(n) to itself, and
    k is absorbed into the Haar rotations k1 and k2.

    At n = 2, u is the Lagrange-Gauss reduction, one masked pass over the
    whole stack (_gauss_reduce_stack, bit-identical to
    tests/oracles.py::gauss_reduce on each matrix): with shortest column
    v = (a, c), second column (b, d) and s = sqrt|ad - bc|,
    R = [[|v|/s, (ab + cd)/(|v| s)], [0, s/|v|]].
    The columns of R are then still reduced: |r12| <= r11 / 2 and
    r11^2 <= r12^2 + r22^2.  An n = 2 stack is held to the float range of
    the n = 2 radius (discreteness_radii): an entry that is not finite or
    has modulus above 2^510 raises its ValueError, checked once per call.
    Inside it, and with |det g| near 1 as on the walk, the reduced columns
    are no longer than the input ones, so a d, b c, a b + c d and |v| s
    stay below 2^1023 and |v| above 2^-511.  A singular matrix, or one the
    pass takes to a zero column ([[0.1, 3 * 0.1], [0.7, 3 * 0.7]] in
    floats), divides by zero; np.errstate raises that before numpy can
    warn, and the stack is refused with a ValueError.  At n >= 3, each
    matrix takes the LLL transform u, and R is the positive-diagonal
    triangle of g @ u that _lll_reduce reads off its final Gram-Schmidt
    data, with no second QR; |det(g u)| is the product of its diagonal.
    An n >= 3 stack is held to the float range of the n >= 3 radius: an
    entry that is not finite, or an entry of g or g^{-1} above 2^26,
    raises its ValueError, checked once per call (_require_pair_range).
    """
    gs = np.asarray(gs, dtype=float)
    if gs.ndim == 2:
        return reduced_conjugator(gs[None])[0]
    n = gs.shape[-1]
    if n == 2:
        _require_gauss_range(gs)
        try:
            with np.errstate(divide="raise", invalid="raise"):
                a, b, c, d, aa_cc = _gauss_reduce_stack(gs)
                v = np.sqrt(aa_cc)
                s = np.sqrt(np.abs(a * d - b * c))
                out = np.zeros_like(gs)
                np.divide(v, s, out=out[:, 0, 0])
                np.divide(a * b + c * d, v * s, out=out[:, 0, 1])
                np.divide(s, v, out=out[:, 1, 1])
        except FloatingPointError:
            raise ValueError("n = 2 conjugator is singular, or too near it for the pass") from None
        return out
    _require_pair_range(gs)
    rs = np.array([_lll_reduce(g)[1] for g in gs]).reshape(gs.shape)
    return rs / np.prod(np.diagonal(rs, axis1=1, axis2=2), axis=1)[:, None, None] ** (1.0 / n)


def _gauss_reduce_stack(gs: np.ndarray) -> tuple:
    """Lagrange-Gauss reduced basis of the column lattice g Z^2 of every
    2 x 2 matrix g of a stack: the entry arrays (a, b, c, d) of the reduced
    bases [[a, b], [c, d]], shortest column first, and a^2 + c^2, that
    column's squared length as the pass computed it.  The arrays may be
    views of gs.

    Reduce the longer column against the shorter by the nearest integer
    multiple, swap, and stop once the reduced column is no shorter.  The
    squared length of the shorter column drops at every swap, so it
    terminates; _GAUSS_CAP iterations backstop float round-off.  Each
    matrix sees the same float operations in the same order as python's
    one-matrix loop (tests/oracles.py::gauss_reduce): np.rint rounds half
    to even like python's round, and adding 0.0 turns its -0.0 into the
    0.0 of python's int 0, so every entry is bit-identical to it and does
    not depend on the rest of the stack.

    Every matrix stays in place in two 2 x m column arrays: each
    iteration reduces the whole stack, and np.where swaps only the
    matrices whose reduced column is shorter.  A stopped matrix stays
    stopped because it keeps its columns, so every later iteration
    recomputes its reduction bit for bit.
    """
    # rows a, b, c, d; the columns (a, c) and (b, d) are strided views
    s = gs.reshape(len(gs), 4).T
    sq = s * s
    uu = sq[0] + sq[2]
    vv = sq[1] + sq[3]
    u, v = s[::2], s[1::2]
    swap = uu > vv
    if np.count_nonzero(swap):
        u, v, uu = np.where(swap, v, u), np.where(swap, u, v), np.where(swap, vv, uu)
    for _ in range(_GAUSS_CAP):
        uv = u * v
        m = np.rint((uv[0] + uv[1]) / uu) + 0.0
        r = v - m * u
        rr = r * r
        rv = rr[0] + rr[1]
        go = rv < uu
        if not np.count_nonzero(go):
            return u[0], r[0], u[1], r[1], uu
        u, v, uu = np.where(go, r, u), np.where(go, u, v), np.where(go, rv, uu)
    # the matrices the cap stopped keep their last swap
    v = np.where(go, v, r)
    return u[0], v[0], u[1], v[1], uu
