"""The concrete SL(n, R) model.

Expanding diagonal rays with their closed-form adjoint norms, the
rotation-diagonal-rotation sampler, and the discreteness radius of
g SL(n,Z) g^{-1}: the smallest log-norm among lattice elements conjugated
near the identity, capped at a fixed search radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import frobenius, haar_rotations
from .rootdata import group_constants

# Search radius for discreteness.  Every lattice element of log-norm at
# most rho is unipotent while K^2 rho^2 e^{K rho} / 2 < 1 with
# K = ceil((n - 1) / 2) (_unipotent_log_norm); at 0.34 that holds for
# every n <= 5.
ZASSENHAUS_RADIUS = 0.34

# Ceiling on the integer entry window a radius search may request.
DEFAULT_ENTRY_CAP = 1_000_000


class DegenerateRayError(ValueError):
    """The requested scale sits below one step of the ray (n0 would be 0)."""


class EnumerationCapError(RuntimeError):
    """Candidate enumeration would exceed the configured entry window."""

    def __init__(self, required: int, cap: int):
        self.required = int(required)
        self.cap = int(cap)
        super().__init__(
            f"enumeration needs integer entry bound {self.required}, cap is {self.cap}"
        )


@dataclass(frozen=True, eq=False)
class SemisimpleParams:
    """A diagonal ray s0 raised to the largest power n0 fitting the scale.

    Entries of s_lambda increase along the diagonal with consecutive
    ratios x0^n0, so the strictly lower triangle is the side contracted
    by the inverse.
    """

    n: int
    x0: float
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
    exponents = (n - 1) / 2.0 - np.arange(n)
    s_lambda = np.diag(x0 ** (n0 * exponents))
    gc = group_constants(n)
    ad_norm = lambda0 ** (n0 * gc.ht_sum)
    if ad_norm > lam**gc.ht_sum * (1.0 + 1e-12):
        raise ArithmeticError("adjoint norm exceeds the requested scale")
    return SemisimpleParams(
        n=n, x0=x0, lambda0=lambda0, n0=n0, s_lambda=s_lambda, ad_norm=ad_norm
    )


@dataclass(frozen=True)
class RadiusParams:
    """Outer log-injectivity radius and the contracted search radius."""

    R: float
    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < self.R:
            raise ValueError(f"need 0 < rho < R, got rho={self.rho}, R={self.R}")


def radius_params(sp: SemisimpleParams) -> RadiusParams:
    """Search radius rho = R / |Ad(s_lambda)| so the ray maps the rho-ball
    into the R-ball in both directions."""
    return RadiusParams(R=ZASSENHAUS_RADIUS, rho=ZASSENHAUS_RADIUS / sp.ad_norm)


def mu_s_draws(sp: SemisimpleParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """count draws k1 s_lambda k2 with independent uniform rotations,
    stacked along the first axis.

    The Gaussians come from rng as one C-order block, draw by draw and
    within a draw k1's before k2's, so count draws equal the first count
    of a longer call on the same stream; one stacked QR, det and product
    turn them into the draws.  Singular values of every draw equal the
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
    g Z^2 (_gauss_radius).  A primitive w off the line of v has
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


def _entry_bounds(gs: np.ndarray, r: float) -> list:
    """For each matrix g of the stack gs, an integer entry window that
    provably contains every lattice element of log-norm at most r.

    For M = exp(X) the series M - I = sum_k X^k / k! gives
    |M - I|_F <= |X|_F e^{|X|_2} <= r e^r.  Undoing the conjugation,
    gamma - I = g^{-1} (M - I) g, stretches Frobenius norms by at most
    cond_2(g).  Entries of an integer matrix are bounded by its Frobenius
    norm, so |gamma_ij - delta_ij| <= cond_2(g) r e^r =: x, and an integer
    below x is at most floor(x).  The half unit added before flooring
    absorbs the case where x lands a round-off below a whole number.
    One stacked SVD, then python floats, which round exactly as numpy's do.
    A window past the float range (cond_2(g) above about 1.8e308) is
    floored in exact rational arithmetic, so it is still a python int.
    """
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    growth = math.exp(r)
    bounds = []
    for largest, smallest in np.linalg.svd(gs, compute_uv=False)[:, [0, -1]].tolist():
        if smallest <= 0.0:
            raise ValueError("conjugator must be invertible")
        x = largest / smallest * r * growth + 0.5
        if not math.isfinite(x):  # inf, or nan when r = 0
            x = Fraction(largest) / Fraction(smallest) * Fraction(r * growth) + Fraction(1, 2)
        bounds.append(math.floor(x))
    return bounds


# Lovasz constant of the LLL exchange test.
_LLL_DELTA = 0.75


def _lll_reduce(basis: np.ndarray):
    """Column LLL reduction in floating point.

    Returns (reduced, u) with reduced = basis @ u and u integer of
    determinant +-1.  One QR gives the initial Gram-Schmidt coefficients
    mu and squared lengths |b*|^2; size reductions and swaps then update
    both in place (swap formulas of Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 2.6.3).  Reduction quality only
    affects the enumeration speed downstream, never its completeness, so
    float round-off in the swap decisions is harmless; an iteration cap
    backstops termination.
    """
    b0 = np.array(basis, dtype=float)
    d = b0.shape[1]
    r = np.linalg.qr(b0, mode="r").tolist()
    mu = [[r[j][i] / r[j][j] for j in range(i)] for i in range(d)]
    star = [r[j][j] * r[j][j] for j in range(d)]
    # b and u hold the columns
    b = b0.T.tolist()
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
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                mk[j] -= q
                mj = mu[j]
                for i in range(j):
                    mk[i] -= q * mj[i]
        m = mk[k - 1]
        if star[k] >= (_LLL_DELTA - m * m) * star[k - 1]:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
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
    return np.array(b).T, np.array(u, dtype=np.int64).T


def _padded_radius(r: float) -> float:
    # |X|_F <= r gives |e^X - I|_F <= r e^r; the inflation covers the
    # round-off of the triangular search
    return r * math.exp(r) * (1.0 + 1e-9) + 1e-12


def _search_ball(rmat: np.ndarray, radius: float, confirm) -> None:
    """Hand every nonzero integer vector y with |rmat y| <= radius to
    confirm, as a tuple of ints; rmat is upper triangular with nonzero
    diagonal.

    Depth-first search from the last coordinate down.  Each level visits
    integers in order of their distance from the level's centre
    (Schnorr & Euchner 1994) and stops at the first one outside the
    ball: a coordinate's contribution grows with that distance.  When
    confirm(y) returns a radius below the current one, the ball shrinks
    to it for the rest of the search.
    """
    r = rmat.tolist()
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
                shrunk = confirm(tuple(y))
                if shrunk is not None:
                    limit = min(limit, shrunk * shrunk + 1e-12)
            offset = -offset if offset > 0 else 1 - offset
        y[i] = 0

    descend(d - 1, 0.0, [0.0] * d)


def _unipotent_log_norm(g, g_inv, nil):
    """|log(g gamma g^{-1})|_F for gamma = I + nil, nil an integer matrix,
    or None when gamma is not unipotent.

    The test nil^n = 0 runs in python ints, whose powers cannot overflow.
    For nilpotent nil the log is the finite sum
    L = sum_{k<n} (-1)^{k+1} nil^k / k, so the value is |g L g^{-1}|_F.

    Only unipotent gamma have log-norm at most rho once
    K^2 rho^2 e^{K rho} / 2 < 1, K = ceil((n - 1) / 2), which
    discreteness_radii enforces.  Take g gamma g^{-1} = e^X with
    |X|_F <= rho.  X is real with det e^X = 1, so its eigenvalues mu_i sum
    to 0, and sum |mu_i|^2 <= rho^2 (Schur).  So
    tr gamma^k - n = sum_i (e^{k mu_i} - 1 - k mu_i) is at most
    k^2 rho^2 e^{|k| rho} / 2 < 1 in modulus for |k| <= K, and the integer
    tr gamma^{+-k} equals n.  Newton's identities turn the power sums of
    gamma and of gamma^{-1} into the coefficients e_1 .. e_K and, as
    e_j(gamma^{-1}) = e_{n-j}(gamma) when det gamma = 1, e_{n-K} .. e_{n-1}.
    With e_n = det gamma = 1 and 2K >= n - 1 these are all of them, and
    they equal those of the identity, so the characteristic polynomial is
    (x - 1)^n.  _gauss_radius is the K = 1 case.
    """
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


def discreteness_radii(conjugators: np.ndarray, rp: RadiusParams) -> list:
    """Smallest log-norm among elements of g SL(n,Z) g^{-1}, capped at rho,
    for every matrix g of a stack, one list entry each.

    n = 2 has a closed form, min(rho, lambda_1(g Z^2)^2 / det g), by
    Lagrange-Gauss reduction (_gauss_radius, whose docstring holds the
    proof).  n >= 3 searches: gamma = I + C qualifies only if
    |g C g^{-1}|_F <= rho e^rho, i.e. the row-stacked vector of C is an
    integer point of the lattice spanned by kron(g, g^{-T}) inside that
    ball.  The ball is searched completely (LLL-reduced basis, then a
    triangular search), so no qualifying element can be missed; a small
    inflation of the radius covers search round-off.  Every hit must be
    unipotent, since no other element reaches log-norm rho, and its
    log-norm is a finite nilpotent sum (_unipotent_log_norm, whose
    docstring holds the proof).  Each confirmed hit of log-norm v below
    the best so far shrinks the ball to the padded v e^v: every element
    of log-norm at most v still lies inside, so the minimiser is still
    found and the result is the same as over the full ball.

    An entry whose entry window (_entry_bounds) exceeds DEFAULT_ENTRY_CAP
    holds its EnumerationCapError in place of a radius, at every n, so a
    caller can tolerate such entries one at a time; an invalid entry (not
    finite, not invertible, determinant off 1) raises ValueError for the
    whole stack, as does a rho too large for every element of log-norm at
    most rho to be unipotent: rho > ZASSENHAUS_RADIUS or
    K^2 rho^2 e^{K rho} / 2 >= 1 with K = ceil((n - 1) / 2), which at
    rho = 0.34 refuses n >= 6.  The front end runs once per stack and for
    every n: the entry-bound SVDs, the determinants, the cap check and the
    rho shortcut of entries whose window is empty.  The entries left over
    take _gauss_radius at n = 2; at n >= 3 they take the inverses and the
    kron(g, g^{-T}) lattices, broadcast as plain products, and then
    _search_radius.  Each stacked piece is bit-identical to its one-matrix
    form, so an entry does not depend on the rest of the stack.
    """
    gs = np.asarray(conjugators, dtype=float)
    if gs.ndim != 3 or gs.shape[1] != gs.shape[2]:
        raise ValueError(f"conjugators must be a stack of square matrices, got shape {gs.shape}")
    n = gs.shape[1]
    k_max = n // 2  # ceil((n - 1) / 2)
    if rp.rho > ZASSENHAUS_RADIUS or (k_max * rp.rho) ** 2 * math.exp(k_max * rp.rho) / 2 >= 1.0:
        raise ValueError(f"rho = {rp.rho} is too large for the unipotence bound at n = {n}")
    if not np.isfinite(gs).all():
        raise ValueError("conjugator entries must be finite")
    out = []
    search = []
    dets = np.linalg.det(gs).tolist()
    for index, (needed, det) in enumerate(zip(_entry_bounds(gs, rp.rho), dets)):
        if abs(det - 1.0) > 1e-10:
            raise ValueError("conjugator must have determinant 1")
        if needed > DEFAULT_ENTRY_CAP:
            out.append(EnumerationCapError(required=needed, cap=DEFAULT_ENTRY_CAP))
            continue
        # needed == 0 means cond(g) rho e^rho < 1, while any nonzero
        # integer C has |g C g^{-1}|_F >= |C|_F / cond(g) >= 1 / cond(g):
        # nothing to scan
        out.append(rp.rho)
        if needed:
            search.append(index)
    if not search:
        return out
    if n == 2:
        rows = gs[search].tolist()
        for index, g in zip(search, rows):
            out[index] = _gauss_radius(g, dets[index], rp.rho)
        return out
    g = gs[search]
    g_inv = np.linalg.inv(g)
    g_inv_t = g_inv.swapaxes(1, 2)
    # kron(a, b)[i n + k, j n + l] = a[i, j] b[k, l]
    lattice = (g[:, :, None, :, None] * g_inv_t[:, None, :, None, :]).reshape(
        len(search), n * n, n * n
    )
    for i, index in enumerate(search):
        out[index] = _search_radius(g[i], g_inv[i], lattice[i], rp.rho)
    return out


def _gauss_radius(g, det: float, rho: float) -> float:
    """Discreteness radius of a 2 x 2 conjugator g (rows of floats) of
    determinant det, in closed form: min(rho, |g v|^2 / det) for the
    shortest vector g v of the column lattice g Z^2.  Needs rho <= 0.34.

    Proof.  Take gamma in SL(2,Z), gamma != I, with log(g gamma g^{-1}) = X
    and |X|_F <= rho.  Then |tr gamma - 2| <= rho^2 e^rho / 2 < 1, so the
    integer trace is 2 and gamma is unipotent (_unipotent_log_norm, K = 1):
    gamma = I + m v (J v)^T with v primitive, m a nonzero integer and J
    the quarter turn.  Since g^T J g = det(g) J, conjugation gives
    g gamma g^{-1} = I + N with N = m (g v)(J g v)^T / det(g).  N^2 = 0, so
    N is the exact log, of Frobenius norm |m| |g v|^2 / det(g).  The least
    such norm takes m = 1 and the shortest lattice vector, and that element
    lies in the lattice, so the radius is min(rho, lambda_1^2 / det g).
    Dividing by det keeps the value a function of the conjugated lattice,
    which scaling g does not change.

    _gauss_reduce finds the shortest vector.
    """
    (a, _), (c, _) = _gauss_reduce(g)
    return min(rho, (a * a + c * c) / det)


# Iteration cap of the Lagrange-Gauss loops, scalar and stacked.
_GAUSS_CAP = 256


def _gauss_reduce(g):
    """Lagrange-Gauss reduced basis of the column lattice g Z^2, g rows of
    floats; returned in the same form, shortest column first.

    Reduce the longer column against the shorter, swap, and stop once the
    reduced one is no shorter.  The squared length of the shorter column
    drops at every swap, so it terminates; a cap of 256 reductions, the
    64 d^2 iterations that _lll_reduce allows at d = 2, each one a size
    reduction and a swap there, backstops float round-off.
    """
    (a, b), (c, d) = g
    uu = a * a + c * c
    vv = b * b + d * d
    if uu > vv:
        a, b, c, d, uu = b, a, d, c, vv
    for _ in range(_GAUSS_CAP):
        m = round((a * b + c * d) / uu)
        b -= m * a
        d -= m * c
        vv = b * b + d * d
        if vv >= uu:
            break
        a, b, c, d, uu = b, a, d, c, vv
    return [[a, b], [c, d]]


def _search_radius(g, g_inv, lattice, rho: float) -> float:
    # the LLL-reduced, shrinking ball search of discreteness_radii
    n = g.shape[0]
    reduced, transform = _lll_reduce(lattice)
    rmat = np.linalg.qr(reduced, mode="r")
    best = rho

    def confirm(y):
        nonlocal best
        value = _unipotent_log_norm(g, g_inv, (transform @ y).reshape(n, n))
        if value is None or value >= best:
            return None
        best = value
        return _padded_radius(value)

    _search_ball(rmat, _padded_radius(rho), confirm)
    return best


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
    whole stack (_gauss_reduce_stack, bit-identical to _gauss_reduce on
    each matrix): with shortest column v = (a, c), second column (b, d)
    and s = sqrt|ad - bc|, R = [[|v|/s, (ab + cd)/(|v| s)], [0, s/|v|]].
    The columns of R are then still reduced: |r12| <= r11 / 2 and
    r11^2 <= r12^2 + r22^2.  At n >= 3, each matrix takes the LLL
    reduction, and R comes from a QR of the reduced basis, its diagonal
    made positive; |det(g u)| is then the product of that diagonal.
    """
    gs = np.asarray(gs, dtype=float)
    if gs.ndim == 2:
        return reduced_conjugator(gs[None])[0]
    n = gs.shape[-1]
    if n == 2:
        a, b, c, d = _gauss_reduce_stack(gs)
        v = np.sqrt(a * a + c * c)
        s = np.sqrt(np.abs(a * d - b * c))
        out = np.zeros_like(gs)
        out[:, 0, 0] = v / s
        out[:, 0, 1] = (a * b + c * d) / (v * s)
        out[:, 1, 1] = s / v
        return out
    out = np.empty_like(gs)
    for i, g in enumerate(gs):
        reduced, _ = _lll_reduce(g)
        r = np.linalg.qr(reduced, mode="r")
        r *= np.sign(np.diag(r))[:, None]
        out[i] = r / np.prod(np.diag(r)) ** (1.0 / n)
    return out


def _gauss_reduce_stack(gs: np.ndarray) -> tuple:
    """_gauss_reduce of every 2 x 2 matrix of a stack, as the four entry
    arrays (a, b, c, d) of the reduced bases [[a, b], [c, d]].

    The same operations in the same order on float arrays: np.rint rounds
    half to even like python's round, and adding 0.0 turns its -0.0 into
    the 0.0 of python's int 0, so every entry is bit-identical to the
    scalar loop.  Each iteration works on the matrices still reducing
    only; a matrix leaves once its reduced column is no shorter, and all
    stop after _GAUSS_CAP iterations, as in the scalar loop.  One call
    costs about twice a loop of _gauss_reduce on 16 matrices, less from 32
    base draws or 48 walk-round matrices (at 64: 52 against 116 us, 111
    against 173 us; shared 2-core box, numpy 2.4).  The radii keep the
    scalar loop (_gauss_radius): about 1% of a walk block passes the rho
    shortcut, and single-matrix calls (evanescence, thin-filter tries) use it.
    """
    a, b, c, d = (gs[:, i, j] for i in range(2) for j in range(2))
    uu = a * a + c * c
    vv = b * b + d * d
    swap = uu > vv
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    c, d = np.where(swap, d, c), np.where(swap, c, d)
    uu = np.where(swap, vv, uu)
    live = np.arange(len(gs))
    for _ in range(_GAUSS_CAP):
        la, lb, lc, ld, lu = a[live], b[live], c[live], d[live], uu[live]
        m = np.rint((la * lb + lc * ld) / lu) + 0.0
        lb = lb - m * la
        ld = ld - m * lc
        lv = lb * lb + ld * ld
        done = lv >= lu
        b[live[done]] = lb[done]
        d[live[done]] = ld[done]
        go = ~done
        live = live[go]
        a[live], b[live], c[live], d[live], uu[live] = lb[go], la[go], ld[go], lc[go], lv[go]
        if not live.size:
            break
    return a, b, c, d
