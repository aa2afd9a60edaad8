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
# K = ceil((n - 1) / 2) (unipotence_bound_holds); at 0.34 that holds for
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

    Returns the integer transform u, of determinant +-1; the reduced
    basis is basis @ u, which callers rebuild from the exact u.  One QR
    gives the initial Gram-Schmidt coefficients mu and squared lengths
    |b*|^2; size reductions and swaps then update both in place (swap
    formulas of Cohen, A Course in Computational Algebraic Number Theory,
    Algorithm 2.6.3), and every decision reads only those, so no float
    copy of the reduced columns is kept.  Reduction quality only affects
    the enumeration speed downstream, never its completeness, so float
    round-off in the swap decisions is harmless; an iteration cap
    backstops termination.
    """
    r = np.linalg.qr(np.asarray(basis, dtype=float), mode="r").tolist()
    d = len(r)
    mu = [[r[j][i] / r[j][j] for j in range(i)] for i in range(d)]
    star = [r[j][j] * r[j][j] for j in range(d)]
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
    return np.array(u, dtype=np.int64).T


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


def _square_zero_log_norm(g, g_inv, c):
    """|g c g^{-1}|_F for gamma = I + c, c an integer matrix with c^2 = 0
    (tested in python ints, which cannot overflow): N = g c g^{-1} squares
    to zero too, so it is the exact log.  None when c^2 != 0.

    Lemma: the minimiser is square-zero.  Take g gamma g^{-1} = I + N = e^X
    with |X|_F <= rho <= 0.34; c is nilpotent (unipotence_bound_holds).
    If c^2 != 0, let k >= 2 be the largest power with c^k != 0.  Then
    I + c^k lies in SL(n,Z) with (c^k)^2 = 0, its exact log is N^k, and
    as |N|_F <= e^{|X|} - 1 < 1, |N^k|_F <= |N|_F^2 <= 0.49 |X|: shorter.
    """
    rows = c.tolist()
    columns = list(zip(*rows))
    if any(sum(a * b for a, b in zip(row, col)) for row in rows for col in columns):
        return None
    return frobenius(g @ c @ g_inv)


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
    N is the exact log (_square_zero_log_norm, whose lemma is empty at
    n = 2), of Frobenius norm |m| |g v|^2 / det(g).  The least such norm
    takes m = 1 and the shortest lattice vector, and that element lies in
    the lattice, so the radius is min(rho, lambda_1^2 / det g).  Dividing
    by det keeps the value a function of the conjugated lattice, which
    scaling g does not change.  One Lagrange-Gauss pass over the whole
    stack (_gauss_reduce_stack) gives the shortest column (a, c), and each
    entry is min(rho, (a^2 + c^2) / det) in that order of operations; no
    entry window, cap or search runs at n = 2.

    This equals the rho that the n >= 3 front end's shortcut gives
    wherever that shortcut would fire at n = 2, cond_2(g) rho e^rho < 1/2
    (an empty entry window, _entry_bounds): every nonzero integer v has
    |g v| >= sigma_min, so lambda_1^2 / det >= sigma_min^2 / (sigma_min
    sigma_max) = 1 / cond_2(g) > 2 rho e^rho > rho, a factor above 2 that
    round-off cannot close, and the min returns rho exactly.

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

    n >= 3 searches: gamma = I + C qualifies only if
    |g C g^{-1}|_F <= rho e^rho, i.e. the row-stacked vector of C is an
    integer point of the lattice spanned by kron(g, g^{-T}) inside that
    ball.  The ball is searched completely (LLL-reduced basis, then a
    triangular search), so no qualifying element can be missed; a small
    inflation of the radius covers search round-off.  A hit I + C counts
    only if C^2 = 0, with log-norm |g C g^{-1}|_F: all log-norms up to rho
    are unipotent (unipotence_bound_holds) and the least is square-zero
    (_square_zero_log_norm).  Each confirmed hit of log-norm v below
    the best so far shrinks the ball to the padded v e^v: every element
    of log-norm at most v still lies inside, so the minimiser is still
    found and the result is the same as over the full ball.

    At n >= 3, an entry whose entry window (_entry_bounds) exceeds
    DEFAULT_ENTRY_CAP holds its EnumerationCapError in place of a radius,
    so a caller can tolerate such entries one at a time.  An invalid entry
    (not finite, not invertible, determinant off 1, or at n = 2 outside
    the float range) raises ValueError for the whole stack, as does a rho
    too large for every element of log-norm at most rho to be unipotent
    (unipotence_bound_holds).  The n >= 3 front end runs once per stack:
    the entry-bound SVDs, the determinants, the cap check and the rho
    shortcut of entries whose window is empty; the entries left over take
    _search_radius, one conjugator at a time.  Every stacked piece, at
    every n, is bit-identical to its one-matrix form, so an entry does
    not depend on the rest of the stack.
    """
    gs = np.asarray(conjugators, dtype=float)
    if gs.ndim != 3 or gs.shape[1] != gs.shape[2]:
        raise ValueError(f"conjugators must be a stack of square matrices, got shape {gs.shape}")
    n = gs.shape[1]
    if not unipotence_bound_holds(n, rp.rho):
        raise ValueError(f"rho = {rp.rho} is too large for the unipotence bound at n = {n}")
    if n == 2:
        # one reduction serves the finiteness and the range check
        peak = np.abs(gs).max(initial=0.0)
        if not math.isfinite(peak):
            raise ValueError("conjugator entries must be finite")
        if peak > _GAUSS_ENTRY_LIMIT:
            raise ValueError(
                "n = 2 conjugator entries must have modulus at most 2**510, so that "
                "every squared length stays in the normal float range [2**-1022, 2**1024)"
            )
        det = np.linalg.det(gs)
        if np.abs(det - 1.0).max(initial=0.0) > 1e-10:
            raise ValueError("conjugator must have determinant 1")
        shortest = _gauss_reduce_stack(gs)[4]
        return np.minimum(rp.rho, shortest / det).tolist()
    if not np.isfinite(gs).all():
        raise ValueError("conjugator entries must be finite")
    dets = np.linalg.det(gs).tolist()
    out = []
    search = []
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
    for index in search:
        out[index] = _search_radius(gs[index], rp.rho)
    return out


# Iteration cap of the stacked Lagrange-Gauss pass: the 64 d^2 iterations
# that _lll_reduce allows at d = 2, each one a size reduction and a swap
# there; it backstops float round-off.
_GAUSS_CAP = 256


def _search_radius(g, rho: float) -> float:
    """The LLL-reduced, shrinking ball search of discreteness_radii for one
    n x n conjugator g: LLL on the lattice kron(g, g^{-T}), then the ball
    search on the triangle of a QR of lattice @ u, the reduced basis
    rebuilt from the exact integer transform u."""
    n = g.shape[0]
    g_inv = np.linalg.inv(g)
    lattice = np.kron(g, g_inv.T)
    transform = _lll_reduce(lattice)
    rmat = np.linalg.qr(lattice @ transform, mode="r")
    best = rho

    def confirm(y):
        nonlocal best
        value = _square_zero_log_norm(g, g_inv, (transform @ y).reshape(n, n))
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
    transform u (_lll_reduce), and R comes from a QR of g @ u, its
    diagonal made positive; |det(g u)| is then the product of that
    diagonal.
    """
    gs = np.asarray(gs, dtype=float)
    if gs.ndim == 2:
        return reduced_conjugator(gs[None])[0]
    n = gs.shape[-1]
    if n == 2:
        a, b, c, d, aa_cc = _gauss_reduce_stack(gs)
        v = np.sqrt(aa_cc)
        s = np.sqrt(np.abs(a * d - b * c))
        out = np.zeros_like(gs)
        out[:, 0, 0] = v / s
        out[:, 0, 1] = (a * b + c * d) / (v * s)
        out[:, 1, 1] = s / v
        return out
    out = np.empty_like(gs)
    for i, g in enumerate(gs):
        r = np.linalg.qr(g @ _lll_reduce(g), mode="r")
        r *= np.sign(np.diag(r))[:, None]
        out[i] = r / np.prod(np.diag(r)) ** (1.0 / n)
    return out


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

    The columns are kept as two 2 x m arrays of the m matrices still
    reducing.  An iteration in which all of them swap, or all of them
    stop, moves no data; only when some stop and some swap are the stopped
    ones written out and the rest compacted.  So a single matrix costs
    about a dozen whole-array operations per iteration and no gather or
    scatter.  The python loop is faster on small stacks: 10-24 us against
    1-2 us on one matrix, with the crossover near 16 base draws or 64
    walk-round products; at 256 the pass takes 15 against 165 us and 70
    against 255 us (shared 2-core box, numpy 2.4).  discreteness_radii
    takes the pass at every size, single matrices included, so the n = 2
    radius has one code path; a single call costs about 20 us.
    """
    count = len(gs)
    # rows a, b, c, d; the columns (a, c) and (b, d) are strided views
    s = gs.reshape(count, 4).T
    sq = s * s
    uu = sq[0] + sq[2]
    vv = sq[1] + sq[3]
    u, v = s[::2], s[1::2]
    swap = uu > vv
    if np.count_nonzero(swap):
        u, v = np.where(swap, v, u), np.where(swap, u, v)
        uu = np.where(swap, vv, uu)
    out = live = None  # once some stop: the bases, and where the rest sit
    for _ in range(_GAUSS_CAP):
        uv = u * v
        m = np.rint((uv[0] + uv[1]) / uu) + 0.0
        r = v - m * u
        rr = r * r
        rv = rr[0] + rr[1]
        go = rv < uu
        going = np.count_nonzero(go)
        if going < len(go):
            if live is None:
                if not going:
                    return u[0], r[0], u[1], r[1], uu
                out, live = np.empty((5, count)), np.arange(count)
            stop, go = (~go).nonzero()[0], go.nonzero()[0]
            at = live[stop]
            out[:2, at] = u.take(stop, axis=1)
            out[2:4, at] = r.take(stop, axis=1)
            out[4, at] = uu[stop]
            live = live[go]
            if not live.size:
                return out[0], out[2], out[1], out[3], out[4]
            u, r, rv = u.take(go, axis=1), r.take(go, axis=1), rv[go]
        u, v, uu = r, u, rv
    # the matrices the cap stopped keep their last swap
    if live is None:
        return u[0], v[0], u[1], v[1], uu
    out[:2, live] = u
    out[2:4, live] = v
    out[4, live] = uu
    return out[0], out[2], out[1], out[3], out[4]
