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

from .linalg import LogDomainError, frobenius, haar_orthogonal, mat_log
from .rootdata import group_constants

# Search radius for discreteness.  Any value below ln(2)/2 keeps the
# principal matrix log well defined and injective on the search ball even
# after a further doubling, so the radius computation stays sound; and
# 0.34 e^0.34 < 1/2 keeps the padded search ball inside mat_log's domain.
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
    ad_inv_norm_on_uminus: float

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
    lambda0^{n0 * ht}, and on the strictly lower triangle Ad(s_lambda^{-1})
    has norm lambda0^{-n0}, the ratio of adjacent entries.
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
    ad_inv = lambda0 ** (-n0)
    if ad_norm > lam**gc.ht_sum * (1.0 + 1e-12):
        raise ArithmeticError("adjoint norm exceeds the requested scale")
    return SemisimpleParams(
        n=n,
        x0=x0,
        lambda0=lambda0,
        n0=n0,
        s_lambda=s_lambda,
        ad_norm=ad_norm,
        ad_inv_norm_on_uminus=ad_inv,
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


def sample_mu_s(sp: SemisimpleParams, rng: np.random.Generator) -> np.ndarray:
    """One draw k1 s_lambda k2 with independent uniform rotations.

    Singular values of every draw equal the diagonal of s_lambda.
    """
    k1 = haar_orthogonal(sp.n, rng)
    k2 = haar_orthogonal(sp.n, rng)
    return k1 @ sp.s_lambda @ k2


def candidate_entry_bound(conjugator: np.ndarray, r: float) -> int:
    """Integer entry window that provably contains every lattice element
    of log-norm at most r.

    For M = exp(X) the series M - I = sum_k X^k / k! gives
    |M - I|_F <= |X|_F e^{|X|_2} <= r e^r.  Undoing the conjugation,
    gamma - I = g^{-1} (M - I) g, stretches Frobenius norms by at most
    cond_2(g).  Entries of an integer matrix are bounded by its Frobenius
    norm, so |gamma_ij - delta_ij| <= cond_2(g) r e^r =: x, and an integer
    below x is at most floor(x).  The half unit added before flooring
    absorbs the case where x lands a round-off below a whole number.
    """
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    svals = np.linalg.svd(np.asarray(conjugator, dtype=float), compute_uv=False)
    if svals[-1] <= 0.0:
        raise ValueError("conjugator must be invertible")
    cond = float(svals[0] / svals[-1])
    return int(math.floor(cond * r * math.exp(r) + 0.5))


def _int_det(mat: np.ndarray) -> int:
    # Fraction-free elimination over python ints; exact for any size here.
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


def _gram_data(b: np.ndarray):
    rr = np.linalg.qr(b, mode="r")
    diag = np.diag(rr).copy()
    mu = (rr / diag[:, None]).T
    return mu, diag * diag


def _lll_reduce(basis: np.ndarray, delta: float = 0.75):
    """Column LLL reduction in floating point.

    Returns (reduced, u) with reduced = basis @ u and u integer of
    determinant +-1.  Reduction quality only affects the enumeration
    speed downstream, never its completeness, so float round-off in the
    swap decisions is harmless; an iteration cap backstops termination.
    """
    b = np.array(basis, dtype=float)
    d = b.shape[1]
    u = np.eye(d, dtype=np.int64)
    mu, star = _gram_data(b)
    k = 1
    steps = 0
    max_steps = 64 * d * d
    while k < d and steps < max_steps:
        steps += 1
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                b[:, k] -= q * b[:, j]
                u[:, k] -= q * u[:, j]
                mu[k, j] -= q
                mu[k, :j] -= q * mu[j, :j]
        if star[k] >= (delta - mu[k, k - 1] ** 2) * star[k - 1]:
            k += 1
        else:
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            mu, star = _gram_data(b)
            k = max(k - 1, 1)
    return b, u


def _ball_points(rmat: np.ndarray, radius: float):
    """Nonzero integer vectors y with |rmat y| <= radius, rmat upper
    triangular with nonzero diagonal.  Depth-first interval search; the
    radii used here are far below the covolume so the tree stays tiny.
    """
    d = rmat.shape[0]
    y = np.zeros(d, dtype=np.int64)

    def descend(i: int, rem2: float, partial: np.ndarray):
        rii = rmat[i, i]
        center = -partial[i] / rii
        width = math.sqrt(max(rem2, 0.0)) / abs(rii)
        lo = math.ceil(center - width)
        hi = math.floor(center + width)
        for yi in range(lo, hi + 1):
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


def _conjugate_log_norm(g, g_inv, gamma, cap: float):
    # None when the candidate certifiably lies outside the cap: mat_log
    # refuses |M - I|_F > 1/2, while |X|_F <= cap <= ZASSENHAUS_RADIUS gives
    # |e^X - I|_F <= cap e^cap < 1/2, so such an M has log-norm above cap.
    try:
        value = frobenius(mat_log(g @ gamma @ g_inv))
    except LogDomainError:
        return None
    return value if value <= cap else None


def discreteness_radius(conjugator: np.ndarray, rp: RadiusParams) -> float:
    """Smallest log-norm among elements of g SL(n,Z) g^{-1}, capped at rho.

    Search: gamma = I + C qualifies only if |g C g^{-1}|_F <= rho e^rho,
    i.e. the row-stacked vector of C is an integer point of the lattice
    spanned by kron(g, g^{-T}) inside that ball.  The ball is enumerated
    completely (LLL-reduced basis, then a triangular interval search), so
    no qualifying element can be missed; a small inflation of the radius
    covers enumeration round-off, and every hit is confirmed against the
    exact log-norm afterwards.  Raises EnumerationCapError when the entry
    window of candidate_entry_bound exceeds DEFAULT_ENTRY_CAP.
    """
    if rp.rho > ZASSENHAUS_RADIUS:
        # The discard rule in _conjugate_log_norm needs rho e^rho < 1/2.
        raise ValueError(f"rho must not exceed {ZASSENHAUS_RADIUS}, got {rp.rho}")
    g = np.asarray(conjugator, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"conjugator must be square, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("conjugator entries must be finite")
    needed = candidate_entry_bound(g, rp.rho)
    if needed > DEFAULT_ENTRY_CAP:
        raise EnumerationCapError(required=needed, cap=DEFAULT_ENTRY_CAP)
    if abs(np.linalg.det(g) - 1.0) > 1e-10:
        raise ValueError("conjugator must have determinant 1")
    if needed == 0:
        # cond(g) rho e^rho < 1, while any nonzero integer C has
        # |g C g^{-1}|_F >= |C|_F / cond(g) >= 1 / cond(g): nothing to scan.
        return rp.rho
    n = g.shape[0]
    g_inv = np.linalg.inv(g)
    lattice = np.kron(g, g_inv.T)
    reduced, transform = _lll_reduce(lattice)
    rmat = np.linalg.qr(reduced, mode="r")
    radius = rp.rho * math.exp(rp.rho) * (1.0 + 1e-9) + 1e-12
    best = None
    eye = np.eye(n, dtype=np.int64)
    for y in _ball_points(rmat, radius):
        c = transform @ y
        gamma = eye + c.reshape(n, n)
        if _int_det(gamma) != 1:
            continue
        value = _conjugate_log_norm(g, g_inv, gamma, rp.rho)
        if value is not None and (best is None or value < best):
            best = value
    return rp.rho if best is None else best


def reduced_conjugator(g: np.ndarray) -> np.ndarray:
    """Numerically tame representative of the same conjugated lattice.

    Right-multiplying by an integer matrix of determinant 1 fixes
    g SL(n,Z) g^{-1}; left-multiplying by a rotation fixes every log-norm.
    Both are applied, then the determinant is renormalized to 1 (scalars
    act trivially on conjugation).
    """
    g = np.asarray(g, dtype=float)
    _, u = _lll_reduce(g)
    if round(float(np.linalg.det(u.astype(float)))) == -1:
        u = u.copy()
        u[:, 0] = -u[:, 0]
    tight = g @ u
    q, r = np.linalg.qr(tight)
    signs = np.sign(np.diag(r))
    r = r * signs[:, None]
    det = float(np.linalg.det(r))
    return r / det ** (1.0 / g.shape[0])
