"""Sublevel-set measurements with closed forms to calibrate against.

Two measures: {|f(x)| < eps} for x uniform on [-1, 1], and {|cos theta| < eps}
for theta uniform, which is {|<g e_0, e_0>| < eps} for g Haar on SO(2).  Each
makes one draw for a whole eps grid; the decay in eps is then fitted as a
power law.  Samples are counted _BLOCK at a time, so memory is of order
_BLOCK, not n_samples.  For a grid with max eps <= 1/2 the angle count takes
the cosine only inside a window around the zeros of cos, just wider than
arcsin(max eps); the window is exact (see compact_group_sublevel_measures),
so the counts equal those of a cosine of every angle.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GridTooSmallError",
    "sublevel_measure",
    "compact_group_sublevel_measures",
    "compact_group_sublevel_fit",
]

_BLOCK = 1 << 15
_WINDOW_MARGIN = 1e-9  # angle slack of the SO(2) cosine window


class GridTooSmallError(ValueError):
    """Every epsilon on the grid produced an empty sublevel set."""


def _count_below(draw, n_samples: int, eps_grid) -> np.ndarray:
    # #{|v| < eps} per eps; draw(m) continues one stream, so blocks equal a full draw
    if n_samples < 1:
        raise ValueError(f"need at least 1 sample, got {n_samples}")
    counts = np.zeros(len(eps_grid), dtype=np.int64)
    for start in range(0, n_samples, _BLOCK):
        values = np.abs(draw(min(_BLOCK, n_samples - start)))
        counts += [np.count_nonzero(values < eps) for eps in eps_grid]
    return counts


def _require_positive(eps_grid) -> None:
    # an empty grid is refused too: it would count nothing after a draw
    if len(eps_grid) == 0 or not all(eps > 0 for eps in eps_grid):
        raise ValueError("eps must be positive")


def sublevel_measure(f, eps_grid, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """measure{|f(x)| < eps} for each eps, x uniform on [-1, 1]; f maps an
    array of points to an array of values.  Every eps must be > 0 (an
    empty grid is refused too); the generator is not touched before that
    check."""
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    _require_positive(eps_grid)
    counts = _count_below(lambda m: f(rng.uniform(-1.0, 1.0, size=m)), n_samples, eps_grid)
    return counts / n_samples


def compact_group_sublevel_measures(
    eps_grid, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    """measure{|cos theta| < eps} for each eps, over n_samples uniform angles:
    Haar on SO(2) is the uniform angle of [[cos, -sin], [sin, cos]].

    Every eps must be > 0 (an empty grid is refused too); the generator is
    not touched before that check.  The angles are rng.uniform(0, 2 pi) in
    blocks, the same stream whatever the grid.

    The window.  With t = |theta - pi| and d = |t - pi/2|, |cos theta| =
    sin d and d <= pi/2, so |cos theta| < eps exactly when d < asin eps.
    When max eps <= 1/2, only the angles with pi/2 - w < t < pi/2 + w, where
    w = asin(max eps) + _WINDOW_MARGIN, get a cosine; the rest count for no
    eps.  Proof: the float t is within 4e-16 of the exact |theta - pi|
    (np.pi is within 1.3e-16 of pi, one rounding on [0, pi] adds at most
    2.3e-16), and the float bounds within 5e-16 of pi/2 -+ (asin(max eps) +
    1e-9) (math.asin within 1 ulp, three roundings), so a left-out angle has
    d >= asin(max eps) + 1e-9 - 1e-15.  sin is concave on [0, pi/2] and
    asin(max eps) <= pi/6, so sin d >= max eps + (1e-9 - 1e-15) cos(pi/6 +
    1e-9) >= max eps + 0.86e-9.  np.cos is off by a few ulp, below 1e-15 on
    [0, 1], so the computed |cos theta| is still above max eps and counts for
    no eps of the grid.  The kept angles get np.cos of the same floats, so
    the counts equal those of a cosine of every angle, to the bit.  Above
    1/2 the slope cos(asin eps) of sin at the window edge falls towards 0
    at eps = 1 (and asin is undefined beyond), so there every angle gets a
    cosine.
    """
    _require_positive(eps_grid)
    eps_max = max(eps_grid)
    if eps_max > 0.5:
        def draw(m):
            return np.cos(rng.uniform(0.0, 2.0 * np.pi, size=m))
    else:
        w = math.asin(eps_max) + _WINDOW_MARGIN
        lo, hi = np.pi / 2 - w, np.pi / 2 + w
        buf = np.empty(_BLOCK)

        def draw(m):
            theta = rng.uniform(0.0, 2.0 * np.pi, size=m)
            t = np.abs(np.subtract(theta, np.pi, out=buf[:m]), out=buf[:m])
            return np.cos(theta[(lo < t) & (t < hi)])
    counts = _count_below(draw, n_samples, eps_grid)
    return counts / n_samples


def compact_group_sublevel_fit(eps_grid, measures) -> tuple:
    """Fit measure ~ kappa eps^slope to the measures taken at eps_grid.

    Grid points whose measure is 0 (too small to resolve) or 1 (eps above
    sup|f|) are excluded from the fit.  Returns (kappa_hat, slope_hat).
    """
    eps_arr = np.asarray(eps_grid, dtype=float)
    measures = np.asarray(measures, dtype=float)
    keep = (measures > 0.0) & (measures < 1.0)
    if not np.any(measures > 0.0):
        raise GridTooSmallError("no epsilon on the grid captured any mass")
    if np.count_nonzero(keep) < 2:
        raise GridTooSmallError("fewer than two usable grid points for the fit")
    slope, intercept = np.polyfit(np.log(eps_arr[keep]), np.log(measures[keep]), 1)
    return float(np.exp(intercept)), float(slope)
