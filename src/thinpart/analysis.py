"""Sublevel-set measurements with closed forms to calibrate against.

Two measures: {|f(x)| < eps} for x uniform on [-1, 1], and {|cos theta| < eps}
for theta uniform, which is {|<g e_0, e_0>| < eps} for g Haar on SO(2).  Each
makes one draw for a whole eps grid; the decay in eps is then fitted as a
power law.  Samples are counted _BLOCK at a time, so memory is of order
_BLOCK, not n_samples.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GridTooSmallError",
    "sublevel_measure",
    "compact_group_sublevel_measures",
    "compact_group_sublevel_fit",
]

_BLOCK = 1 << 15


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


def sublevel_measure(f, eps_grid, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """measure{|f(x)| < eps} for each eps, x uniform on [-1, 1]; f maps an
    array of points to an array of values."""
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    if not all(eps > 0 for eps in eps_grid):
        raise ValueError("eps must be positive")
    counts = _count_below(lambda m: f(rng.uniform(-1.0, 1.0, size=m)), n_samples, eps_grid)
    return counts / n_samples


def compact_group_sublevel_measures(
    eps_grid, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    """measure{|cos theta| < eps} for each eps, over n_samples uniform angles:
    Haar on SO(2) is the uniform angle of [[cos, -sin], [sin, cos]]."""
    counts = _count_below(lambda m: np.cos(rng.uniform(0.0, 2.0 * np.pi, size=m)),
                          n_samples, eps_grid)
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
