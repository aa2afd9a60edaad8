"""Sublevel-set measurements for scalar fields.

The quantity of interest is how much mass |f| < eps carries, either on a box
in R^d (Monte Carlo) or on SO(n) against Haar measure, where the decay rate
in eps is fitted as a power law.  Samples are counted _BLOCK at a time, so
memory is of order _BLOCK, not n_samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .linalg import haar_rotations

__all__ = [
    "GridTooSmallError",
    "ScalarField",
    "Box",
    "sublevel_measure",
    "compact_group_sublevel_measures",
    "compact_group_sublevel_fit",
]

_BLOCK = 1 << 15


class GridTooSmallError(ValueError):
    """Every epsilon on the grid produced an empty sublevel set."""


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on R^dim; eval maps an (m, dim) batch to (m,) values."""

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Box:
    """Sup-norm ball: center +/- radius in every coordinate."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("box radius must be positive")
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))

    @property
    def dim(self) -> int:
        return self.center.shape[0]


def sublevel_measure(
    f: ScalarField, box: Box, eps: float, n_samples: int, rng: np.random.Generator
) -> float:
    """Monte Carlo estimate of the normalized volume of {|f| < eps} in the box."""
    if f.dim != box.dim:
        raise ValueError("field and box dimensions disagree")
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    if not eps > 0:
        raise ValueError("eps must be positive")

    def draw(m):
        return f.eval(box.center + box.radius * rng.uniform(-1.0, 1.0, size=(m, box.dim)))

    return int(_count_below(draw, n_samples, [eps])[0]) / n_samples


def _count_below(draw, n_samples: int, eps_arr) -> np.ndarray:
    # #{|v| < eps} per eps; draw(m) continues one stream, so blocks equal a full draw
    if n_samples < 1:
        raise ValueError(f"need at least 1 sample, got {n_samples}")
    counts = np.zeros(len(eps_arr), dtype=np.int64)
    for start in range(0, n_samples, _BLOCK):
        values = np.abs(draw(min(_BLOCK, n_samples - start)))
        counts += [np.count_nonzero(values < eps) for eps in eps_arr]
    return counts


def _haar_coefficient_samples(
    n: int, coefficient: tuple, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    # <g e_i, e_j> = g[j, i] for n_samples Haar draws of g
    i, j = coefficient
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"coefficient index {coefficient} out of range for SO({n})")
    if n == 2:
        # Haar on SO(2) is the uniform angle of [[cos, -sin], [sin, cos]].
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n_samples)
        if i == j:
            return np.cos(theta)
        return np.sin(theta) if j > i else -np.sin(theta)
    return haar_rotations(rng.standard_normal((n_samples, n, n)))[:, j, i]


def compact_group_sublevel_measures(
    n: int, coefficient: tuple, eps_grid, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    """measure{|<g e_i, e_j>| < eps} for each eps, over n_samples Haar draws of g."""
    draw = partial(_haar_coefficient_samples, n, coefficient, rng=rng)
    return _count_below(draw, n_samples, eps_grid) / n_samples


def compact_group_sublevel_fit(
    n: int, coefficient: tuple, eps_grid: list, rng: np.random.Generator, n_samples: int
) -> tuple:
    """Fit measure{|<g e_i, e_j>| < eps} ~ kappa eps^slope over Haar samples.

    Grid points whose measure comes out 0 (too small to resolve) or 1
    (eps above sup|f|) are excluded from the fit.  Returns (kappa_hat,
    slope_hat).
    """
    eps_arr = np.asarray(sorted(eps_grid), dtype=float)
    measures = compact_group_sublevel_measures(n, coefficient, eps_arr, rng, n_samples)
    keep = (measures > 0.0) & (measures < 1.0)
    if not np.any(measures > 0.0):
        raise GridTooSmallError("no epsilon on the grid captured any mass")
    if np.count_nonzero(keep) < 2:
        raise GridTooSmallError("fewer than two usable grid points for the fit")
    slope, intercept = np.polyfit(np.log(eps_arr[keep]), np.log(measures[keep]), 1)
    return float(np.exp(intercept)), float(slope)
