"""Two-point drift calculus.

A step of the random conjugation either expands the discreteness radius by
a1 (probability p) or shrinks it by no more than a2 (probability 1 - p).
phi(delta) is the resulting one-step factor for the moment of order -delta;
everything else is locating its minimum and turning the contraction into a
superlevel tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BalanceError",
    "ContractionParams",
    "balance_holds",
    "phi",
    "delta_opt",
    "contraction_constants",
    "markov_superlevel_bound",
]


class BalanceError(ValueError):
    """Expansion too weak to beat the worst-case contraction."""


def _check_triple(a1: float, a2: float, p: float) -> None:
    if not a1 > 1:
        raise ValueError(f"a1 must exceed 1, got {a1}")
    if not 0 < a2 < 1:
        raise ValueError(f"a2 must lie in (0, 1), got {a2}")
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")


def balance_holds(a1: float, a2: float, p: float) -> bool:
    """Strict balance (1-p) ln(1/a2) < p ln(a1); required for phi' (0) < 0."""
    _check_triple(a1, a2, p)
    return (1 - p) * math.log(1 / a2) < p * math.log(a1)


def phi(delta: float, a1: float, a2: float, p: float) -> float:
    """One-step factor p a1^-delta + (1-p) a2^-delta.

    p may sit at 0 or 1 here (degenerate mixtures are legitimate inputs for
    phi itself, just not for the optimizer).
    """
    if not a1 > 0 or not a2 > 0:
        raise ValueError("a1, a2 must be positive")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p * a1 ** (-delta) + (1 - p) * a2 ** (-delta)


def delta_opt(a1: float, a2: float, p: float) -> float:
    """Global minimizer of phi, in closed form.

    Solving phi'(delta) = 0 gives
        delta0 = -ln( ((1-p)/p) * ln(1/a2)/ln(a1) ) / ln(a1/a2),
    positive exactly when the balance condition holds.
    """
    if not balance_holds(a1, a2, p):
        raise BalanceError(
            f"(1-p) ln(1/a2) = {(1-p)*math.log(1/a2):.6g} is not below "
            f"p ln(a1) = {p*math.log(a1):.6g}"
        )
    return -math.log(-((1 - p) / p) * (math.log(a2) / math.log(a1))) / math.log(a1 / a2)


@dataclass(frozen=True)
class ContractionParams:
    """Optimized drift data: E[f(step)] <= c f + b for f = radius^-delta."""

    a1: float
    a2: float
    p: float
    rho0: float
    delta: float
    c: float
    b: float

    def __post_init__(self):
        if not 0 < self.c < 1:
            raise BalanceError(f"contraction factor c = {self.c} not in (0, 1)")
        if not self.b > 0:
            raise ValueError("offset b must be positive")


def contraction_constants(a1: float, a2: float, p: float, rho0: float) -> ContractionParams:
    """Evaluate the drift pair (c, b) at the optimal exponent delta_opt.

    c = phi(delta) and b = (a2 rho0)^-delta; the offset covers points whose
    radius already exceeds rho0, where one step keeps it above a2 rho0.
    Raises BalanceError when p is too small for c < 1.
    """
    if not rho0 > 0:
        raise ValueError("rho0 must be positive")
    delta = delta_opt(a1, a2, p)
    return ContractionParams(
        a1=a1,
        a2=a2,
        p=p,
        rho0=rho0,
        delta=delta,
        c=phi(delta, a1, a2, p),
        b=(a2 * rho0) ** (-delta),
    )


def markov_superlevel_bound(c: float, b: float, m: float) -> float:
    """Stationary-mass bound b / ((1 - c) M) for the superlevel set {f >= M}."""
    if not 0 < c < 1:
        raise ValueError(f"need 0 < c < 1, got {c}")
    if not b > 0 or not m > 0:
        raise ValueError("b and M must be positive")
    return b / ((1 - c) * m)
