"""Exact constants of SL(n, R) from its type-A root data.

The root data enter through one integer with a closed form for A_{n-1}:
the largest root height n - 1 (the highest root is the sum of all simple
roots).  With the dimensions of G, U and the rank of K it feeds two exact
quantities: a lower bound for the decay exponent delta and an upper bound
for vanishing orders of adjoint matrix coefficients.  Both are kept in
integer / Fraction arithmetic; floats never enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GroupConstants",
    "DeltaBound",
    "group_constants",
    "delta_lower_bound",
    "order_bound_real",
]


@dataclass(frozen=True)
class GroupConstants:
    """Integer invariants of SL(n, R) entering the explicit bounds.

    dim_g    real dimension n^2 - 1
    dim_u    dimension of a maximal unipotent subgroup, n(n-1)/2
    rank_k   rank of the maximal compact SO(n), floor(n/2)
    ht_sum   largest root height under the coefficient-sum convention, n - 1
    """

    dim_g: int
    dim_u: int
    rank_k: int
    ht_sum: int


def group_constants(n: int) -> GroupConstants:
    if n < 2:
        raise ValueError(f"SL(n) constants need n >= 2, got {n}")
    return GroupConstants(
        dim_g=n * n - 1,
        dim_u=n * (n - 1) // 2,
        rank_k=n // 2,
        ht_sum=n - 1,
    )


def order_bound_real(gc: GroupConstants) -> int:
    """Vanishing-order bound (6 * ht * dim_u + 1)^rank_k, exact integer."""
    return (6 * gc.ht_sum * gc.dim_u + 1) ** gc.rank_k


@dataclass(frozen=True)
class DeltaBound:
    """Exact decay exponent bound with the intermediate inverse-bound chain.

    delta            final bound (3 * ht * dim_g)^-(rank_k + 1)
    inverse_order    2 * ht * dim_k * order_bound, the sharper inverse bound,
                     at most 1 / delta
    """

    delta: Fraction
    inverse_order: int


def delta_lower_bound(gc: GroupConstants) -> DeltaBound:
    """Exact rational lower bound for the decay exponent of SL(n, R).

    dim K equals dim_u for these split groups (Iwasawa: dim G = dim K +
    rank + dim U), which the chain uses.
    """
    dim_k = gc.dim_u
    inverse_order = 2 * gc.ht_sum * dim_k * order_bound_real(gc)
    inverse_final = (3 * gc.ht_sum * gc.dim_g) ** (gc.rank_k + 1)
    if inverse_order > inverse_final:
        raise AssertionError("inverse-bound chain is out of order")
    return DeltaBound(delta=Fraction(1, inverse_final), inverse_order=inverse_order)
