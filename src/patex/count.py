"""Exact K_{u,t} copy counting and the closed-form lower bounds that
accompany the counts.

A copy of K_{u,t} in a 0-1 matrix is a choice of u distinct rows and t
distinct columns whose induced submatrix is all ones. Counts are exact
arbitrary-precision integers (they overflow 64 bits at modest sizes), and
the bounds are evaluated from integer numerators and denominators wherever
possible so inequality tests do not hinge on rounding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .matrix import ZeroOneMatrix


@dataclass(frozen=True)
class CopyCount:
    u: int
    t: int
    count: int


def _count_copies(m: ZeroOneMatrix, u: int, t: int) -> int:
    """Sum of binom(common-line size, t) over u-subsets of the cheaper axis."""
    if math.comb(m.rows, u) <= math.comb(m.cols, t):
        masks, pick, other = m.row_masks, u, t
    else:
        masks, pick, other = m.col_masks, t, u
    if pick > len(masks):
        return 0
    # Depth-first intersection that abandons a branch once its common set has
    # fewer than `other` members (intersections only shrink); the last level
    # sums binom(size, other) in a loop with that reject instead of recursing.
    n = len(masks)
    comb = math.comb

    def rec(start: int, depth: int, inter: int) -> int:
        total = 0
        if depth == pick - 1:
            for mask in masks[start:]:
                size = (inter & mask).bit_count()
                if size >= other:
                    total += comb(size, other)
            return total
        for i in range(start, n - (pick - depth) + 1):
            nxt = inter & masks[i]
            if nxt.bit_count() >= other:
                total += rec(i + 1, depth + 1, nxt)
        return total

    full = (1 << (m.cols if masks is m.row_masks else m.rows)) - 1
    return rec(0, 0, full)


def count_copies(m: ZeroOneMatrix, u: int, t: int) -> CopyCount:
    """Exact number of K_{u,t} copies as an arbitrary-precision integer."""
    if u < 1 or t < 1:
        raise DomainError("u and t must be positive")
    return CopyCount(u=u, t=t, count=_count_copies(m, u, t))


@dataclass(frozen=True)
class SupersatBound:
    """Supersaturation lower bound on the K_{u,t} count of an n x n matrix of
    weight w: applicable when w > t*u*n^(2-1/u), and then
    count >= w^(tu) / (u^(ut-t+u) * t^t * n^(2ut-u-t))."""

    applicable: bool
    threshold: float
    bound: float
    exact: Optional[Fraction]

    def to_json_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "threshold": self.threshold,
            "bound": self.bound,
        }


def supersat_bound(w: int, n: int, u: int, t: int) -> SupersatBound:
    if n <= 0:
        raise DomainError("n must be positive")
    if u < 1 or t < 1:
        raise DomainError("u and t must be positive")
    threshold = t * u * n ** (2.0 - 1.0 / u)
    applicable = w > threshold
    exact = Fraction(
        int(w) ** (t * u),
        u ** (u * t - t + u) * t**t * n ** (2 * u * t - u - t),
    )
    return SupersatBound(
        applicable=applicable, threshold=threshold, bound=float(exact), exact=exact
    )


@dataclass(frozen=True)
class SteppingBound:
    """Given N copies of K_{u,t} in an m x n matrix with N >= 2*binom(n,t),
    the K_{u+1,t} count is at least N^((u+1)/u) * n^(-t/u) / 2."""

    applicable: bool
    threshold: int
    bound: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def stepping_bound(n_copies: int, n: int, u: int, t: int) -> SteppingBound:
    if n <= 0:
        raise DomainError("n must be positive")
    if u < 1 or t < 1:
        raise DomainError("u and t must be positive")
    threshold = 2 * math.comb(n, t)
    applicable = n_copies >= threshold
    if n_copies <= 0:
        bound = 0.0
    elif n_copies < 10**12:
        bound = 0.5 * float(n_copies) ** ((u + 1) / u) * float(n) ** (-t / u)
    else:
        bound = math.exp(
            math.log(n_copies) * (u + 1) / u - math.log(n) * t / u - math.log(2.0)
        )
    return SteppingBound(applicable=applicable, threshold=threshold, bound=bound)
