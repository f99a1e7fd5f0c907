"""Exact K_{u,t} copy counting and the closed-form lower bounds that
accompany the counts.

A copy of K_{u,t} in a 0-1 matrix is a choice of u distinct rows and t
distinct columns whose induced submatrix is all ones. Counts are exact
arbitrary-precision integers (they overflow 64 bits at modest sizes), and
the bounds are evaluated from integer numerators and denominators wherever
possible so inequality tests do not hinge on rounding.

`_count_copies` walks the u-sets of rows or the t-sets of columns, whichever
are fewer, and can also count the copies inside each of k equal horizontal
bands. Over rows the one walk gives both the total and the band counts;
over columns, whose t-sets span every band, each band is counted on its own.
The density-increment steps rank their blocks by these band counts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .errors import DomainError
from .matrix import ZeroOneMatrix


@dataclass(frozen=True)
class CopyCount:
    u: int
    t: int
    count: int


@lru_cache(maxsize=64)
def _binoms(width: int, other: int) -> tuple[int, ...]:
    """binom(size, other) for size = 0..width (zero below other)."""
    return tuple(math.comb(size, other) for size in range(width + 1))


class _Count(int):
    """An exact copy count that also carries, as `bands`, the counts inside
    each of the k equal horizontal bands it was walked with (band 1 first)."""

    bands: tuple[int, ...]


def _count_copies(m: ZeroOneMatrix, u: int, t: int, k: int = 1) -> int:
    """K_{u,t} copies of m: the sum of binom(common-line size, other) over
    the subsets of the cheaper axis. With k > 1 (k divides m.rows) the count
    is a `_Count` whose `bands` come from the same walk when rows are the
    cheaper axis."""
    h = m.rows // k
    if math.comb(m.rows, u) <= math.comb(m.cols, t):
        bands, total = _walk(m.row_masks, u, t, m.cols, h)
    else:
        # A t-set of columns spans every band, so each band is counted on
        # its own, along whichever axis is cheaper there.
        bands, total = _walk(m.col_masks, t, u, m.rows, m.cols)
        if k > 1:
            bands = tuple(
                _count_copies(m.submatrix(lo, lo + h - 1, 1, m.cols), u, t)
                for lo in range(1, m.rows + 1, h)
            )
    if k == 1:
        return total
    out = _Count(total)
    out.bands = bands
    return out


def _walk(
    masks: Sequence[int], pick: int, other: int, width: int, h: int
) -> tuple[tuple[int, ...], int]:
    """Copies whose `pick` lines all lie in one band of h consecutive lines,
    band by band, and all copies. A set of lines lies in one band exactly
    when its first and last lines do, so the walk carries the end of its
    first line's band and splits the last line's scan there."""
    n = len(masks)
    binom = _binoms(width, other)
    full = (1 << width) - 1

    # Depth-first intersection that abandons a branch once its common set has
    # fewer than `other` members (intersections only shrink). The level above
    # the last runs the last one inline. Returns the copies whose last line
    # comes before `end`, and all of them.
    def rec(start: int, stop: int, depth: int, inter: int, end: int) -> tuple[int, int]:
        inside = total = 0
        for i in range(start, stop):
            nxt = inter & masks[i]
            if nxt.bit_count() < other:
                continue
            if depth < pick - 2:
                a, b = rec(i + 1, n - pick + depth + 2, depth + 1, nxt, end)
            else:
                a = 0
                for mask in masks[i + 1 : end]:
                    a += binom[(nxt & mask).bit_count()]
                b = a
                if end < n:
                    for mask in masks[end if end > i else i + 1 :]:
                        b += binom[(nxt & mask).bit_count()]
            inside += a
            total += b
        return inside, total

    bands = []
    total = 0
    for lo in range(0, n, h):
        end = lo + h
        if pick == 1:
            # Each line is a set of its own, in its own band.
            inside = every = sum(binom[mask.bit_count()] for mask in masks[lo:end])
        else:
            inside, every = rec(lo, min(end, n - pick + 1), 0, full, end)
        bands.append(inside)
        total += every
    return tuple(bands), total


def _display(direct: Callable[[], float], log: Callable[[], float]) -> float:
    """A display float, which decides nothing: direct(), or exp(log()) when
    direct() leaves the float range on the way, or inf when the value itself
    lies past it (reports write it "inf")."""
    try:
        return direct()
    except OverflowError:
        try:
            return math.exp(log())
        except OverflowError:
            return math.inf


def count_copies(m: ZeroOneMatrix, u: int, t: int) -> CopyCount:
    """Exact number of K_{u,t} copies as an arbitrary-precision integer."""
    if u < 1 or t < 1:
        raise DomainError("u and t must be positive")
    return CopyCount(u=u, t=t, count=_count_copies(m, u, t))


@dataclass(frozen=True)
class SupersatBound:
    """Supersaturation lower bound on the K_{u,t} count of an n x n matrix of
    weight w: applicable when w > t*u*n^(2-1/u) (the float `threshold`),
    decided exactly as w^u > (tu)^u n^(2u-1), and then
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
    threshold = _display(
        lambda: t * u * n ** (2.0 - 1.0 / u), lambda: math.log(t * u) + (2 - 1 / u) * math.log(n)
    )
    applicable = int(w) ** u > (t * u) ** u * n ** (2 * u - 1)
    exact = Fraction(
        int(w) ** (t * u),
        u ** (u * t - t + u) * t**t * n ** (2 * u * t - u - t),
    )
    bound = _display(lambda: float(exact), lambda: math.log(exact.numerator) - math.log(exact.denominator))
    return SupersatBound(applicable=applicable, threshold=threshold, bound=bound, exact=exact)


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
    bound = 0.0
    if n_copies > 0:
        bound = _display(
            lambda: 0.5 * float(n_copies) ** ((u + 1) / u) * float(n) ** (-t / u),
            lambda: math.log(n_copies) * (u + 1) / u - math.log(n) * t / u - math.log(2.0),
        )
    return SteppingBound(applicable=applicable, threshold=threshold, bound=bound)


def _stepping_holds(n_copies: int, actual: int, n: int, u: int, t: int) -> bool:
    """actual >= N^((u+1)/u) * n^(-t/u) / 2 for N = n_copies, in integers."""
    return (2 * actual) ** u * n**t >= n_copies ** (u + 1)
