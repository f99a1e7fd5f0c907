"""Density-increment engine: embed-or-densify steps, explicit proof-grade
constants, the decreasing lambda schedule with its jump levels, and the
recursion drivers.

One step partitions the host into k horizontal blocks and either finds a
verified embedding of the pattern (through heavy labels of the column
hypergraph and an ordered complete t-partite structure with parts sized like
the pattern's column intervals), or returns the block with the most K_{u,t}
copies. The embedding maps the pattern's columns onto the structure's
vertices in order and pattern row a to the first row of block label[a] with
a 1 in each of row a's 1-columns, found by `_find_copy`, the banded walk
behind `find_embedding`; every certificate a step or driver returns has
passed `certified` against its host. The advertised constants make the densify guarantee
astronomically demanding, so drivers accept user-supplied (k, depth) and
record which of the closed-form thresholds actually held at every level; all
counts are exact integers and oversized constants are handled in log10 space.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .classify import min_column_parts, min_row_parts
from .count import _count_copies, _display, _stepping_holds, stepping_bound, supersat_bound
from .errors import DivisibilityError, DomainError, InputError, PreconditionError
from .matrix import Embedding, ZeroOneMatrix, _find_copy, certified
# build_column_hypergraph is unused here but stays bound: perfbench/spans.py
# traces the increment layer through this module's attributes.
from .ohypergraph import (  # noqa: F401
    build_column_hypergraph,
    find_ordered_complete_t_partite,
    heavy_label_classes,
)


# ----------------------------------------------------------------------
# Constants


@dataclass(frozen=True)
class ProofConstants:
    """Closed-form constants of the increment machinery:

        k      = ceil((4 r^(t-1) t^t / t!)^(1/eps))
        delta  = 1 / (t s^(t-1))
        C0     = (8 t^t binom(k, r))^(1/delta)
        C'     = 8 binom(k, r) C0^(t-delta)
        C      = max(C', 4 binom(ru, u))
        c      = t^(-t^2-t)

    C0, C' and C outgrow floats at modest parameters, so they are kept only
    as their log10 fields, finite unless 1/eps is near the end of the float
    range; the fields are exactly the keys of the JSON form. When k < r,
    binom(k, r) = 0 has no log10, which is taken as 0, as if binom(k, r)
    were 1: make_constants(2, 3, 2, 2, 100.0) has k = 2 and
    log10_C0 = 4 log10 32.
    """

    t: int
    r: int
    s: int
    u: int
    epsilon: float
    k: Optional[int]
    delta: float
    c: float
    log10_k: float
    log10_C0: float
    log10_Cprime: float
    log10_C: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _ceil_power(base: Fraction, eps: Fraction) -> tuple[Optional[int], float]:
    """ceil(base^(1/eps)) with its log10, for base > 1 and eps as written.
    When 1/eps is an integer the power is exact on rationals below 10^4000
    (str() of a longer int fails under Python's default 4,300-digit limit);
    otherwise it is a float, materialized only below 10^15 and never below
    2, since base^(1/eps) > 1."""
    inv = 1 / eps
    log10_raw = math.log10(base) / float(eps)  # inf past the float range
    if inv.denominator == 1 and log10_raw < 4000:
        q = base**inv.numerator
        k = -((-q.numerator) // q.denominator)
        return k, math.log10(k)
    if log10_raw > 15:
        return None, log10_raw
    k = max(2, math.ceil(float(base) ** float(inv)))
    return k, math.log10(k)


def make_constants(t: int, r: int, s: int, u: int, epsilon: float) -> ProofConstants:
    if t < 2:
        raise DomainError("t must be at least 2")
    if min(r, s, u) < 1:
        raise DomainError("r, s, u must be positive")
    eps = _as_written(epsilon, "epsilon")
    base = Fraction(4 * r ** (t - 1) * t**t, math.factorial(t))
    k, log10_k = _ceil_power(base, eps)
    if k is not None:
        comb_k_r = math.comb(k, r)
        log10_comb = math.log10(comb_k_r) if comb_k_r > 0 else 0.0
    else:
        # binom(k, r) ~ k^r / r! is accurate to O(r^2/k) for huge k.
        log10_comb = r * log10_k - math.log10(math.factorial(r))
    delta = 1.0 / (t * s ** (t - 1))
    log10_C0 = (math.log10(8 * t**t) + log10_comb) / delta
    log10_Cprime = math.log10(8) + log10_comb + (t - delta) * log10_C0
    tail = 4 * math.comb(r * u, u)
    log10_C = max(log10_Cprime, math.log10(tail))
    c = float(t) ** (-(t * t + t))
    return ProofConstants(
        t=t,
        r=r,
        s=s,
        u=u,
        epsilon=epsilon,
        k=k,
        delta=delta,
        c=c,
        log10_k=log10_k,
        log10_C0=log10_C0,
        log10_Cprime=log10_Cprime,
        log10_C=log10_C,
    )


# ----------------------------------------------------------------------
# Lambda schedule


@dataclass(frozen=True)
class LambdaSchedule:
    """Decreasing weights lambda_t = 1, lambda_{t+1} = 1 - 1/(2(t+1)) + eps0,
    lambda_{u+1} = lambda_u - t/((u-1)(u+1)) for t+1 <= u <= U-1, and
    lambda_{U+1} = 0, with eps0 = eps/(10 t^2). The recurrence solves to the
    closed form lambda_u = eps0 + t/(2(u-1)) + t/(2u) on t+1..U, which
    `value` returns exactly."""

    t: int
    U: int
    epsilon0: Fraction

    def value(self, u: int) -> Fraction:
        if not (self.t <= u <= self.U + 1):
            raise InputError(f"u={u} outside {self.t}..{self.U + 1}")
        if u == self.t:
            return Fraction(1)
        if u == self.U + 1:
            return Fraction(0)
        return self.epsilon0 + Fraction(self.t * (2 * u - 1), 2 * u * (u - 1))

    def types_of(self, i: Union[int, Fraction], z: Union[Fraction, float]) -> tuple[int, ...]:
        """All u in t..U with 1 - lambda_u <= i/z <= 1 - lambda_{u+1} (z > 0),
        decided exactly; a jump level has two. 1 - lambda_u is 0 at u = t
        and increases on t+1..U+1 up to 1, so the types are the last u = w
        with 1 - lambda_w <= i/z, and w - 1 on an equality; w is the width of
        level 0 <= i < z. On t+1..U, with 1 - eps0 - i/z = r = p/q, that
        bound is 2p u(u-1) <= tq(2u-1): u is at most the larger root of
        2r u^2 - 2(r+t)u + t, whose floor an integer square root gives to
        within one."""
        t, U = self.t, self.U
        (a, b), (c, d) = i.as_integer_ratio(), z.as_integer_ratio()  # i/z = ad/(bc)
        if a * d >= b * c:
            return (U,) if a * d == b * c else ()
        e, f = self.epsilon0.as_integer_ratio()
        q = b * c * f
        p = q - b * c * e - a * d * f  # 1 - eps0 - i/z = p/q
        # the sign of i/z - (1 - lambda_u) for t+1 <= u <= U
        gap = lambda u: t * q * (2 * u - 1) - 2 * p * u * (u - 1)  # noqa: E731
        if p <= 0:  # i/z >= 1 - eps0, past every bound below 1
            w = U
        else:
            w = (p + t * q + math.isqrt(p * p + t * t * q * q)) // (2 * p)
            w = max(t, min(U, w + (gap(w + 1) >= 0)))
        types = (w - 1, w) if w > t and gap(w) == 0 else (w,)
        return types if a >= 0 else tuple(u for u in types if u > t)  # 1 - lambda_t = 0 > i/z


def lambda_schedule(t: int, U: int, epsilon: Union[float, Fraction]) -> LambdaSchedule:
    if t < 1:
        raise DomainError("t must be positive")
    eps, cap = _as_written(epsilon, "epsilon"), Fraction(5 * t * t, t + 1)
    if eps >= cap:  # then lambda_{t+1} >= lambda_t = 1
        raise DomainError(f"epsilon too large for the schedule: {_json_safe(eps)} is not below 5t^2/(t+1) = {cap}")
    if U <= t + 1:
        raise DomainError(f"need U > t+1 (got t={t}, U={U})")
    return LambdaSchedule(t=t, U=U, epsilon0=eps / (10 * t * t))


def _as_written(x: Union[float, Fraction], name: str) -> Fraction:
    """x as the decimal it was written as (str(0.6) reads back as 3/5), a
    Fraction unchanged; x needs a finite, positive float, as reports write one."""
    try:
        if 0 < float(x) < math.inf:
            return x if isinstance(x, Fraction) else Fraction(str(x))
    except OverflowError:  # a Fraction past the float range
        pass
    if isinstance(x, (int, Fraction)) and max(x.numerator, x.denominator, key=abs).bit_length() > 64:
        # by its size: str() of an int past 4,300 digits raises ValueError
        x = f"a {x.numerator.bit_length()}-bit numerator over a {x.denominator.bit_length()}-bit denominator"
    raise DomainError(f"{name} must be finite and positive, got {x}")


# ----------------------------------------------------------------------
# Embed-or-densify steps


@dataclass(frozen=True)
class HeavySearch:
    """What one horizontal pass of a step searched before it embedded or
    densified: whether heavy edges can exist at all (they need witness rows
    in r distinct blocks, so k >= r), how many there were, how many label
    classes they formed, and how many of those the t-partite search
    examined. Labels are r-subsets of the k blocks, so there are at most
    binom(k, r) classes, and a densified step has examined every one."""

    possible: bool
    edges: int
    classes: int
    examined: int

    def to_json_dict(self) -> dict:
        return {
            "heavyPossible": self.possible,
            "heavyEdges": self.edges,
            "labelClasses": self.classes,
            "labelClassesExamined": self.examined,
        }


@dataclass(frozen=True)
class StepResult:
    """Outcome of one increment step. kind "embedded" carries a verified
    certificate (coordinates relative to the step's input matrix); kind
    "densified" carries the chosen block, its exact copy count, the total
    and within-block ("narrow") totals, and whether the closed-form block
    guarantee held. heavy has one entry per horizontal pass run (the grid
    step runs one on the rows, then one on the columns)."""

    kind: str
    embedding: Optional[Embedding] = None
    label: Optional[tuple[int, ...]] = None
    block: Union[int, tuple[int, int], None] = None
    row_range: Optional[tuple[int, int]] = None
    col_range: Optional[tuple[int, int]] = None
    count: Optional[int] = None
    total: Optional[int] = None
    narrow_total: Optional[int] = None
    guarantee_met: Optional[bool] = None
    heavy: tuple[HeavySearch, ...] = ()


def _part_sizes(cuts: Sequence[int], width: int, parts: int) -> tuple[int, ...]:
    """Sizes of the intervals that cuts split 1..width into, refined to
    `parts` intervals by splitting the leftmost of size >= 2 into 1 and the rest."""
    if parts > width:
        raise PreconditionError(f"cannot split {width} positions into {parts} nonempty intervals")
    bounds = (0, *cuts, width)
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    while len(sizes) < parts:
        i = next(i for i, size in enumerate(sizes) if size >= 2)
        sizes[i : i + 1] = [1, sizes[i] - 1]
    return tuple(sizes)


def _assemble_embedding(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    label: tuple[int, ...],
    parts: Sequence[Sequence[int]],
    bands: Sequence[tuple[int, int]],
) -> Embedding:
    """Explicit copy from an ordered complete t-partite structure whose
    transversals all carry the heavy label: pattern column b goes to the b-th
    smallest vertex of the parts, and pattern row a goes to the first row of
    block label[a] that has a 1 in every column of row a's 1-entries. That
    row exists, since every transversal through those columns is a heavy
    edge with a witness row in each block of the label. bands[b - 1] is
    block b's (first, last) row. The rows are found by the banded walk of
    `_find_copy` over the host cut to the parts' vertices."""
    verts = sorted(v for part in parts for v in part)
    host = m.select(range(1, m.rows + 1), verts)
    found = _find_copy(host, a, [bands[b - 1] for b in label])
    if found is None:
        raise AssertionError("label class lost its witness row")  # unreachable: a heavy edge has them
    return certified(m, a, Embedding(row_map=found.row_map, col_map=tuple(verts)))


def _horizontal_step(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    u: int,
    k: int,
    sizes: Sequence[int],
    total: Optional[int] = None,
) -> StepResult:
    """Embed-or-densify over k horizontal bands with column parts of the
    given sizes (t = len(sizes)). total, when given, is the caller's K_{u,t}
    count of m; a total from `_count_copies(m, u, t, k)` also hands over the
    band counts of the same walk, and the step counts each band otherwise.
    Without a total the step makes that one walk itself."""
    if k < 1 or m.rows % k:
        raise DivisibilityError(f"{k} does not divide row count {m.rows}")
    if u < 1:
        raise DomainError("u must be positive")
    r = a.rows
    t = len(sizes)
    band = m.rows // k
    bands = [(p * band + 1, (p + 1) * band) for p in range(k)]
    classes = heavy_label_classes(m, t, k, r)
    found = dict(
        possible=k >= r,
        edges=sum(mask.bit_count() for c in classes.values() for mask in c.values()),
        classes=len(classes),
    )
    for i, label in enumerate(sorted(classes)):
        parts = find_ordered_complete_t_partite(m.cols, sizes, classes[label])
        if parts is None:
            continue
        emb = _assemble_embedding(m, a, label, parts, bands)
        return StepResult(
            kind="embedded",
            embedding=emb,
            label=label,
            heavy=(HeavySearch(examined=i + 1, **found),),
        )
    if total is None:
        total = _count_copies(m, u, t, k)
    # A total walked with these bands carries their counts; a count the
    # caller knew from the level above does not, and its bands are counted.
    counts = getattr(total, "bands", None)
    if counts is None:
        counts = [_count_copies(m.submatrix(lo, hi, 1, m.cols), u, t) for lo, hi in bands]
    best = max(range(k), key=lambda p: (counts[p], -p))
    narrow_total = sum(counts)
    guarantee = counts[best] * 4 * r ** (u - 1) * u**u * k >= math.factorial(u) * total
    lo, hi = bands[best]
    return StepResult(
        kind="densified",
        block=best + 1,
        row_range=(lo, hi),
        col_range=(1, m.cols),
        count=counts[best],
        total=int(total),  # without the band counts it may carry
        narrow_total=narrow_total,
        guarantee_met=guarantee,
        heavy=(HeavySearch(examined=len(classes), **found),),
    )


def density_increment_step(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    u: int,
    k: int,
) -> StepResult:
    """Embed-or-densify over k horizontal blocks. The column-interval count t
    and the interval sizes come from the pattern's minimal column partition;
    the densify guarantee compares the best block's exact K_{u,t} count
    against u!/(4 r^(u-1) u^u) * N/k with exact integer arithmetic."""
    t, cuts = min_column_parts(a)
    return _horizontal_step(m, a, u, k, _part_sizes(cuts, a.cols, t))


def symmetric_increment_step(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    k: int,
    total: Optional[int] = None,
) -> StepResult:
    """Two-direction step for a t x t-partite pattern: a horizontal step on M
    followed by a vertical step (a horizontal step on the transpose) inside
    the chosen block, yielding a grid block whose composed guarantee is
    (t!)^2 / (16 (rs)^(t-1) t^(2t)) * N / k^2. Both part partitions are
    refined to t = max(row parts, column parts) before the first pass, so
    fewer than t rows or columns always raise PreconditionError. total,
    when given, is the caller's K_{t,t} count of M, and the horizontal pass
    reads its band counts from it as `_horizontal_step` does."""
    if k < 1 or m.rows % k or m.cols % k:
        raise DivisibilityError(f"{k} must divide both dimensions {m.rows}x{m.cols}")
    t_row, row_cuts = min_row_parts(a)
    t_col, col_cuts = min_column_parts(a)
    t = max(t_row, t_col)
    col_sizes = _part_sizes(col_cuts, a.cols, t)
    row_sizes = _part_sizes(row_cuts, a.rows, t)
    step1 = _horizontal_step(m, a, t, k, col_sizes, total)
    if step1.kind == "embedded":
        return step1
    p = step1.block
    row_lo, row_hi = step1.row_range
    m1 = m.submatrix(row_lo, row_hi, 1, m.cols)
    # K_{t,t} is symmetric, so the chosen band's count is its transpose's.
    step2 = _horizontal_step(m1.transpose(), a.transpose(), t, k, row_sizes, step1.count)
    heavy = step1.heavy + step2.heavy
    if step2.kind == "embedded":
        inner = step2.embedding
        emb = certified(m, a, Embedding(inner.col_map, inner.row_map).shifted(row_lo - 1, 0))
        return StepResult(kind="embedded", embedding=emb, label=step2.label, heavy=heavy)
    q = step2.block
    col_lo, col_hi = step2.row_range  # rows of the transpose are columns of m1
    r, s = a.rows, a.cols
    total = step1.total
    count = step2.count
    guarantee = (
        count * 16 * (r * s) ** (t - 1) * t ** (2 * t) * k**2
        >= math.factorial(t) ** 2 * total
    )
    return StepResult(
        kind="densified",
        block=(p, q),
        row_range=(row_lo, row_hi),
        col_range=(col_lo, col_hi),
        count=count,
        total=total,
        narrow_total=step2.narrow_total,
        guarantee_met=guarantee,
        heavy=heavy,
    )


# ----------------------------------------------------------------------
# Drivers


@dataclass
class TraceLevel:
    level: int
    row_range: tuple[int, int]
    col_range: tuple[int, int]
    weight: int
    u: Optional[int]
    count: Optional[int]
    checks: dict
    branch: str
    block: Union[int, tuple[int, int], None] = None
    guarantee_met: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "rows": list(self.row_range),
            "cols": list(self.col_range),
            "weight": self.weight,
            "u": self.u,
            "count": self.count,
            "checks": _json_safe(self.checks),
            "branch": self.branch,
            "block": list(self.block) if isinstance(self.block, tuple) else self.block,
            "guaranteeMet": self.guarantee_met,
        }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    if type(obj) is Fraction:  # an epsilon or c passed exactly
        # its float if that reads back as obj, else "p/q": verdicts follow from what is written
        return float(obj) if Fraction(str(float(obj))) == obj else str(obj)
    return obj


@dataclass
class IncrementTrace:
    mode: str
    params: dict
    levels: list[TraceLevel]
    embedding: Optional[Embedding]
    stop_reason: str
    constants: Optional[ProofConstants] = None

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "params": _json_safe(self.params),
            "levels": [lv.to_json_dict() for lv in self.levels],
            "embedding": self.embedding.to_json_dict() if self.embedding else None,
            "stopReason": self.stop_reason,
            "constants": _json_safe(self.constants.to_json_dict()) if self.constants else None,
        }


def _log(x: Union[int, Fraction], k: int) -> Union[Fraction, float]:
    """log_k x (x > 0, k >= 2): a/b when x = g^a, a of either sign, and
    k = g^b for k's least root g, else the float ratio of logs (for an int
    x, math.log(x) / math.log(k)). That log is irrational (x^c = k^d would
    make x a power of g), so a comparison the float decides is never a tie."""
    g, b = k, 1
    for e in range(2, k.bit_length()):
        # floor(k^(1/e)) by Newton's method on ints, from above
        root = 1 << -(-k.bit_length() // e)
        while (nxt := ((e - 1) * root + k // root ** (e - 1)) // e) < root:
            root = nxt
        if root**e == k:
            g, b = root, e
    p, q = x.as_integer_ratio()
    a, rest = 0, max(p, q)  # p/q in lowest terms is a power of g only if p or q is 1
    while rest % g == 0:
        a, rest = a + 1, rest // g
    if rest == 1 and min(p, q) == 1:
        return Fraction(a if q == 1 else -a, b)
    return (math.log(p) - math.log(q)) / math.log(k)


def _level_checks(
    count: int, n_base: int, rows: int, cols: int, weight: int, i: int, width: int,
    jump: Optional[tuple[int, int, int]], *, k: int, t: int, n0: int, r0: int, eps: Fraction,
    constants: Optional[ProofConstants], checkpoint: Optional[int],
) -> dict:
    """The checks of level i from its numbers alone: its K_{width,t} count,
    level 0's count n_base, its shape and weight, and at a width jump the
    width above, the count handed down and the K_{that width + 1,t} count.
    The rest is the run's; eps is epsilon as written. Each verdict is exact
    but the precondition's, and every float beside them is for display."""
    checks: dict = {}
    if jump is not None:
        low, handed, actual = jump
        sb = stepping_bound(handed, n0, low, t)
        checks["jump"] = {
            "fromWidth": low,
            "toWidth": width,
            "steppingApplicable": sb.applicable,
            "steppingBound": sb.bound,
            "steppingHolds": not sb.applicable or _stepping_holds(handed, actual, n0, low, t),
        }
    rate = r0 + float(eps)
    checks["chainLowerBound"] = _display(
        lambda: n_base / k ** (rate * i), lambda: math.log(n_base) - rate * i * math.log(k)
    )
    # count >= n_base / k^((r0 + eps) i), exactly
    checks["chainHolds"] = count >= n_base or (
        count > 0 and _log(Fraction(n_base, count), k) <= (r0 + eps) * i
    )
    if constants is not None:
        # Decided in log10: C has no exact value, as k comes from a float
        # power when 1/epsilon is not an integer (`_ceil_power`).
        thr_log10 = constants.log10_C + max(width * math.log10(rows), t * math.log10(cols))
        checks["incrementThresholdLog10"] = thr_log10
        checks["incrementPreconditionHolds"] = count > 0 and math.log10(count) > thr_log10
    if i == 0:
        supers = supersat_bound(weight, n0, t, t)  # at u = t
        checks["supersaturationLowerBound"] = supers.bound
        checks["supersaturationHolds"] = count >= supers.exact
    if checkpoint is not None:
        checks["contradictionCheckpointLevel"] = checkpoint
        checks["pastContradictionCheckpoint"] = i >= checkpoint
        checks["rowsBelowEpsPower"] = _log(rows, n0) < eps / t
    return checks


def run_driver(
    m: ZeroOneMatrix, a: ZeroOneMatrix, mode: str, *, k: int, depth: Optional[int] = None,
    epsilon: float = 1.0, u: Optional[int] = None,
) -> IncrementTrace:
    """Iterate the increment step, recording per level the exact counts, the
    closed-form threshold checks, stepping-up checks at width jumps, and the
    branch taken. Modes:

      thm21  horizontal blocks only, fixed width u (default t); levels are
             (rows/k^i) x n.
      thm12  grid blocks via the symmetric step; levels are square.
      thm11  horizontal blocks with the width chosen per level by the lambda
             schedule; jumps record the stepping-up bound. Takes no u.

    The pattern's width t is its column part count, or for thm12 the larger
    of its row and column part counts; every level counts K_{u,t} copies.
    A densified step hands its chosen block's count down to the next level.
    Stops on an embedding that passed `certified` against m, on exhausted
    depth/divisibility, or when the tracked count reaches zero.
    """
    if mode not in ("thm21", "thm12", "thm11"):
        raise InputError(f"unknown driver mode {mode!r}")
    if k < 2:
        raise DomainError("k must be at least 2")
    if depth is not None and depth < 0:
        raise DomainError(f"depth must be at least 0, got {depth}")
    if u is not None and u < 1:
        raise DomainError(f"u must be positive, got {u}")
    if u is not None and mode == "thm11":
        raise DomainError("thm11 chooses the width per level; u is not accepted")
    eps = _as_written(epsilon, "epsilon")
    grid = mode == "thm12"
    t, cuts = min_column_parts(a)
    sizes = _part_sizes(cuts, a.cols, t)
    params = {"k": k, "depth": depth, "epsilon": epsilon, "mode": mode, "u": u}
    n0 = m.cols
    z = _log(n0, k)  # a Fraction whenever it is rational

    schedule = None
    if mode == "thm11":
        if t < 2:
            raise PreconditionError("schedule driver needs a column partition with t >= 2")
        params["U"] = math.ceil(100 * t**3 / eps)
        schedule = lambda_schedule(t, params["U"], eps)
    if grid:
        if m.rows != m.cols:
            raise PreconditionError("symmetric driver needs a square host")
        t = max(t, min_row_parts(a)[0])
    u_fixed = u if u is not None else t
    constants = make_constants(t, a.rows, a.cols, u_fixed, epsilon) if t >= 2 else None
    run = dict(
        k=k, t=t, n0=n0, r0=2 if grid else 1, eps=eps, constants=constants,
        # the contradiction checkpoint level ceil((1 - epsilon/t) z)
        checkpoint=math.ceil((1 - eps / t) * z) if not grid and z > 0 else None,
    )

    levels: list[TraceLevel] = []
    embedding = None
    cur, row_off, col_off, i = m, 0, 0, 0
    # (width, K_{width,t} count of cur) from the step above, which counted
    # the block it chose (the grid step at width t); None at level 0.
    above: Optional[tuple[int, int]] = None

    def level_count(width: int) -> int:
        # A level's own count, with its band counts for the step when k
        # divides its rows (a level that it does not divide takes no step).
        return _count_copies(cur, width, t, k if cur.rows % k == 0 else 1)

    while schedule is None or i < z:
        types = schedule.types_of(i, z) if schedule is not None else (u_fixed,)
        width = types[-1]
        jump = None
        if above is None:
            count = n_base = level_count(width)  # n_base anchors the chain bound
        else:
            low, handed = above
            count = handed if width == low else level_count(width)
            if schedule is not None and width > low:
                jump = (low, handed, count if width == low + 1 else level_count(low + 1))
        checks = _level_checks(count, n_base, cur.rows, cur.cols, cur.weight, i, width, jump, **run)
        if schedule is not None:
            checks["lambda"] = float(schedule.value(width))
            checks["types"] = list(types)
        step = stop_reason = None
        if count == 0:
            stop_reason = "no-copies"
        elif depth is not None and i >= depth:
            stop_reason = "depth-reached"
        elif cur.rows % k or (grid and cur.cols % k):
            stop_reason = "divisibility"
        else:
            if grid:
                step = symmetric_increment_step(cur, a, k, count if width == t else None)
            else:
                step = _horizontal_step(cur, a, width, k, sizes, count)
            checks["heavySearch"] = [h.to_json_dict() for h in step.heavy]
            if step.kind == "embedded":
                embedding = certified(m, a, step.embedding.shifted(row_off, col_off))
                stop_reason = "embedded"
        levels.append(
            TraceLevel(
                level=i, row_range=(row_off + 1, row_off + cur.rows), col_range=(col_off + 1, col_off + cur.cols),
                weight=cur.weight, u=width, checks=checks,
                count=int(count),  # without the band counts it may carry
                branch=step.kind if step else "exhausted",
                block=step and step.block, guarantee_met=step and step.guarantee_met,
            )
        )
        if stop_reason is not None:
            break
        # A horizontal step's col_range spans every column of cur.
        (rlo, rhi), (clo, chi) = step.row_range, step.col_range
        cur = cur.submatrix(rlo, rhi, clo, chi)
        row_off, col_off = row_off + rlo - 1, col_off + clo - 1
        above = (t if grid else width, step.count)
        i += 1
    else:  # the schedule ran out of levels
        stop_reason = "schedule-exhausted"

    return IncrementTrace(mode, params, levels, embedding, stop_reason, constants)
