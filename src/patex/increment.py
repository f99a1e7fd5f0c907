"""Density-increment engine: embed-or-densify steps, explicit proof-grade
constants, the decreasing lambda schedule with its jump levels, and the
recursion drivers.

One step partitions the host into k horizontal blocks and either finds a
verified embedding of the pattern (through heavy labels of the column
hypergraph and an ordered complete t-partite structure with parts sized like
the pattern's column intervals), or returns the block with the most K_{u,t}
copies. The advertised constants make the densify guarantee astronomically
demanding, so drivers accept user-supplied (k, depth) and record which of
the closed-form thresholds actually held at every level; all counts are
exact integers and oversized constants are handled in log10 space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .classify import min_column_parts, min_row_parts
from .count import _count_copies, stepping_bound
from .errors import DivisibilityError, DomainError, InputError, PreconditionError
from .matrix import Embedding, ZeroOneMatrix, partition, verify_embedding
# build_column_hypergraph is unused here but stays bound: perfbench/spans.py
# traces the increment layer through this module's attributes.
from .ohypergraph import (  # noqa: F401
    OrderedHypergraph,
    build_column_hypergraph,
    find_ordered_complete_t_partite,
    heavy_label_classes,
)

LOG10_CAP = 300.0


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

    Values above 10^300 are reported as +inf with the log10 fields carrying
    the magnitude; log10 fields are always finite.
    """

    t: int
    r: int
    s: int
    u: int
    epsilon: float
    k: Optional[int]
    comb_k_r: Optional[int]
    delta: float
    c: float
    C0: float
    Cprime: float
    C: float
    log10_k: float
    log10_C0: float
    log10_Cprime: float
    log10_C: float
    log10_c: float

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "r": self.r,
            "s": self.s,
            "u": self.u,
            "epsilon": self.epsilon,
            "k": self.k,
            "delta": self.delta,
            "c": self.c,
            "log10_k": self.log10_k,
            "log10_C0": self.log10_C0,
            "log10_Cprime": self.log10_Cprime,
            "log10_C": self.log10_C,
        }


def _ceil_power(base: Fraction, inv_exponent: float) -> tuple[Optional[int], float]:
    """ceil(base^inv_exponent) with its log10. Integer exponents are handled
    exactly on rationals; otherwise float, materialized only below 10^15."""
    log10_raw = math.log10(base) * inv_exponent
    rounded = round(inv_exponent)
    if abs(inv_exponent - rounded) < 1e-12 and rounded >= 1:
        q = base**rounded
        k = -((-q.numerator) // q.denominator)
        return k, math.log10(k)
    if log10_raw > 15:
        return None, log10_raw
    k = math.ceil(float(base) ** inv_exponent)
    return k, math.log10(k)


def make_constants(t: int, r: int, s: int, u: int, epsilon: float) -> ProofConstants:
    if t < 2:
        raise DomainError("t must be at least 2")
    if min(r, s, u) < 1:
        raise DomainError("r, s, u must be positive")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    base = Fraction(4 * r ** (t - 1) * t**t, math.factorial(t))
    k, log10_k = _ceil_power(base, 1.0 / epsilon)
    if k is not None:
        comb_k_r = math.comb(k, r)
        log10_comb = math.log10(comb_k_r) if comb_k_r > 0 else 0.0
    else:
        comb_k_r = None
        # binom(k, r) ~ k^r / r! is accurate to O(r^2/k) for huge k.
        log10_comb = r * log10_k - math.log10(math.factorial(r))
    delta = 1.0 / (t * s ** (t - 1))
    log10_C0 = (math.log10(8 * t**t) + log10_comb) / delta
    log10_Cprime = math.log10(8) + log10_comb + (t - delta) * log10_C0
    tail = 4 * math.comb(r * u, u)
    log10_C = max(log10_Cprime, math.log10(tail))
    c = float(t) ** (-(t * t + t))
    log10_c = -(t * t + t) * math.log10(t)

    def materialize(log10_value: float) -> float:
        return 10.0**log10_value if log10_value <= LOG10_CAP else math.inf

    return ProofConstants(
        t=t,
        r=r,
        s=s,
        u=u,
        epsilon=epsilon,
        k=k,
        comb_k_r=comb_k_r,
        delta=delta,
        c=c,
        C0=materialize(log10_C0),
        Cprime=materialize(log10_Cprime),
        C=materialize(log10_C),
        log10_k=log10_k,
        log10_C0=log10_C0,
        log10_Cprime=log10_Cprime,
        log10_C=log10_C,
        log10_c=log10_c,
    )


# ----------------------------------------------------------------------
# Lambda schedule


@dataclass(frozen=True)
class LambdaSchedule:
    """Decreasing weights lambda_t = 1, lambda_{t+1} = 1 - 1/(2(t+1)) + eps0,
    lambda_{u+1} = lambda_u - t/((u-1)(u+1)) for t+1 <= u <= U-1, and
    lambda_{U+1} = 0, with eps0 = eps/(10 t^2) and the small step
    delta = eps/(10 U). The closed form on t+1..U is
    lambda_u = eps0 + t/(2(u-1)) + t/(2u)."""

    t: int
    U: int
    epsilon: float
    epsilon0: float
    delta_small: float
    lambdas: tuple[float, ...]  # lambdas[i] = lambda_{t+i}, i = 0..U+1-t

    def value(self, u: int) -> float:
        if not (self.t <= u <= self.U + 1):
            raise InputError(f"u={u} outside {self.t}..{self.U + 1}")
        return self.lambdas[u - self.t]

    def closed_form(self, u: int) -> float:
        if not (self.t + 1 <= u <= self.U):
            raise InputError(f"closed form defined for {self.t + 1}..{self.U}")
        return self.epsilon0 + self.t / (2.0 * (u - 1)) + self.t / (2.0 * u)

    def jump_levels(self, z: float) -> tuple[tuple[float, int], ...]:
        """Recursion depths i = z - z*lambda_u at which the tracked clique
        width steps up to u, for u = t+1..U."""
        return tuple((z - z * self.value(u), u) for u in range(self.t + 1, self.U + 1))

    def type_of(self, i: float, z: float) -> Optional[int]:
        """The unique u with z*lambda_{u+1} < z - i <= z*lambda_u, or None
        once z - i <= 0 (the schedule is exhausted)."""
        rem = z - i
        if rem <= 0:
            return None
        for u in range(self.t, self.U + 1):
            if z * self.value(u + 1) < rem <= z * self.value(u):
                return u
        return None

    def types_of(self, i: float, z: float) -> tuple[int, ...]:
        """All u with z - z*lambda_u <= i <= z - z*lambda_{u+1}; a jump level
        has two."""
        out = []
        for u in range(self.t, self.U + 1):
            if z - z * self.value(u) <= i <= z - z * self.value(u + 1):
                out.append(u)
        return tuple(out)


def lambda_schedule(t: int, U: int, epsilon: float) -> LambdaSchedule:
    if U <= t + 1:
        raise DomainError(f"need U > t+1 (got t={t}, U={U})")
    if t < 1:
        raise DomainError("t must be positive")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    epsilon0 = epsilon / (10.0 * t * t)
    delta_small = epsilon / (10.0 * U)
    lams = [0.0] * (U + 2 - t)
    lams[0] = 1.0
    lams[1] = 1.0 - 1.0 / (2.0 * (t + 1)) + epsilon0
    for u in range(t + 1, U):
        lams[u + 1 - t] = lams[u - t] - t / ((u - 1.0) * (u + 1.0))
    lams[U + 1 - t] = 0.0
    return LambdaSchedule(
        t=t,
        U=U,
        epsilon=epsilon,
        epsilon0=epsilon0,
        delta_small=delta_small,
        lambdas=tuple(lams),
    )


# ----------------------------------------------------------------------
# Embed-or-densify steps


@dataclass(frozen=True)
class HeavySearch:
    """What one horizontal pass of a step searched before it embedded or
    densified: whether heavy edges can exist at all (they need witness rows
    in r distinct blocks, so k >= r), how many there were, how many label
    classes they formed, how many of those the t-partite search examined,
    and whether label_class_cap cut the classes short."""

    possible: bool
    edges: int
    classes: int
    examined: int
    cap_hit: bool

    def to_json_dict(self) -> dict:
        return {
            "heavyPossible": self.possible,
            "heavyEdges": self.edges,
            "labelClasses": self.classes,
            "labelClassesExamined": self.examined,
            "labelClassCapHit": self.cap_hit,
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


def _interval_sizes(cuts: Sequence[int], width: int) -> tuple[int, ...]:
    bounds = (0,) + tuple(cuts) + (width,)
    return tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


def _interval_of_column(cuts: Sequence[int], col: int) -> int:
    """1-based interval index containing 1-based column col."""
    idx = 1
    for c in cuts:
        if col > c:
            idx += 1
    return idx


def _assemble_embedding(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    cuts: Sequence[int],
    label: tuple[int, ...],
    parts: Sequence[Sequence[int]],
    band: int,
) -> Embedding:
    """Explicit copy from an ordered complete t-partite structure whose
    transversals all carry the heavy label: pattern column b goes to the b-th
    smallest vertex of the parts, and pattern row a goes to a witness row
    inside block label[a] for the transversal selecting row a's 1-columns
    (rows with no 1-entry in some interval take any part member there)."""
    verts = sorted(v for part in parts for v in part)
    col_map = tuple(verts)
    t = len(parts)
    row_map = []
    for ai in range(1, a.rows + 1):
        per_interval: list[Optional[int]] = [None] * t
        mask = a.row_masks[ai - 1]
        b = mask
        while b:
            low = b & -b
            col = low.bit_length()
            per_interval[_interval_of_column(cuts, col) - 1] = verts[col - 1]
            b ^= low
        coords = [
            per_interval[c] if per_interval[c] is not None else parts[c][0]
            for c in range(t)
        ]
        need = 0
        for v in coords:
            need |= 1 << (v - 1)
        block = label[ai - 1]
        lo, hi = (block - 1) * band, block * band
        host_row = None
        for i in range(lo, hi):
            if m.row_masks[i] & need == need:
                host_row = i + 1
                break
        if host_row is None:
            raise AssertionError("label class lost its witness row")
        row_map.append(host_row)
    emb = Embedding(row_map=tuple(row_map), col_map=col_map)
    if not verify_embedding(m, a, emb):
        raise AssertionError("assembled certificate failed verification")
    return emb


def _horizontal_step(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    u: int,
    k: int,
    t: int,
    cuts: Sequence[int],
    label_class_cap: int,
    total: Optional[int] = None,
) -> StepResult:
    """total, when given, is the caller's K_{u,t} count of m; the step
    counts it itself otherwise."""
    if k < 1 or m.rows % k:
        raise DivisibilityError(f"{k} does not divide row count {m.rows}")
    if u < 1:
        raise DomainError("u must be positive")
    r = a.rows
    sizes = _interval_sizes(cuts, a.cols)
    band = m.rows // k
    classes = heavy_label_classes(m, t, k, r)
    labels = sorted(classes)
    examined = labels[:label_class_cap]
    found = dict(
        possible=k >= r,
        edges=sum(len(edges) for edges in classes.values()),
        classes=len(labels),
        cap_hit=len(labels) > label_class_cap,
    )
    for i, label in enumerate(examined):
        sub = OrderedHypergraph(n=m.cols, t=t, edges=classes[label])
        parts = find_ordered_complete_t_partite(sub, sizes)
        if parts is None:
            continue
        emb = _assemble_embedding(m, a, cuts, label, parts, band)
        return StepResult(
            kind="embedded",
            embedding=emb,
            label=label,
            heavy=(HeavySearch(examined=i + 1, **found),),
        )
    part = partition(m, k, "horizontal")
    counts = [_count_copies(b, u, t) for b in part.blocks]
    best = max(range(k), key=lambda p: (counts[p], -p))
    if total is None:
        total = _count_copies(m, u, t)
    narrow_total = sum(counts)
    guarantee = counts[best] * 4 * r ** (u - 1) * u**u * k >= math.factorial(u) * total
    lo, hi = part.bounds[best]
    return StepResult(
        kind="densified",
        block=best + 1,
        row_range=(lo, hi),
        col_range=(1, m.cols),
        count=counts[best],
        total=total,
        narrow_total=narrow_total,
        guarantee_met=guarantee,
        heavy=(HeavySearch(examined=len(examined), **found),),
    )


def density_increment_step(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    u: int,
    k: int,
    label_class_cap: int = 10_000,
) -> StepResult:
    """Embed-or-densify over k horizontal blocks. The column-interval count t
    and the interval sizes come from the pattern's minimal column partition;
    the densify guarantee compares the best block's exact K_{u,t} count
    against u!/(4 r^(u-1) u^u) * N/k with exact integer arithmetic."""
    t, cuts = min_column_parts(a)
    return _horizontal_step(m, a, u, k, t, cuts, label_class_cap)


def _refine_cuts(cuts: Sequence[int], width: int, target_parts: int) -> tuple[int, ...]:
    """Refine an interval partition to exactly target_parts nonempty parts by
    repeatedly splitting the leftmost splittable interval."""
    cuts = list(cuts)
    if target_parts > width:
        raise PreconditionError(
            f"cannot split {width} positions into {target_parts} nonempty intervals"
        )
    while len(cuts) + 1 < target_parts:
        bounds = [0] + cuts + [width]
        for i in range(len(bounds) - 1):
            if bounds[i + 1] - bounds[i] >= 2:
                cuts.append(bounds[i] + 1)
                cuts.sort()
                break
    return tuple(cuts)


def symmetric_increment_step(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    k: int,
    label_class_cap: int = 10_000,
    total: Optional[int] = None,
) -> StepResult:
    """Two-direction step for a t x t-partite pattern: a horizontal step on M
    followed by a vertical step (a horizontal step on the transpose) inside
    the chosen block, yielding a grid block whose composed guarantee is
    (t!)^2 / (16 (rs)^(t-1) t^(2t)) * N / k^2. total, when given, is the
    caller's K_{t,t} count of M."""
    if m.rows % k or m.cols % k:
        raise DivisibilityError(f"{k} must divide both dimensions {m.rows}x{m.cols}")
    t_row, row_cuts = min_row_parts(a)
    t_col, col_cuts = min_column_parts(a)
    t = max(t_row, t_col)
    col_cuts = _refine_cuts(col_cuts, a.cols, t) if t_col < t else col_cuts
    row_cuts = _refine_cuts(row_cuts, a.rows, t) if t_row < t else row_cuts
    step1 = _horizontal_step(m, a, t, k, t, col_cuts, label_class_cap, total)
    if step1.kind == "embedded":
        return step1
    p = step1.block
    row_lo, row_hi = step1.row_range
    m1 = m.submatrix(row_lo, row_hi, 1, m.cols)
    # K_{t,t} is symmetric, so the chosen band's count is its transpose's.
    step2 = _horizontal_step(
        m1.transpose(), a.transpose(), t, k, t, row_cuts, label_class_cap, step1.count
    )
    heavy = step1.heavy + step2.heavy
    if step2.kind == "embedded":
        inner = step2.embedding
        emb = Embedding(
            row_map=tuple(v + row_lo - 1 for v in inner.col_map),
            col_map=inner.row_map,
        )
        if not verify_embedding(m, a, emb):
            raise AssertionError("transposed certificate failed verification")
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
            "constants": self.constants.to_json_dict() if self.constants else None,
        }


def run_driver(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    mode: str,
    *,
    k: int,
    depth: Optional[int] = None,
    epsilon: float = 1.0,
    u: Optional[int] = None,
    label_class_cap: int = 10_000,
) -> IncrementTrace:
    """Iterate the increment step, recording per level the exact counts, the
    closed-form threshold checks, stepping-up checks at width jumps, and the
    branch taken. Modes:

      thm21  horizontal blocks only, fixed width u (default t); levels are
             (rows/k^i) x n.
      thm12  grid blocks via the symmetric step; levels are square.
      thm11  horizontal blocks with the width chosen per level by the lambda
             schedule; jumps record the stepping-up bound.

    Stops on a verified embedding, on exhausted depth/divisibility, or when
    the tracked count reaches zero.
    """
    if mode not in ("thm21", "thm12", "thm11"):
        raise InputError(f"unknown driver mode {mode!r}")
    if k < 2:
        raise DomainError("k must be at least 2")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    t_col, col_cuts = min_column_parts(a)
    params = {"k": k, "depth": depth, "epsilon": epsilon, "mode": mode}
    n0, m0 = m.cols, m.rows
    z = math.log(n0) / math.log(k) if n0 > 1 else 0.0

    schedule = None
    if mode == "thm11":
        if t_col < 2:
            raise PreconditionError("schedule driver needs a column partition with t >= 2")
        epsilon0 = epsilon / (10.0 * t_col * t_col)
        cap_u = math.ceil(10.0 * t_col / epsilon0)
        if cap_u > 1_000_000:
            raise DomainError("epsilon too small to materialize the schedule")
        schedule = lambda_schedule(t_col, cap_u, epsilon)
        params["U"] = cap_u

    if mode == "thm12":
        if m.rows != m.cols:
            raise PreconditionError("symmetric driver needs a square host")
        t_sym = max(t_col, min_row_parts(a)[0])
        t_for_constants = t_sym
    else:
        t_sym = None
        t_for_constants = t_col

    u_fixed = u if u is not None else (t_sym if mode == "thm12" else t_col)
    constants = None
    if t_for_constants >= 2:
        constants = make_constants(t_for_constants, a.rows, a.cols, u_fixed, epsilon)

    levels: list[TraceLevel] = []
    embedding = None
    stop_reason = "exhausted"
    cur = m
    row_off = 0
    col_off = 0
    i = 0
    n_base = None  # count at level 0 for the chain bound
    pending_jump: Optional[dict] = None
    # K_{u,t_count} counts of cur already known, by width u: a densified
    # step counted its chosen block, and a jump counted the next width.
    known: dict[int, int] = {}

    while True:
        t_count = t_sym if mode == "thm12" else t_col
        if mode == "thm11":
            u_lvl = schedule.type_of(float(i), z)
            if u_lvl is None:
                stop_reason = "schedule-exhausted"
                break
        else:
            u_lvl = u_fixed
        count = known.get(u_lvl)
        if count is None:
            count = _count_copies(cur, u_lvl, t_count)
        if n_base is None:
            n_base = count

        checks: dict = {}
        if pending_jump is not None:
            checks["jump"] = pending_jump
            pending_jump = None
        rate = 2 + epsilon if mode == "thm12" else 1 + epsilon
        chain = n_base / (k ** (rate * i))
        checks["chainLowerBound"] = chain
        checks["chainHolds"] = count >= chain
        if constants is not None:
            host_dim = cur.rows
            ref = max(
                u_lvl * math.log10(host_dim),
                t_count * math.log10(cur.cols if mode == "thm12" else n0),
            )
            thr_log10 = constants.log10_C + ref
            checks["incrementThresholdLog10"] = thr_log10
            checks["incrementPreconditionHolds"] = (
                count > 0 and math.log10(count) > thr_log10
            )
        if i == 0:
            w = cur.weight
            tt = t_count
            c_small = float(tt) ** (-(tt * tt + tt)) if tt >= 1 else 0.0
            supers = (
                c_small * w ** (tt * tt) / (n0 ** (2 * tt * tt - 2 * tt))
                if w > 0
                else 0.0
            )
            checks["supersaturationLowerBound"] = supers
            checks["supersaturationHolds"] = count >= supers
        if mode != "thm12" and t_count >= 1 and z > 0:
            checkpoint = math.ceil((1 - epsilon / t_count) * z)
            checks["contradictionCheckpointLevel"] = checkpoint
            checks["pastContradictionCheckpoint"] = i >= checkpoint
            checks["rowsBelowEpsPower"] = cur.rows < n0 ** (epsilon / t_count)
        if mode == "thm11":
            checks["lambda"] = schedule.value(u_lvl)
            checks["types"] = list(schedule.types_of(float(i), z))

        row_range = (row_off + 1, row_off + cur.rows)
        col_range = (col_off + 1, col_off + cur.cols)
        base_level = dict(
            level=i,
            row_range=row_range,
            col_range=col_range,
            weight=cur.weight,
            u=u_lvl,
            count=count,
            checks=checks,
        )

        if count == 0:
            levels.append(TraceLevel(branch="exhausted", **base_level))
            stop_reason = "no-copies"
            break
        if depth is not None and i >= depth:
            levels.append(TraceLevel(branch="exhausted", **base_level))
            stop_reason = "depth-reached"
            break
        divisible = (
            cur.rows % k == 0 if mode != "thm12" else (cur.rows % k == 0 and cur.cols % k == 0)
        )
        if not divisible:
            levels.append(TraceLevel(branch="exhausted", **base_level))
            stop_reason = "divisibility"
            break

        if mode == "thm12":
            total = count if u_lvl == t_sym else None
            step = symmetric_increment_step(cur, a, k, label_class_cap, total)
        else:
            step = _horizontal_step(cur, a, u_lvl, k, t_col, col_cuts, label_class_cap, count)
        checks["heavySearch"] = [h.to_json_dict() for h in step.heavy]

        if step.kind == "embedded":
            embedding = step.embedding.shifted(row_off, col_off)
            if not verify_embedding(m, a, embedding):
                raise AssertionError("driver certificate failed against the original host")
            levels.append(TraceLevel(branch="embedded", **base_level))
            stop_reason = "embedded"
            break

        levels.append(
            TraceLevel(
                branch="densified",
                block=step.block,
                guarantee_met=step.guarantee_met,
                **base_level,
            )
        )
        if mode == "thm12":
            rlo, rhi = step.row_range
            clo, chi = step.col_range
            cur = cur.submatrix(rlo, rhi, clo, chi)
            row_off += rlo - 1
            col_off += clo - 1
            # The grid step counts K_{t,t}; its block is the next level.
            known = {t_sym: step.count}
        else:
            rlo, rhi = step.row_range
            cur = cur.submatrix(rlo, rhi, 1, cur.cols)
            row_off += rlo - 1
            known = {u_lvl: step.count}

        if mode == "thm11":
            u_next = schedule.type_of(float(i + 1), z)
            if u_next is not None and u_next > u_lvl:
                sb = stepping_bound(step.count, n0, u_lvl, t_col)
                actual = _count_copies(cur, u_lvl + 1, t_col)
                known[u_lvl + 1] = actual
                pending_jump = {
                    "fromWidth": u_lvl,
                    "toWidth": u_next,
                    "steppingApplicable": sb.applicable,
                    "steppingBound": sb.bound,
                    "steppingHolds": (not sb.applicable) or actual >= sb.bound,
                }
        i += 1

    return IncrementTrace(
        mode=mode,
        params=params,
        levels=levels,
        embedding=embedding,
        stop_reason=stop_reason,
        constants=constants,
    )
