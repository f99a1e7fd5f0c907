"""Cycle-pattern machinery: r-balanced hosts, proper embeddings of x-monotone
cycles, the dense-or-balanced dichotomy, its weight-doubling driver, and
exhaustive enumeration of cycle patterns.

A host is r-balanced when its rows split into r equal bands and every column
has the same number of 1-entries in each band; a proper copy of an r-row
pattern sends row j into band j. The embedder is the banded mode of
`_find_copy`, the exhaustive walk that `find_embedding` uses, so it has no
false negatives and returns the least proper certificate. All-zero rows and
columns of the pattern are legal: a zero row takes the first row of its band
and the greedy column assignment places zero columns. The dichotomy's
balanced branch reads the band counts and the truncated columns straight off
the host's column masks and builds its matrix once, by transposing them.
The embedder's and the driver's certificates pass the `certified` gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

from .classify import _cycle_tour, _x_monotone_core, is_cycle
from .errors import DivisibilityError, DomainError, PreconditionError
from .increment import IncrementTrace, TraceLevel, _as_written
from .matrix import Embedding, ZeroOneMatrix, _find_copy, certified


# ----------------------------------------------------------------------
# Balance


def _band_counts(m: ZeroOneMatrix, r: int, j: int) -> tuple[int, ...]:
    band = m.rows // r
    mask = m.col_masks[j - 1]
    window = (1 << band) - 1
    return tuple(((mask >> (i * band)) & window).bit_count() for i in range(r))


def balance_violation(m: ZeroOneMatrix, r: int) -> Optional[str]:
    """Diagnostic for why the host is not r-balanced, or None if it is."""
    if r < 1:
        return f"band count {r} is not positive"
    if m.rows % r:
        return f"{r} does not divide row count {m.rows}"
    for j in range(1, m.cols + 1):
        counts = _band_counts(m, r, j)
        if len(set(counts)) > 1:
            return f"column {j} has unequal band counts {counts}"
    return None


# ----------------------------------------------------------------------
# Proper embedding of x-monotone cycles


def _require_xmonotone_cycle(a: ZeroOneMatrix) -> None:
    if _cycle_tour(a) is None:
        raise PreconditionError("pattern is not a cycle")
    if not _x_monotone_core(a):
        raise PreconditionError("pattern is not x-monotone")


def embed_xmonotone_balanced(m: ZeroOneMatrix, a: ZeroOneMatrix) -> Optional[Embedding]:
    """Proper embedding of an x-monotone cycle pattern into an r-balanced
    host (r = pattern rows): row j of the pattern lands in band j. This is
    the banded mode of `_find_copy`, the walk behind `find_embedding`,
    with band j as row j's host-row range; an all-zero pattern row takes the
    first row of its band, and the leftmost increasing columns place every
    column, zero columns included. The walk is exhaustive, so it returns the
    lexicographically least proper certificate (row map first, then column
    map), passed through `certified`, or None when no proper copy exists; above weight
    r*s*sqrt(m)*n a copy always exists."""
    _require_xmonotone_cycle(a)
    r = a.rows
    why = balance_violation(m, r)
    if why is not None:
        raise PreconditionError(f"host is not {r}-balanced: {why}")
    band = m.rows // r
    emb = _find_copy(m, a, [(p * band + 1, (p + 1) * band) for p in range(r)])
    return None if emb is None else certified(m, a, emb)


# ----------------------------------------------------------------------
# Dense-or-balanced dichotomy


@dataclass
class DichotomyResult:
    """Either an (n/k) x (n/k) submatrix assembled from heavy column-blocks
    of one band ("dense"), or an (nr/k) x m r-balanced matrix obtained by
    stacking r bands and truncating every column to its minimum band count
    over them, keeping the topmost 1-entries of the column in each band
    ("balanced"). Index lists are absolute 1-based positions in the input;
    the balanced branch may additionally zero entries, so its matrix is
    dominated by (not equal to) the input restriction."""

    branch: str
    matrix: ZeroOneMatrix
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]
    weight: int
    r: int
    weight_precondition_held: bool
    invariant_holds: bool
    details: dict


def dense_or_balanced(
    m: ZeroOneMatrix, r_meta: int, s_meta: int, k: int, c: Union[float, Fraction]
) -> DichotomyResult:
    """Constructive case split on an n x n host of weight >= c*n^(3/2):
    delete light columns (< c*sqrt(n)/2 ones), classify column-blocks sparse
    or dense with alpha = 1/(2k), columns imbalanced (fewer than r dense
    blocks) or balanced, and extract the branch carrying at least half the
    surviving weight. A host with no heavy column goes through the same
    dense rule: band 1 and the first n/k columns. Runs for any k and any
    c > 0; flags record whether the weight precondition and the branch
    invariant actually held. Each of them, and the light cut, compares an
    integer with c times a square root, so it is decided squared, in
    integers, with c read as the decimal it was written as."""
    if m.rows != m.cols:
        raise PreconditionError("dichotomy needs a square host")
    n = m.rows
    if k < 1 or n % k:
        raise DivisibilityError(f"{k} does not divide {n}")
    if r_meta < 1 or s_meta < 1:
        raise DomainError("pattern dimensions must be positive")
    p, q = (_as_written(c, "c") ** 2).as_integer_ratio()  # c^2 = p/q
    w = m.weight
    precondition = w * w * q >= p * n**3  # w >= c n^(3/2)
    band = n // k
    light_threshold = c * math.sqrt(n) / 2.0
    # A kept column has weight s >= c sqrt(n)/2: the least such s has 4 s^2 q >= p n.
    heavy = math.isqrt(p * n // (4 * q))
    heavy += 4 * heavy * heavy * q < p * n
    weights = {j: s_c for j in range(1, n + 1) if (s_c := m.col_weight(j)) >= heavy}
    details: dict = {
        "alpha": 1.0 / (2 * k),
        "lightThreshold": light_threshold,
        "survivingColumns": len(weights),
    }
    counts = {j: _band_counts(m, k, j) for j in weights}
    surviving_weight = sum(weights.values())
    # dense block test: count >= s_c / (2k), exact in integers
    dense_idx = {
        j: [i for i in range(k) if counts[j][i] * 2 * k >= weights[j]]
        for j in weights
    }
    imbalanced = [j for j in weights if len(dense_idx[j]) < r_meta]
    balanced = [j for j in weights if len(dense_idx[j]) >= r_meta]
    imb_weight = sum(weights[j] for j in imbalanced)
    bal_weight = surviving_weight - imb_weight
    details["imbalancedWeight"] = imb_weight
    details["balancedWeight"] = bal_weight

    if imb_weight * 2 >= surviving_weight:
        # dense case: per imbalanced column its heaviest dense block (one
        # exists: the heaviest band holds >= s_c/k >= s_c/(2k) ones), then
        # the band covering the most of that weight
        heavy_block = {}
        for j in imbalanced:
            heavy_block[j] = max(dense_idx[j], key=lambda i: (counts[j][i], -i))
        score = [0] * k
        for j, i in heavy_block.items():
            score[i] += counts[j][i]
        i_star = max(range(k), key=lambda i: (score[i], -i))
        group = sorted(
            (j for j in imbalanced if heavy_block[j] == i_star),
            key=lambda j: (-counts[j][i_star], j),
        )
        chosen = group[:band]
        if len(chosen) < band:
            # pad with unchosen heavy columns first, then light ones
            taken = set(chosen)
            pool = [j for j in weights if j not in taken]
            pool += [j for j in range(1, n + 1) if j not in weights]
            chosen += pool[: band - len(chosen)]
        chosen = sorted(chosen)
        rows = tuple(range(i_star * band + 1, (i_star + 1) * band + 1))
        sub = m.select(rows, chosen)
        return DichotomyResult(
            branch="dense",
            matrix=sub,
            row_indices=rows,
            col_indices=tuple(chosen),
            weight=sub.weight,
            r=r_meta,
            weight_precondition_held=precondition,
            invariant_holds=k**3 * sub.weight**2 * q >= 4 * p * n**3,  # >= 2c (n/k)^(3/2)
            details={**details, "case": 1, "band": i_star + 1},
        )

    # balanced case: group columns by their r strongest dense blocks and keep
    # the heaviest group
    groups: dict = {}
    for j in balanced:
        picked = sorted(
            sorted(dense_idx[j], key=lambda i: (-counts[j][i], i))[:r_meta]
        )
        groups.setdefault(tuple(picked), []).append(j)
    best_set = max(groups, key=lambda key: (sum(weights[j] for j in groups[key]), tuple(-x for x in key)))
    rows = []
    for i in best_set:
        rows.extend(range(i * band + 1, (i + 1) * band + 1))
    rows = tuple(rows)
    cols = tuple(weights)
    # truncate every column to its minimum band count, keeping the topmost
    # 1-entries of each picked band, so the result is exactly r-balanced
    window = (1 << band) - 1
    trunc_cols = []
    for j in cols:
        keep = min(counts[j][i] for i in best_set)
        col = 0
        for b, i in enumerate(best_set):
            x = (m.col_masks[j - 1] >> (i * band)) & window
            for _ in range(keep):
                low = x & -x
                col |= low << (b * band)
                x ^= low
        trunc_cols.append(col)
    result = ZeroOneMatrix(trunc_cols, len(rows)).transpose()
    m_cols = result.cols
    target = r_meta * s_meta * math.sqrt(m_cols) * (n * r_meta / k)
    ok = (
        balance_violation(result, r_meta) is None
        and (k * result.weight) ** 2 >= (r_meta**2 * s_meta * n) ** 2 * m_cols
    )
    return DichotomyResult(
        branch="balanced",
        matrix=result,
        row_indices=rows,
        col_indices=cols,
        weight=result.weight,
        r=r_meta,
        weight_precondition_held=precondition,
        invariant_holds=ok,
        details={**details, "case": 2, "bands": [i + 1 for i in best_set], "weightTarget": target},
    )


# ----------------------------------------------------------------------
# Driver


def cycle_driver(
    m: ZeroOneMatrix,
    a: ZeroOneMatrix,
    k: int,
    c: float,
    depth: Optional[int] = None,
) -> IncrementTrace:
    """Alternate the dichotomy and the balanced embedder: a dense branch
    descends into the extracted (n/k) x (n/k) matrix with the weight target
    doubled, a balanced branch attempts the proper embedding. Returns a
    trace whose final level is an embedding, a failed balanced attempt, or
    exhaustion; the embedding, when found, passes `certified` against the
    original host. weightHolds is decided squared, like the dichotomy's flags."""
    if k < 2:
        raise DomainError("k must be at least 2")
    if depth is not None and depth < 0:
        raise DomainError(f"depth must be at least 0, got {depth}")
    c_exact = _as_written(c, "c")
    _require_xmonotone_cycle(a)
    if m.rows != m.cols:
        raise PreconditionError("driver needs a square host")
    r, s = a.rows, a.cols
    n0 = m.rows
    p, q = (c_exact**2).as_integer_ratio()
    rows_abs = list(range(1, m.rows + 1))
    cols_abs = list(range(1, m.cols + 1))
    cur = m
    levels: list[TraceLevel] = []
    embedding = None
    i = 0
    while True:
        threshold = (2**i) * c * (n0 / k**i) ** 1.5
        checks = {
            "weightThreshold": threshold,
            "weightHolds": k ** (3 * i) * cur.weight**2 * q >= 4**i * p * n0**3,
            "rowIndices": list(rows_abs),
            "colIndices": list(cols_abs),
        }
        base = dict(
            level=i,
            row_range=(rows_abs[0], rows_abs[-1]),
            col_range=(cols_abs[0], cols_abs[-1]),
            weight=cur.weight,
            u=None,
            count=None,
            checks=checks,
        )
        if depth is not None and i >= depth:
            stop_reason = "depth-reached"
        elif cur.rows % k:
            stop_reason = "divisibility"
        elif cur.rows < k * r:
            stop_reason = "host-too-small"
        else:
            stop_reason = None
        if stop_reason is not None:
            levels.append(TraceLevel(branch="exhausted", **base))
            break
        res = dense_or_balanced(cur, r, s, k, c_exact * 2**i)
        checks["preconditionHeld"] = res.weight_precondition_held
        checks["invariantHolds"] = res.invariant_holds
        checks["branchWeight"] = res.weight
        if res.branch == "balanced":
            emb_local = embed_xmonotone_balanced(res.matrix, a)
            stop_reason = "balanced-embed-failed"
            if emb_local is not None:
                embedding = certified(m, a, Embedding(
                    row_map=tuple(rows_abs[res.row_indices[v - 1] - 1] for v in emb_local.row_map),
                    col_map=tuple(cols_abs[res.col_indices[v - 1] - 1] for v in emb_local.col_map),
                ))
                stop_reason = "embedded"
            levels.append(TraceLevel(branch="balanced", **base))
            break
        levels.append(TraceLevel(branch="dense", **base))
        rows_abs = [rows_abs[v - 1] for v in res.row_indices]
        cols_abs = [cols_abs[v - 1] for v in res.col_indices]
        cur = res.matrix
        i += 1
    return IncrementTrace(
        mode="cycle",
        params={"k": k, "c": c, "depth": depth},
        levels=levels,
        embedding=embedding,
        stop_reason=stop_reason,
    )


# ----------------------------------------------------------------------
# Enumeration


def enumerate_cycles(length: int) -> list[ZeroOneMatrix]:
    """All L x L patterns (L = length/2) with exactly two 1-entries per row
    and per column whose bipartite graph is a single cycle of the given even
    length, in lexicographic order of their row strings."""
    if length < 4 or length % 2:
        raise DomainError("cycle length must be an even number >= 4")
    side = length // 2
    out: list[ZeroOneMatrix] = []
    col_counts = [0] * side
    masks: list[int] = []

    def rec(i: int):
        if i == side:
            mat = ZeroOneMatrix(list(masks), side)
            if is_cycle(mat):
                out.append(mat)
            return
        for (x, y) in combinations(range(side), 2):
            if col_counts[x] >= 2 or col_counts[y] >= 2:
                continue
            col_counts[x] += 1
            col_counts[y] += 1
            masks.append((1 << x) | (1 << y))
            rec(i + 1)
            masks.pop()
            col_counts[x] -= 1
            col_counts[y] -= 1

    rec(0)
    out.sort(key=lambda mat: mat.row_strings())
    return out
