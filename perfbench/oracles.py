"""Output checks that share no code with the kernels they check.

Matrices are read only through their ``row_masks``/``col_masks`` tuples
(bit j-1 = column j, 0-based masks here); every search and count below is
written out independently of ``patex.matrix``, ``patex.search`` and
``patex.count``.
"""

from __future__ import annotations

from math import comb


def weight(masks) -> int:
    return sum(m.bit_count() for m in masks)


def contains(host_rows, host_cols: int, pat_rows, pat_cols: int, band: int = 0) -> bool:
    """Injection enumeration, depth first over the pattern rows: row p goes
    to a host row below the previous one (inside band p when ``band`` is
    set, for proper copies in a balanced host). Per pattern column it keeps
    the host columns carrying a 1 in every host row chosen so far for that
    column's 1-entries and drops a branch once such a set is empty. A full
    row choice is a copy iff taking the leftmost feasible column for each
    pattern column in turn succeeds."""
    r, h = len(pat_rows), len(host_rows)
    if r > h or pat_cols > host_cols or (band and r * band > h):
        return False
    touched = [[j for j in range(pat_cols) if (pat_rows[p] >> j) & 1] for p in range(r)]

    def columns_fit(feasible) -> bool:
        prev = -1
        for f in feasible:
            f &= -1 << (prev + 1)
            if not f:
                return False
            prev = (f & -f).bit_length() - 1
        return True

    def rec(p: int, start: int, feasible) -> bool:
        if p == r:
            return columns_fit(feasible)
        lo, hi = (p * band, (p + 1) * band) if band else (start, h - (r - p) + 1)
        for hr in range(lo, hi):
            row = host_rows[hr]
            nxt = list(feasible)
            for j in touched[p]:
                nxt[j] &= row
                if not nxt[j]:
                    break
            else:
                if rec(p + 1, hr + 1, nxt):
                    return True
        return False

    return rec(0, 0, [(1 << host_cols) - 1] * pat_cols)


def count_kut(masks, width: int, pick: int, other: int) -> int:
    """K_{u,t} copies counted over the given axis: the sum over every
    ``pick``-subset of lines of binom(size of their common support, other),
    skipping subsets whose support is already smaller than ``other``."""
    total = 0
    n = len(masks)

    def rec(start: int, depth: int, common: int) -> None:
        nonlocal total
        if depth == pick:
            total += comb(common.bit_count(), other)
            return
        for i in range(start, n - (pick - depth) + 1):
            nxt = common & masks[i]
            if nxt.bit_count() >= other:
                rec(i + 1, depth + 1, nxt)

    rec(0, 0, (1 << width) - 1)
    return total


def recount(m, u: int, t: int) -> int:
    """K_{u,t} count of ``m`` over the axis ``patex.count`` does not use:
    it iterates u-subsets of rows when binom(rows, u) <= binom(cols, t), so
    this recount iterates t-subsets of columns then, and rows otherwise."""
    if comb(m.rows, u) <= comb(m.cols, t):
        return count_kut(m.col_masks, m.rows, t, u)
    return count_kut(m.row_masks, m.cols, u, t)


def select(masks, rows, cols) -> list[int]:
    """Row masks of the submatrix on 1-based increasing rows and columns."""
    out = []
    for i in rows:
        src = masks[i - 1]
        out.append(sum(1 << jj for jj, j in enumerate(cols) if (src >> (j - 1)) & 1))
    return out


def is_balanced(masks, cols: int, bands: int) -> bool:
    """The rows split into ``bands`` equal bands and every column has the
    same number of 1-entries in each band."""
    if len(masks) % bands:
        return False
    size = len(masks) // bands
    for j in range(cols):
        counts = {sum((masks[b * size + i] >> j) & 1 for i in range(size)) for b in range(bands)}
        if len(counts) > 1:
            return False
    return True
