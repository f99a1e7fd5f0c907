"""Structural predicates on 0-1 patterns.

Covers interval-partite profiles (minimum number of column or row intervals
such that each line meets every interval in at most one 1-entry), the
permutation / acyclic / cycle tests on the associated bipartite graph, and
the geometry of cycle patterns: x-monotonicity and face winding numbers of
the directed closed curve through the 1-entries.

Coordinate convention for the curve: x = column index growing rightward,
y = row index growing downward. Winding positivity is orientation-symmetric
(either orientation of the curve is accepted), which makes the sign
convention immaterial. The winding-number reading of "positive cycle" is an
interpretation fixed by this module: faces are sampled at cell centers and
counted by signed crossings of an axis-parallel ray with the directed
segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import UnsupportedError
from .matrix import ZeroOneMatrix


# ----------------------------------------------------------------------
# Interval-partite profiles


def min_column_parts(a: ZeroOneMatrix) -> tuple[int, tuple[int, ...]]:
    """Minimum number t of column intervals such that every row has at most
    one 1-entry per interval, with the cut positions realizing it (a cut
    after column c separates c from c+1).

    Greedy leftmost cuts are optimal: any valid partition's first interval is
    a prefix, the greedy first interval is the longest valid prefix, and the
    exchange argument then applies inductively.
    """
    used = 0  # rows with a 1-entry in the current interval
    cuts = []
    for j, col in enumerate(a.col_masks):
        if used & col:
            cuts.append(j)
            used = 0
        used |= col
    return len(cuts) + 1, tuple(cuts)


def min_row_parts(a: ZeroOneMatrix) -> tuple[int, tuple[int, ...]]:
    """Row-interval analogue of min_column_parts, computed on the transpose."""
    return min_column_parts(a.transpose())


@dataclass(frozen=True)
class PartiteProfile:
    min_row_parts: int
    min_col_parts: int
    row_cuts: tuple[int, ...]
    col_cuts: tuple[int, ...]

    @property
    def profile(self) -> tuple[int, int]:
        return (self.min_row_parts, self.min_col_parts)


def partite_profile(a: ZeroOneMatrix) -> PartiteProfile:
    tr, rc = min_row_parts(a)
    tc, cc = min_column_parts(a)
    return PartiteProfile(min_row_parts=tr, min_col_parts=tc, row_cuts=rc, col_cuts=cc)


# ----------------------------------------------------------------------
# Graph-shape predicates


def is_permutation(a: ZeroOneMatrix) -> bool:
    return all(m.bit_count() == 1 for m in a.row_masks) and all(
        m.bit_count() == 1 for m in a.col_masks
    )


def is_acyclic(a: ZeroOneMatrix) -> bool:
    """True iff the bipartite graph (rows + columns, edges = 1-entries) is a
    forest. Union-find: a 1-entry closing a component creates a cycle."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in a.one_entries():
        u, v = ("r", i), ("c", j)
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _cycle_tour(a: ZeroOneMatrix) -> Optional[tuple[tuple[int, int], ...]]:
    """Closed tour over the 1-entries when every nonempty row and column has
    exactly two of them and the bipartite graph is one cycle; None otherwise.
    Empty rows/columns are tolerated here (callers decide whether to allow
    them). The tour starts at the smallest 1-entry and leaves it along its
    row."""
    row_cols = {}
    col_rows = {}
    for i, m in enumerate(a.row_masks):
        c = m.bit_count()
        if c == 0:
            continue
        if c != 2:
            return None
        row_cols[i + 1] = [b + 1 for b in range(a.cols) if (m >> b) & 1]
    for j, m in enumerate(a.col_masks):
        c = m.bit_count()
        if c == 0:
            continue
        if c != 2:
            return None
        col_rows[j + 1] = [b + 1 for b in range(a.rows) if (m >> b) & 1]
    if not row_cols:
        return None
    start = min(a.one_entries())
    tour = [start]
    move_along_row = True
    cur = start
    while True:
        i, j = cur
        if move_along_row:
            c1, c2 = row_cols[i]
            cur = (i, c2 if j == c1 else c1)
        else:
            r1, r2 = col_rows[j]
            cur = (r2 if i == r1 else r1, j)
        move_along_row = not move_along_row
        if cur == start:
            break
        tour.append(cur)
    if len(tour) != a.weight:
        return None
    return tuple(tour)


def is_cycle(a: ZeroOneMatrix) -> bool:
    """Every row and column has exactly two 1-entries (no empty lines) and
    the bipartite graph is a single cycle."""
    if any(m.bit_count() == 0 for m in a.row_masks):
        return False
    if any(m.bit_count() == 0 for m in a.col_masks):
        return False
    return _cycle_tour(a) is not None


def _x_monotone_core(a: ZeroOneMatrix) -> bool:
    """Straddle test on the horizontal segments: every vertical line between
    consecutive columns may cross at most two of them."""
    pairs = []
    for m in a.row_masks:
        if m.bit_count() != 2:
            continue
        c1 = (m & -m).bit_length()
        c2 = m.bit_length()
        pairs.append((c1, c2))
    for g in range(1, a.cols):
        crossing = sum(1 for (c1, c2) in pairs if c1 <= g < c2)
        if crossing > 2:
            return False
    return True


def is_x_monotone(a: ZeroOneMatrix) -> bool:
    if not is_cycle(a):
        raise UnsupportedError("x-monotonicity is only defined for cycle patterns")
    return _x_monotone_core(a)


# ----------------------------------------------------------------------
# Winding numbers


@dataclass(frozen=True)
class WindingProfile:
    """Winding number of the directed closed curve around the center of every
    grid cell of the bounding box. faces[i][j] is the winding of the cell
    spanning rows (row0+i, row0+i+1) and columns (col0+j, col0+j+1); cells
    outside the bounding box wind zero."""

    row0: int
    col0: int
    faces: tuple[tuple[int, ...], ...]

    def values(self) -> tuple[int, ...]:
        return tuple(v for row in self.faces for v in row)

    def to_json_dict(self) -> dict:
        return {"row0": self.row0, "col0": self.col0, "faces": [list(r) for r in self.faces]}


def winding_profile(a: ZeroOneMatrix) -> WindingProfile:
    """Face windings computed by signed crossings of a rightward horizontal
    ray from each cell center with the directed vertical segments, for the
    orientation of `_cycle_tour`; the other orientation negates every face."""
    if not is_cycle(a):
        raise UnsupportedError("winding profile is only defined for cycle patterns")
    tour = _cycle_tour(a)
    vsegs = []
    npts = len(tour)
    for idx in range(npts):
        (r1, c1) = tour[idx]
        (r2, c2) = tour[(idx + 1) % npts]
        if c1 == c2:
            vsegs.append((c1, r1, r2))
    rows = [p[0] for p in tour]
    cols = [p[1] for p in tour]
    rmin, rmax = min(rows), max(rows)
    cmin, cmax = min(cols), max(cols)
    faces = []
    for i in range(rmin, rmax):
        row = []
        for j in range(cmin, cmax):
            w = 0
            for (c, r1, r2) in vsegs:
                if c >= j + 1 and min(r1, r2) <= i < max(r1, r2):
                    w += 1 if r2 > r1 else -1
            row.append(w)
        faces.append(tuple(row))
    return WindingProfile(row0=rmin, col0=cmin, faces=tuple(faces))


def is_positive_cycle(a: ZeroOneMatrix) -> bool:
    """All face windings share one sign under one of the two orientations."""
    values = winding_profile(a).values()
    return all(v >= 0 for v in values) or all(v <= 0 for v in values)
