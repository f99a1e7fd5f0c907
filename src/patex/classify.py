"""Structural predicates on 0-1 patterns.

Covers interval-partite profiles (minimum number of column or row intervals
such that each line meets every interval in at most one 1-entry), the
permutation / acyclic / cycle tests on the associated bipartite graph, and
the geometry of cycle patterns: x-monotonicity and face winding numbers of
the directed closed curve through the 1-entries.

Every predicate reads the pattern's row and column bit masks directly: the
acyclicity test keeps one column mask per component, and the cycle tour
steps from set bit to set bit, so no adjacency lists or union-find are built.

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
    forest. One pass over the row masks keeps the column mask of each
    component of the rows read so far; a row that meets one component in
    two columns closes a cycle, and otherwise joins every component it meets."""
    parts = []  # disjoint column masks, one per component
    for m in a.row_masks:
        joined, rest = m, []
        for part in parts:
            shared = part & m
            if shared & (shared - 1):
                return False
            if shared:
                joined |= part
            else:
                rest.append(part)
        rest.append(joined)
        parts = rest
    return True


def _cycle_tour(a: ZeroOneMatrix) -> Optional[tuple[tuple[int, int], ...]]:
    """Closed tour over the 1-entries when every nonempty row and column has
    exactly two of them and the bipartite graph is one cycle; None otherwise.
    Empty rows/columns are tolerated here (callers decide whether to allow
    them). The tour starts at the smallest 1-entry and leaves it along its
    row: each step goes to the other set bit of the current row mask, then of
    the current column mask, until it is back at the start."""
    rows, cols = a.row_masks, a.col_masks
    if not a.weight or any(m.bit_count() not in (0, 2) for m in rows + cols):
        return None
    i0 = next(i for i, m in enumerate(rows) if m)
    j0 = (rows[i0] & -rows[i0]).bit_length() - 1
    i, j, tour = i0, j0, []
    while True:
        tour.append((i + 1, j + 1))
        j = (rows[i] ^ 1 << j).bit_length() - 1
        tour.append((i + 1, j + 1))
        i = (cols[j] ^ 1 << i).bit_length() - 1
        if (i, j) == (i0, j0):
            break
    return tuple(tour) if len(tour) == a.weight else None


def is_cycle(a: ZeroOneMatrix) -> bool:
    """Every row and column has exactly two 1-entries (no empty lines) and
    the bipartite graph is a single cycle."""
    return all(a.row_masks) and all(a.col_masks) and _cycle_tour(a) is not None


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

    @property
    def positive(self) -> bool:
        """All face windings share one sign under one of the two orientations."""
        values = self.values()
        return all(v >= 0 for v in values) or all(v <= 0 for v in values)

    def to_json_dict(self) -> dict:
        return {"row0": self.row0, "col0": self.col0, "faces": [list(r) for r in self.faces]}


def winding_profile(a: ZeroOneMatrix) -> WindingProfile:
    """Face windings computed by signed crossings of a rightward horizontal
    ray from each cell center with the directed vertical segments, for the
    orientation of `_cycle_tour`; the other orientation negates every face.
    A cycle has no empty line, so its bounding box is the whole pattern."""
    tour = _cycle_tour(a) if all(a.row_masks) and all(a.col_masks) else None
    if tour is None:
        raise UnsupportedError("winding profile is only defined for cycle patterns")
    # The tour's odd steps run along a column: tour[1] -> tour[2], ..., tour[-1] -> tour[0].
    vsegs = [(c, r1, r2) for (r1, c), (r2, _) in zip(tour[1::2], tour[2::2] + tour[:1])]
    faces = []
    for i in range(1, a.rows):
        row = []
        for j in range(1, a.cols):
            w = 0
            for (c, r1, r2) in vsegs:
                if c >= j + 1 and min(r1, r2) <= i < max(r1, r2):
                    w += 1 if r2 > r1 else -1
            row.append(w)
        faces.append(tuple(row))
    return WindingProfile(row0=1, col0=1, faces=tuple(faces))
