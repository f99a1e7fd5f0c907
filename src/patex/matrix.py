"""Dense 0-1 matrices and ordered pattern containment with certificates.

A matrix M contains a pattern A when strictly increasing row and column
injections map every 1-entry of A onto a 1-entry of M; the pair of injections
is the certificate (an Embedding) and can be checked independently of how it
was found: `embedding_violation` names the first condition it breaks. Every
certificate that a construction builds passes one gate, `certified`, which
raises AssertionError quoting that violation. Rows are stored as integer
bitmasks (bit j-1 = column j), which is an internal representation choice
only: the public API and all serialized formats are 1-based grids.

One backtracking walk, `_find_copy`, builds every containment certificate
and returns it as an Embedding. `find_embedding` runs it over all host rows;
given bands, one 1-based inclusive host-row range per pattern row, it finds
banded copies, such as the proper copies of the cycle embedder and the
increment step's copy with row a in block label[a]. In both modes an
all-zero pattern row takes only its first admissible host row.

Read a matrix as a bipartite graph with an edge (row i, column j) per
1-entry. When A's edges form one connected graph, every copy of A lies in a
single component of M's graph, which therefore has at least as many rows
and columns as A has nonzero rows and columns. Before the walk,
`find_embedding` looks for such a component with one pass over M's row
masks; when there is none it answers None. The test can only answer
"absent", so every certificate still comes from the walk.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import FormatError, InputError
from .rng import SplitMix64


class ZeroOneMatrix:
    """Immutable rectangular 0-1 matrix with cached weight.

    Treat instances as frozen: every operation returns a new matrix. Row
    masks are the stored form; the column masks (bit i-1 = row i) are derived
    the first time `col_masks` is read. A contiguous `submatrix` is a shift
    and a mask per row, and per column too when the parent's column masks
    are cached; `select` gathers bits for non-contiguous picks.
    """

    __slots__ = ("rows", "cols", "row_masks", "_col_masks", "weight")

    def __init__(self, row_masks: Sequence[int], cols: int):
        row_masks = tuple(int(m) for m in row_masks)
        if not row_masks or cols < 1:
            raise FormatError("matrix needs at least one row and one column")
        full = (1 << cols) - 1
        for m in row_masks:
            if m < 0 or m & ~full:
                raise FormatError("row mask exceeds the declared column count")
        self.rows = len(row_masks)
        self.cols = cols
        self.row_masks = row_masks
        self._col_masks = None
        self.weight = sum(m.bit_count() for m in row_masks)

    @property
    def col_masks(self) -> tuple[int, ...]:
        if self._col_masks is None:
            col_masks = [0] * self.cols
            for i, m in enumerate(self.row_masks):
                while m:
                    low = m & -m
                    col_masks[low.bit_length() - 1] |= 1 << i
                    m ^= low
            self._col_masks = tuple(col_masks)
        return self._col_masks

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def ones(cls, rows: int, cols: int) -> "ZeroOneMatrix":
        return cls([(1 << cols) - 1] * rows, cols)

    @classmethod
    def parse(cls, text: str) -> "ZeroOneMatrix":
        """Parse the pattern text format: one row of 0/1 characters per line,
        blank lines and lines starting with '#' ignored, whitespace inside a
        line allowed."""
        masks = []
        cols = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            line = "".join(line.split())
            bad = set(line) - {"0", "1"}
            if bad:
                raise FormatError(f"invalid characters in pattern line: {sorted(bad)}")
            if cols is None:
                cols = len(line)
            elif len(line) != cols:
                raise FormatError("ragged pattern: rows of unequal length")
            # Column 1 is the lowest bit. The character check above must come
            # first: int() would also accept "1_0" and "0b1".
            masks.append(int(line[::-1], 2))
        if cols is None:
            raise FormatError("pattern has no data lines")
        return cls(masks, cols)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ZeroOneMatrix":
        try:
            rows, cols, data = int(doc["rows"]), int(doc["cols"]), list(doc["data"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad matrix document: {exc}") from exc
        if len(data) != rows:
            raise FormatError("matrix document row count mismatch")
        if not all(isinstance(line, str) for line in data):
            raise FormatError("matrix document rows must be strings")
        m = cls.parse("\n".join(data))
        if m.rows != rows or m.cols != cols:
            raise FormatError("matrix document dimension mismatch")
        return m

    # ------------------------------------------------------------------
    # Accessors (1-based)

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise InputError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return (self.row_masks[i - 1] >> (j - 1)) & 1

    def row_strings(self) -> tuple[str, ...]:
        return tuple(_row_string(m, self.cols) for m in self.row_masks)

    def one_entries(self) -> tuple[tuple[int, int], ...]:
        """All 1-entry positions as 1-based (row, col), row-major order."""
        out = []
        for i, m in enumerate(self.row_masks):
            while m:
                low = m & -m
                out.append((i + 1, low.bit_length()))
                m ^= low
        return tuple(out)

    def col_weight(self, j: int) -> int:
        return self.col_masks[j - 1].bit_count()

    # ------------------------------------------------------------------
    # Derived matrices

    def transpose(self) -> "ZeroOneMatrix":
        t = ZeroOneMatrix(self.col_masks, self.rows)
        t._col_masks = self.row_masks
        return t

    def submatrix(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> "ZeroOneMatrix":
        """Contiguous submatrix, 1-based inclusive bounds."""
        if not (1 <= row_lo <= row_hi <= self.rows and 1 <= col_lo <= col_hi <= self.cols):
            raise InputError("submatrix bounds out of range")
        shift, window = col_lo - 1, (1 << (col_hi - col_lo + 1)) - 1
        sub = ZeroOneMatrix(
            [(m >> shift) & window for m in self.row_masks[row_lo - 1 : row_hi]],
            col_hi - col_lo + 1,
        )
        if self._col_masks is not None:
            # The same window along the other axis, so `transpose()` and
            # `col_masks` of the result need not rebuild them bit by bit.
            shift, window = row_lo - 1, (1 << (row_hi - row_lo + 1)) - 1
            sub._col_masks = tuple((c >> shift) & window for c in self._col_masks[col_lo - 1 : col_hi])
        return sub

    def select(self, rows: Iterable[int], cols: Iterable[int]) -> "ZeroOneMatrix":
        """Submatrix from strictly increasing 1-based row/column index lists."""
        rows = list(rows)
        cols = list(cols)
        if not rows or not cols:
            raise InputError("empty selection")
        if any(rows[i] >= rows[i + 1] for i in range(len(rows) - 1)) or any(
            cols[j] >= cols[j + 1] for j in range(len(cols) - 1)
        ):
            raise InputError("selections must be strictly increasing")
        if rows[0] < 1 or rows[-1] > self.rows or cols[0] < 1 or cols[-1] > self.cols:
            raise InputError("selection out of range")
        masks = []
        for i in rows:
            src = self.row_masks[i - 1]
            mask = 0
            for jj, j in enumerate(cols):
                if (src >> (j - 1)) & 1:
                    mask |= 1 << jj
            masks.append(mask)
        return ZeroOneMatrix(masks, len(cols))

    def with_entry(self, i: int, j: int, value: int) -> "ZeroOneMatrix":
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise InputError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        masks = list(self.row_masks)
        if value:
            masks[i - 1] |= 1 << (j - 1)
        else:
            masks[i - 1] &= ~(1 << (j - 1))
        return ZeroOneMatrix(masks, self.cols)

    # ------------------------------------------------------------------
    # Serialization

    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": list(self.row_strings())}

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZeroOneMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_masks == other.row_masks
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_masks))

    def __repr__(self) -> str:
        return f"ZeroOneMatrix({self.rows}x{self.cols}, weight={self.weight})"


def _row_string(mask: int, cols: int) -> str:
    """A row mask as 0/1 text, column 1 (the lowest bit) first."""
    return format(mask, "b").zfill(cols)[::-1]


def canonical_key(a: ZeroOneMatrix) -> str:
    """Stable digest keyed on the exact entries: equal matrices share a key,
    any single-entry change produces a different serialization (and hence a
    different digest). The digest is memoized, in a bounded LRU cache, on
    the entries themselves, so equal matrices share one computation."""
    return _canonical_key(a.rows, a.cols, a.row_masks)


@functools.lru_cache(maxsize=1024)
def _canonical_key(rows: int, cols: int, row_masks: tuple[int, ...]) -> str:
    payload = f"{rows}x{cols}|" + "|".join(_row_string(m, cols) for m in row_masks)
    digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    return f"{rows}x{cols}-{digest[:40]}"


def random_matrix(rng: SplitMix64, rows: int, cols: int, p: float) -> ZeroOneMatrix:
    """Each entry is 1 with probability p, drawn row by row and left to right
    within a row. The draws, their order and the generator's final state are
    those of rows * cols calls of `rng.bernoulli(p)` in that order; every
    seeded output in patex depends on this stream."""
    return ZeroOneMatrix([rng.bernoulli_mask(cols, p) for _ in range(rows)], cols)


# ----------------------------------------------------------------------
# Containment


@dataclass(frozen=True)
class Embedding:
    """Certificate of containment: strictly increasing injections from the
    pattern's rows and columns into the host's (1-based)."""

    row_map: tuple[int, ...]
    col_map: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"rowMap": list(self.row_map), "colMap": list(self.col_map)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Embedding":
        try:
            return cls(tuple(int(x) for x in doc["rowMap"]), tuple(int(x) for x in doc["colMap"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad embedding document: {exc}") from exc

    def shifted(self, row_offset: int, col_offset: int) -> "Embedding":
        return Embedding(
            tuple(r + row_offset for r in self.row_map),
            tuple(c + col_offset for c in self.col_map),
        )


def _find_copy(
    m: ZeroOneMatrix, a: ZeroOneMatrix, bands: Optional[Sequence[tuple[int, int]]] = None
) -> Optional[Embedding]:
    """Backtracking kernel over pattern rows, top-down; per pattern column it
    keeps the bitmask of still-feasible host columns. Mapping pattern row p
    onto a host row keeps, in each column where row p has a 1, only the host
    columns where that host row has a 1. The host row is rejected as soon as
    such a column empties, or when no strictly increasing column assignment
    remains: the leftmost one takes per column the least feasible host column
    above the previous pick, and greedy is optimal, since the smallest pick
    never hurts later columns. Pattern row p tries the host rows of
    `bands[p]`, a 1-based inclusive range; the bands must be increasing and
    disjoint. Without bands, row p tries every row that leaves room for the
    rows below it. An all-zero pattern row tries only its first admissible
    host row: it leaves the state unchanged, and the earliest row leaves the
    most room below. Exhaustive: returns the lexicographically least
    certificate (row map first, then column map), or None, also when A
    outsizes M."""
    r = a.rows
    host_masks = m.row_masks
    touched = _touched_columns(a.row_masks)
    row_map = [0] * r

    def rec(p: int, h_start: int, col_masks: list[int]) -> Optional[Embedding]:
        if p == r:
            # The loop below checked that the leftmost increasing columns exist.
            col_map, above = [], -1
            for cm in col_masks:
                cm &= above
                low = cm & -cm
                col_map.append(low.bit_length())
                above = -(low << 1)
            return Embedding(tuple(row_map), tuple(col_map))
        lo, hi = bands[p] if bands is not None else (h_start, m.rows - (r - p) + 1)
        cols = touched[p]
        if not cols:
            hi = min(hi, lo)
        for hr in range(lo, hi + 1):
            row_mask = host_masks[hr - 1]
            updated = list(col_masks)
            for j in cols:
                v = updated[j] & row_mask
                if not v:
                    break
                updated[j] = v
            else:  # no touched column emptied
                above = -1
                for cm in updated:
                    cm &= above
                    if not cm:
                        break
                    above = -((cm & -cm) << 1)
                else:  # the leftmost increasing columns exist
                    row_map[p] = hr
                    res = rec(p + 1, hr + 1, updated)
                    if res is not None:
                        return res
        return None

    return rec(0, 1, [(1 << m.cols) - 1] * a.cols)


@functools.lru_cache(maxsize=1024)
def _touched_columns(row_masks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per pattern row, the 0-based pattern columns holding a 1; memoized
    per distinct pattern."""
    return tuple(tuple(j for j in range(pm.bit_length()) if pm >> j & 1) for pm in row_masks)


@functools.lru_cache(maxsize=1024)
def _component_gate(row_masks: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """(r', s'), the pattern's nonzero row and column counts, when its
    1-entries form one connected bipartite graph; None otherwise, and for
    the all-zero pattern. Memoized per distinct pattern."""
    masks = [pm for pm in row_masks if pm]
    if not masks:
        return None
    union = 0
    for pm in masks:
        union |= pm
    r, s = len(masks), union.bit_count()
    return (r, s) if _has_component(masks, r, s) else None


def _has_component(row_masks: Sequence[int], rows: int, cols: int) -> bool:
    """True when the bipartite graph of the 1-entries (rows on one side,
    columns on the other) has a component with at least `rows` rows and
    `cols` columns. One pass over the rows: each row merges with the open
    components its columns meet, newest first, and stops looking once every
    column it shares with earlier rows is accounted for; the scan returns
    at the first component that is large enough."""
    comps = []  # (column mask, row count) per open component, oldest first
    seen = 0  # the union of their column masks
    for rm in row_masks:
        if not rm:
            continue
        joined, count = rm, 1
        shared, k = rm & seen, len(comps)
        while shared:
            k -= 1
            cm, cr = comps[k]
            if cm & shared:
                del comps[k]
                joined |= cm
                count += cr
                shared &= ~cm
        if count >= rows and joined.bit_count() >= cols:
            return True
        comps.append((joined, count))
        seen |= rm
    return False


def find_embedding(m: ZeroOneMatrix, a: ZeroOneMatrix) -> Optional[Embedding]:
    """Exhaustive containment search; returns the lexicographically least
    certificate (row map first, then column map) or None when M does not
    contain A.

    Component lemma: when A's 1-entries form one connected bipartite graph
    (A's all-zero rows and columns aside), a copy maps them into a single
    component of M's graph, which then has at least A's r' nonzero rows and
    s' nonzero columns. If no component of M is that large the answer is
    None without the walk. The test reads only `m.row_masks` and can only
    answer "absent"; otherwise `_find_copy` runs unchanged.

    The pattern-side facts are computed once per distinct pattern, in
    bounded LRU caches keyed on A's row masks: whether A is connected with
    its r' and s' (`_component_gate`), and each pattern row's touched
    columns (`_touched_columns`, read by `_find_copy`). Every host-side
    step runs on every call."""
    gate = _component_gate(a.row_masks)
    if gate is not None and not _has_component(m.row_masks, *gate):
        return None
    return _find_copy(m, a)


def embedding_violation(m: ZeroOneMatrix, a: ZeroOneMatrix, e: Embedding) -> Optional[str]:
    """First violated certificate condition as a diagnostic, or None."""
    if len(e.row_map) != a.rows:
        return f"row map has {len(e.row_map)} entries, pattern has {a.rows} rows"
    if len(e.col_map) != a.cols:
        return f"col map has {len(e.col_map)} entries, pattern has {a.cols} columns"
    for name, mapping, hi in (("row", e.row_map, m.rows), ("col", e.col_map, m.cols)):
        prev = 0
        for v in mapping:
            if not (1 <= v <= hi):
                return f"{name} map value {v} outside 1..{hi}"
            if v <= prev:
                return f"{name} map not strictly increasing at value {v}"
            prev = v
    for (i, j) in a.one_entries():
        if not m.entry(e.row_map[i - 1], e.col_map[j - 1]):
            return (
                f"pattern 1-entry ({i},{j}) lands on 0-entry "
                f"({e.row_map[i - 1]},{e.col_map[j - 1]})"
            )
    return None


def verify_embedding(m: ZeroOneMatrix, a: ZeroOneMatrix, e: Embedding) -> bool:
    return embedding_violation(m, a, e) is None


def certified(m: ZeroOneMatrix, a: ZeroOneMatrix, e: Embedding) -> Embedding:
    """The certificate gate of the constructions: e when it is a copy of A
    in M, else AssertionError quoting `embedding_violation`. A construction
    that builds a wrong certificate is a bug, never an answer."""
    why = embedding_violation(m, a, e)
    if why is not None:
        raise AssertionError(f"certificate failed verification: {why}")
    return e
