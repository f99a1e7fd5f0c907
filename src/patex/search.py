"""Exact extremal numbers at desk scale.

ex(n, A) is the maximum weight of an n x n matrix avoiding the pattern A.
Three routes are provided: a brute-force enumerator over all 2^(n^2)
matrices with early containment pruning and one weight bound (the oracle),
a row-by-row branch-and-bound with incremental containment detection per
increasing choice of host columns (one int per search state, a lane per
matched-row count; see `_Levels`), and a randomized construction (sample,
then destroy every copy by deleting one 1-entry) that yields certified
A-free lower-bound witnesses. The branch-and-bound has three bounds: the
exact extremal numbers of the shorter k x n matrices it solves first (the
rectangular tail bound); when the pattern has at least two rows and its
last row a single 1-entry (L `11/10`, I3), those of the narrower k x w
matrices (the width bound); and the weight of a node's first admitted row,
which caps every row below it (the row cap). The oracle and the
branch-and-bound detect containment from one lemma in two separate
implementations, and the oracle uses neither the branch-and-bound's two
symmetry rules (sorted rows, and for all-ones patterns double-lex rows and
columns) nor any of its three bounds, so it checks the detector, the rules
and the bounds. The per-width caches `_mask_order`, `_choices` and
`_supersets` hold the search tables that all patterns share.
Every record carries its witness, which re-verifies independently: it is
A-free and has the claimed weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, repeat
from operator import or_
from typing import Iterable, Optional

from .errors import BudgetError, DomainError, FormatError, UnsupportedError
from .matrix import ZeroOneMatrix, canonical_key, find_embedding, random_matrix
from .rng import SplitMix64

# brute_force_ex refuses hosts with more cells than this.
BRUTE_FORCE_CAP = 36


@dataclass
class ExtremalRecord:
    pattern_key: str
    n: int
    value: int
    status: str  # "exact" | "lowerBound"
    witness: ZeroOneMatrix
    provenance: dict

    def to_json_dict(self) -> dict:
        return {
            "patternKey": self.pattern_key,
            "n": self.n,
            "value": self.value,
            "status": self.status,
            "witness": self.witness.to_json_dict(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExtremalRecord":
        try:
            return cls(
                pattern_key=str(doc["patternKey"]),
                n=int(doc["n"]),
                value=int(doc["value"]),
                status=str(doc["status"]),
                witness=ZeroOneMatrix.from_json_dict(doc["witness"]),
                provenance=dict(doc.get("provenance", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad extremal record: {exc}") from exc


def _trivial_record(n: int, a: ZeroOneMatrix, solver: str) -> Optional[ExtremalRecord]:
    """Degenerate cases: a pattern larger than the host can never embed, and
    a pattern of weight zero embeds in anything big enough (so no A-free
    matrix exists and the extremal number is undefined)."""
    if a.rows > n or a.cols > n:
        witness = ZeroOneMatrix.ones(n, n)
        return ExtremalRecord(
            pattern_key=canonical_key(a),
            n=n,
            value=n * n,
            status="exact",
            witness=witness,
            provenance={"solver": solver, "note": "pattern larger than host"},
        )
    if a.weight == 0:
        raise DomainError(
            "every large enough matrix contains an all-zero pattern; "
            "the extremal number is undefined"
        )
    return None


def brute_force_ex(n: int, a: ZeroOneMatrix) -> ExtremalRecord:
    """Exact value by depth-first enumeration of all row fillings with early
    containment pruning: a branch dies as soon as its prefix contains the
    pattern (any extension would too). Hard-capped at n^2 <= BRUTE_FORCE_CAP
    cells. Its one bound is arithmetic: a row holds at most n ones, so with
    masks tried heaviest first, the loop at row idx stops at the first mask
    with weight + |mask| + (n - idx - 1) * n <= best. It uses none of
    `exact_ex`'s sorted rows, double-lex columns, tail bound, width bound and
    row cap.

    Containment is checked without the code of `find_embedding` and
    `exact_ex`, which this oracle checks. For each increasing choice C of
    a.cols host columns, pattern row i needs the host bits need_C[i].
    Matching each pattern row in turn to the earliest later host row that
    covers its bits is optimal, so per C the prefix only records how many
    leading pattern rows it matches: `levels[i]` is the bitset of the
    choices at count i. A new row completes a copy when it covers
    need_C[r-1] for some C at count r-1."""
    if n < 1:
        raise DomainError("n must be positive")
    if n * n > BRUTE_FORCE_CAP:
        raise BudgetError(f"brute force capped at {BRUTE_FORCE_CAP} cells, got {n * n}")
    trivial = _trivial_record(n, a, "exhaustive")
    if trivial is not None:
        return trivial
    r = a.rows
    choices = list(combinations(range(n), a.cols))
    # covers[i][mask]: the choices C whose need_C[i] lies inside mask.
    covers = []
    for pm in a.row_masks:
        needs = [
            sum(1 << col for j, col in enumerate(cols) if (pm >> j) & 1) for cols in choices
        ]
        covers.append(
            [
                sum(1 << c for c, need in enumerate(needs) if not need & ~mask)
                for mask in range(1 << n)
            ]
        )
    completes = covers[-1]
    heaviest_first = sorted(range(1 << n), key=lambda mask: -mask.bit_count())
    best = -1
    best_rows: Optional[tuple[int, ...]] = None
    prefix: list[int] = []

    def rec(idx: int, levels: list[int], weight: int):
        nonlocal best, best_rows
        ready = levels[-1]
        rest = (n - idx - 1) * n
        for mask in heaviest_first:
            w = weight + mask.bit_count()
            if w + rest <= best:
                break
            if completes[mask] & ready:
                continue
            prefix.append(mask)
            if idx + 1 < n:
                grown = list(levels)
                for i in range(r - 2, -1, -1):
                    moved = grown[i] & covers[i][mask]
                    grown[i] ^= moved
                    grown[i + 1] |= moved
                rec(idx + 1, grown, w)
            else:
                best = w
                best_rows = tuple(prefix)
            prefix.pop()

    rec(0, [(1 << len(choices)) - 1] + [0] * (r - 1), 0)
    return ExtremalRecord(
        pattern_key=canonical_key(a),
        n=n,
        value=best,
        status="exact",
        witness=ZeroOneMatrix(best_rows, n),
        provenance={"solver": "exhaustive", "cap": BRUTE_FORCE_CAP},
    )


_MEMO_CAP = 4096  # entries kept by `_Levels.forbidden`


@functools.cache
def _mask_order(w: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The row masks of width w, heaviest first and then by value, with
    their weights."""
    order = tuple(sorted(range(1 << w), key=lambda m: (-m.bit_count(), m)))
    return order, tuple(m.bit_count() for m in order)


@functools.cache
def _choices(w: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Per pattern column j, the j-th bit of each s-of-w column choice."""
    return tuple(zip(*((1 << col for col in cols) for cols in combinations(range(w), s))))


@functools.cache
def _supersets(w: int, need: int) -> tuple[int, ...]:
    """The masks of width w that contain need, ascending."""
    return tuple(mask for mask in range(need, 1 << w) if mask & need == need)


class _Levels:
    """Incremental containment detector for hosts of width w. Fix an
    increasing choice C of a.cols host columns; pattern row i then needs the
    host bits need_C[i]. Matching each pattern row to the earliest later host
    row that covers its need is optimal, so per C a prefix only records how
    many pattern rows it matches. A state is one int of a.rows lanes of
    `lane` bits, one bit per choice: lane i, bits [i * lane, (i + 1) * lane),
    holds the choices whose count is i. A row `mask` completes a copy exactly
    when `covers[-1][mask] & (state >> top)` is nonzero.

    `steps[mask]` places `covers[i][mask]` in lane i for every i below the
    top lane, so `moved = state & steps[mask]` holds the choices that the
    row moves up one lane, and the child state is
    `state + moved * ((1 << lane) - 1)`: each moved bit is cleared and set
    again one lane up. No carry crosses a lane: each choice sits in exactly
    one lane and moves up at most one, so the bit it lands on is clear, and
    nothing moves out of the top lane.

    A row's needs OR the `_choices` bits its 1-entries pick; `_supersets`
    (at most 3^w masks over all needs) spreads each need over `covers`."""

    __slots__ = ("covers", "steps", "singles", "forbidden_memo", "start", "lane", "top")

    def __init__(self, a: ZeroOneMatrix, w: int):
        self.lane = math.comb(w, a.cols)
        self.top = (a.rows - 1) * self.lane
        # covers[i][mask]: the choices whose need for pattern row i lies
        # inside mask; each distinct need is ORed into all its supersets.
        self.covers = []
        by_row: dict[int, list[int]] = {}
        for pm in a.row_masks:
            if pm not in by_row:
                needs: Iterable[int] = repeat(0, self.lane)
                for j, bits in enumerate(_choices(w, a.cols)):
                    if pm >> j & 1:
                        needs = map(or_, needs, bits)
                by_need: dict[int, int] = {}
                for c, need in enumerate(needs):
                    by_need[need] = by_need.get(need, 0) | 1 << c
                cover = by_row[pm] = [0] * (1 << w)
                for need, chosen in by_need.items():
                    for sup in _supersets(w, need):
                        cover[sup] |= chosen
            self.covers.append(by_row[pm])
        # steps by Horner's rule from lane r - 2 down, one comprehension a row
        lane, steps = self.lane, (self.covers[-2] if a.rows > 1 else [0] * (1 << w))
        for cover in self.covers[-3::-1]:
            steps = [step << lane | c for step, c in zip(steps, cover)]
        self.steps = steps
        # (column bit, the choices its single-column row completes)
        self.singles = tuple((1 << c, self.covers[-1][1 << c]) for c in range(w))
        # forbidden() by `ready`: a search asks again and again for few values
        # (609 at most for I3, n = 7, over 11M nodes); emptied when full
        self.forbidden_memo: dict[int, int] = {}
        # every choice at count 0; also the all-ones mask of one lane
        self.start = (1 << self.lane) - 1

    def forbidden(self, ready: int) -> int:
        """The host columns c such that the row holding only c completes a
        copy for some choice in `ready`; given the top lane, those whose row
        completes a copy. When the pattern's last row has a single 1-entry,
        every row holding such a c does."""
        out = self.forbidden_memo.get(ready)
        if out is None:
            if len(self.forbidden_memo) >= _MEMO_CAP:
                self.forbidden_memo.clear()
            out = 0
            for bit, single in self.singles:
                if single & ready:
                    out |= bit
            self.forbidden_memo[ready] = out
        return out


def check_budget(budget_nodes: Optional[int]) -> None:
    """Reject a budget that is not an int >= 0, counted in search nodes; a
    float, such as an old budget in seconds, is refused too."""
    if budget_nodes is not None and (type(budget_nodes) is not int or budget_nodes < 0):
        raise DomainError(f"budget must be a number of search nodes >= 0, got {budget_nodes!r}")


def exact_ex(n: int, a: ZeroOneMatrix, budget_nodes: Optional[int] = None) -> ExtremalRecord:
    """Branch-and-bound filling the matrix row by row, run bottom-up over
    heights k = 1..n to compute tail[k] = ex(k x n; A). Containment is
    detected incrementally per increasing choice of host columns, in one
    int per node: lane i holds the choices that have matched i pattern rows,
    and a child moves those its row advances up one lane (`_Levels`). The
    bottom rows of an A-free matrix form an A-free matrix of their own, so
    with r rows left the completion weighs at most tail[r]: each height is
    pruned by the heights solved before it, and the heaviest-first mask
    order lets a row stop its loop at the first mask whose weight plus the
    tail below cannot beat the incumbent. tail[n] is the answer; the
    per-height optima go to provenance["tailBounds"].

    The width bound applies when the pattern has at least two rows and its
    last row has exactly one 1-entry (L `11/10`, I3 `100/010/001`). A host
    column is forbidden once every row holding it completes a copy. A
    choice's count never drops, so a forbidden column stays forbidden: the
    rows still to be placed sit in the free columns and weigh at most
    ex(rows left x |free|; A), and a node that cannot beat the incumbent by
    that is cut. The cut is decided in the parent, before the child's state
    is built: the parent passes its forbidden set down, and each child ORs
    in only the columns of the choices its row newly makes ready. Per mask
    the cuts run in this order: the weight bound, containment, the column
    order (all-ones patterns), the row cap (first mask kept only), then the
    width bound. Each height k is then solved at every width w = 1..n; at
    height k both cuts read only heights below k, so the order of the widths
    does not matter. provenance["nodes"] sums over all widths. Patterns the
    bound does not cover solve width n only.

    The third bound, the row cap, applies to every pattern. A mask that
    completes a copy under a prefix does so under every longer one, and
    masks run heaviest first, so each row below a node weighs at most the
    node's first admitted mask, and the children start their loops there.

    The search has two symmetry rules. When every row of the pattern is
    equal, containment depends only on the multiset of host rows (any r host
    rows can be taken in increasing order), so witnesses are sorted: each
    row's index in the mask order is at least the previous row's. When the
    pattern is moreover all ones, permuting host columns keeps containment
    too, and witnesses are double-lex (Flener et al., "Breaking row and
    column symmetries in matrix models", CP 2002): their columns are also
    non-increasing, read top-down with 1 > 0. Every host has such an image:
    sorting the rows never raises the sequence of row indices in the mask
    order, and swapping two adjacent columns that are out of order keeps
    every row weight and lowers the first row where they differ, so
    alternating the two ends at a host in both orders. Bit i of `tied` says
    that host columns i and i+1 are equal in every row so far; a mask with
    bit i+1 but not bit i then puts them out of order and is skipped, before
    the row cap: rows stay sorted, so each row below weighs at most the
    first mask kept.

    A budget of N search nodes (budget_nodes) lets the search expand at
    most N nodes, so a budget-limited record is the same on every run and
    its `nodes` is N. On budget exhaustion at height k the best witness
    found is returned as a lower bound: a k-row (or (k-1)-row) witness
    padded with all-zero top rows when the pattern's first row is nonzero,
    with all-zero bottom rows when only its last row is, else the all-zero
    matrix. The upper bound is the open bound on ex(k x n) plus n per row
    above it. When the budget runs out at a width below n, only the
    (k-1)-row width-n witness is padded (an all-zero pattern column could
    embed in added zero columns), and the upper bound is ex((k-1) x n) plus
    n per remaining row; correctness never degrades."""
    if n < 1:
        raise DomainError("n must be positive")
    check_budget(budget_nodes)
    trivial = _trivial_record(n, a, "branch-and-bound")
    if trivial is not None:
        return trivial
    sorted_rows = len(set(a.row_masks)) == 1
    double_lex = sorted_rows and a.row_masks[0] == (1 << a.cols) - 1
    # The width bound reads ex(k x w) for every w <= n; patterns it does not
    # cover solve width n only.
    pin = a.rows >= 2 and a.row_masks[-1].bit_count() == 1
    widths = range(1, n + 1) if pin else (n,)
    detectors = {w: _Levels(a, w) for w in widths}
    tail = [[0] * (n + 1)]  # tail[k][w] = ex(k x w; A) for the widths solved
    tail_rows: tuple[int, ...] = ()  # a witness for tail[-1][n]
    best = -1
    best_rows: Optional[tuple[int, ...]] = None
    rows_sofar: list[int] = []
    nodes = 0
    timed_out = False
    open_bound = -1

    def rec(rows_left: int, state: int, weight: int, start: int, forbidden: int, tied: int):
        nonlocal best, best_rows, nodes, timed_out, open_bound
        tail_below = tail[rows_left - 1]
        below = tail_below[w]
        ready = state >> top
        first = None
        for i in range(start, size):
            row_weight = weight + weights[i]
            if row_weight + below <= best:
                return
            if timed_out or (budget_nodes is not None and nodes >= budget_nodes):
                timed_out = True
                open_bound = max(open_bound, row_weight + below)
                return
            nodes += 1
            mask = mask_order[i]
            if completes[mask] & ready:
                continue
            # `tied and` (here and for the child) spares tied == 0 the mask
            # arithmetic: an `extremal` pass takes 0.00691 s, not 0.00753 s
            if tied and tied & (mask >> 1) & ~mask:
                continue  # double lex: two tied columns would leave their order
            if first is None:
                # the row cap: every mask before this one is dead below too
                first = i
                below = min(below, (rows_left - 1) * weights[i])
                if row_weight + below <= best:
                    return
            if rows_left == 1:
                best = row_weight
                best_rows = (*rows_sofar, mask)
                continue
            moved = state & steps[mask]
            child_forbidden = forbidden
            if pin:
                newly_ready = moved >> below_top
                if newly_ready:
                    child_forbidden |= forbidden_of(newly_ready)
                # the width bound, decided before the child is built
                if row_weight + tail_below[w - child_forbidden.bit_count()] <= best:
                    continue
            rows_sofar.append(mask)
            rec(
                rows_left - 1,
                state + moved * lane_ones,
                row_weight,
                i if sorted_rows else first,
                child_forbidden,
                tied and tied & ~(mask ^ (mask >> 1)),
            )
            rows_sofar.pop()

    for k in range(1, n + 1):
        solved = [0] * (n + 1)
        for w in widths:
            mask_order, weights = _mask_order(w)
            detector = detectors[w]
            size, steps, forbidden_of = len(mask_order), detector.steps, detector.forbidden
            completes, lane_ones = detector.covers[-1], detector.start
            top = detector.top
            below_top = top - detector.lane  # lane r - 2, read on the pin path only
            best, best_rows = -1, None
            rec(k, detector.start, 0, 0, 0, ((1 << w) - 1) >> 1 if double_lex else 0)
            if timed_out:
                break
            solved[w] = best
        if timed_out:
            break
        tail.append(solved)
        tail_rows = best_rows
    provenance: dict = {
        "solver": "branch-and-bound",
        "nodes": nodes,
        "tailBounds": [row[n] for row in tail[1:]],
    }
    if budget_nodes is not None:
        provenance["budgetNodes"] = budget_nodes
    if timed_out:
        if w == n:
            upper = max(best, open_bound) + n * (n - k)
        else:
            # Rows of a narrower width are no witness: an all-zero pattern
            # column could embed in the columns padding would add.
            best, best_rows = -1, None
            upper = tail[-1][n] + n * (n - k + 1)
        # A copy in a padded witness must map the pattern's first row to a
        # nonzero host row when that row is nonzero, and every later row
        # below it: zero top rows then keep the witness A-free. Symmetrically
        # for zero bottom rows and a nonzero last row.
        candidates = [(0, (0,) * n)]
        for value, rows in ((best, best_rows), (tail[-1][n], tail_rows)):
            if rows is None:
                continue
            pad = (0,) * (n - len(rows))
            if a.row_masks[0] or not pad:
                candidates.append((value, pad + rows))
            elif a.row_masks[-1]:
                candidates.append((value, rows + pad))
        best, best_rows = max(candidates)
        provenance["gap"] = upper - best
        provenance["upperBound"] = upper
        status = "lowerBound"
    else:
        status = "exact"
    return ExtremalRecord(
        pattern_key=canonical_key(a),
        n=n,
        value=best,
        status=status,
        witness=ZeroOneMatrix(best_rows, n),
        provenance=provenance,
    )


def deletion_lower_bound(n: int, a: ZeroOneMatrix, seed: int) -> ExtremalRecord:
    """Randomized A-free witness: sample entries with probability
    p = n^(-(r+s-2)/(w-1)) / 2 (the first-moment choice balancing expected
    copies against expected weight), then repeatedly find a copy and delete
    its first mapped 1-entry until none remains. Deterministic given the
    seed; the loop's exit condition is itself the A-freeness verification."""
    if n < 1:
        raise DomainError("n must be positive")
    w = a.weight
    if w < 2:
        raise UnsupportedError(
            "deletion needs a pattern with at least two 1-entries "
            "(below that the extremal number is trivial)"
        )
    exponent = (a.rows + a.cols - 2) / (w - 1)
    p = min(1.0, 0.5 * n ** (-exponent))
    cur = random_matrix(SplitMix64(seed), n, n, p)
    anchor = a.one_entries()[0]
    deletions = 0
    while True:
        emb = find_embedding(cur, a)
        if emb is None:
            break
        cur = cur.with_entry(emb.row_map[anchor[0] - 1], emb.col_map[anchor[1] - 1], 0)
        deletions += 1
    return ExtremalRecord(
        pattern_key=canonical_key(a),
        n=n,
        value=cur.weight,
        status="lowerBound",
        witness=cur,
        provenance={
            "solver": "random-deletion",
            "seed": seed,
            "p": p,
            "deletions": deletions,
        },
    )


def extremal_table(
    a: ZeroOneMatrix,
    n_range: Iterable[int],
    budget_nodes: Optional[int] = None,
    cache=None,
) -> list[ExtremalRecord]:
    """Per-n records, strongest-known-first through the cache, each from one
    exact_ex call at most, each call with budget_nodes search nodes. A
    budget-limited record may be a lower bound, so the values may decrease
    from one n to the next; each record's status says whether it is exact."""
    ns = sorted(set(int(n) for n in n_range))

    def compute(n: int) -> ExtremalRecord:
        rec = cache.get(a, n) if cache is not None else None
        if rec is None or rec.status != "exact":
            rec = exact_ex(n, a, budget_nodes)
            if cache is not None:
                rec = cache.put(a, rec)
        return rec

    return [compute(n) for n in ns]
