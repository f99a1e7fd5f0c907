"""Exact extremal numbers at desk scale.

ex(n, A) is the maximum weight of an n x n matrix avoiding the pattern A.
Three routes are provided: a brute-force enumerator over all 2^(n^2)
matrices with early containment pruning (the oracle), a row-by-row
branch-and-bound with incremental containment detection through frontier
sets of partial embeddings, pruned by the exact extremal numbers of the
shorter k x n matrices it solves first (the rectangular tail bound), and a
randomized construction (sample, then destroy every copy by deleting one
1-entry) that yields certified A-free lower-bound witnesses. Every record
carries its witness, which re-verifies independently: it is A-free and has
the claimed weight.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BudgetError, DomainError, FormatError, UnsupportedError
from .matrix import ZeroOneMatrix, canonical_key, find_embedding, _greedy_sdr, _search_masks
from .rng import SplitMix64


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


def brute_force_ex(n: int, a: ZeroOneMatrix, cap: int = 25) -> ExtremalRecord:
    """Exact value by depth-first enumeration of all row fillings with early
    containment pruning: a branch dies as soon as its prefix contains the
    pattern (any extension would too). New containment must use the newest
    host row as the image of the pattern's last row, so each node needs one
    pinned search. Hard-capped at n^2 <= cap cells."""
    if n < 1:
        raise DomainError("n must be positive")
    if n * n > cap:
        raise BudgetError(f"brute force capped at {cap} cells, got {n * n}")
    trivial = _trivial_record(n, a, "exhaustive")
    if trivial is not None:
        return trivial
    pat = a.row_masks
    pat_cols = a.cols
    last_row_zero = pat[-1] == 0
    best = -1
    best_rows: Optional[tuple[int, ...]] = None
    prefix: list[int] = []
    weights: list[int] = [0]

    def rec(idx: int):
        nonlocal best, best_rows
        if idx == n:
            w = weights[-1]
            if w > best:
                best = w
                best_rows = tuple(prefix)
            return
        for mask in range(1 << n):
            prefix.append(mask)
            if mask == 0 and not last_row_zero:
                hit = False
            else:
                hit = _search_masks(prefix, n, pat, pat_cols, pin_last=True) is not None
            if not hit:
                weights.append(weights[-1] + mask.bit_count())
                rec(idx + 1)
                weights.pop()
            prefix.pop()

    rec(0)
    return ExtremalRecord(
        pattern_key=canonical_key(a),
        n=n,
        value=best,
        status="exact",
        witness=ZeroOneMatrix(best_rows, n),
        provenance={"solver": "exhaustive", "cap": cap},
    )


class _Frontier:
    """Incremental containment detector: states are (pattern row-prefix
    length, per-pattern-column masks of still-feasible host columns). Adding
    a host row extends every state whose next pattern row fits; a state
    completing all pattern rows with a feasible increasing column assignment
    is a containment."""

    __slots__ = ("pat_bits", "r")

    def __init__(self, a: ZeroOneMatrix):
        self.pat_bits = [
            tuple(j for j in range(a.cols) if (m >> j) & 1) for m in a.row_masks
        ]
        self.r = a.rows

    def advance(self, frontier: frozenset, mask: int) -> Optional[frozenset]:
        """None signals containment; otherwise the grown frontier."""
        new = set(frontier)
        for (p, col_masks) in frontier:
            touched = self.pat_bits[p]
            updated = list(col_masks)
            dead = False
            for j in touched:
                v = updated[j] & mask
                if not v:
                    dead = True
                    break
                updated[j] = v
            if dead:
                continue
            tup = tuple(updated)
            if _greedy_sdr(tup) is None:
                continue
            if p + 1 == self.r:
                return None
            new.add((p + 1, tup))
        return frozenset(new)


def exact_ex(
    n: int, a: ZeroOneMatrix, budget_seconds: Optional[float] = None
) -> ExtremalRecord:
    """Branch-and-bound filling the matrix row by row, run bottom-up over
    heights k = 1..n to compute tail[k] = ex(k x n; A). Containment is
    detected incrementally through frontier sets of partial embeddings. The
    bottom rows of an A-free matrix form an A-free matrix of their own, so
    with r rows left the completion weighs at most tail[r]: each height is
    pruned by the heights solved before it, and the heaviest-first mask
    order lets a row stop its loop at the first mask whose weight plus the
    tail below cannot beat the incumbent. tail[n] is the answer; the
    per-height optima go to provenance["tailBounds"].

    When the pattern has no all-zero row, witnesses are normalized so that
    all-zero rows form a prefix (zero host rows cannot host any pattern row
    and may be moved first without affecting containment). On budget
    exhaustion at height k the best witness found is returned as a lower
    bound: a k-row (or (k-1)-row) witness padded with all-zero top rows
    when the pattern's first row is nonzero, with all-zero bottom rows when
    only its last row is, else the all-zero matrix. The upper bound is the
    open bound on ex(k x n) plus n per row above it; correctness never
    degrades."""
    if n < 1:
        raise DomainError("n must be positive")
    trivial = _trivial_record(n, a, "branch-and-bound")
    if trivial is not None:
        return trivial
    s = a.cols
    detector = _Frontier(a)
    full = (1 << n) - 1
    start_states = frozenset({(0, (full,) * s)})
    mask_order = sorted(range(1 << n), key=lambda m: (-m.bit_count(), m))
    normalize = all(m != 0 for m in a.row_masks)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    tail = [0]
    tail_rows: tuple[int, ...] = ()  # a witness for tail[-1]
    best = -1
    best_rows: Optional[tuple[int, ...]] = None
    rows_sofar: list[int] = []
    nodes = 0
    timed_out = False
    open_bound = -1

    def rec(rows_left: int, frontier: frozenset, weight: int, allow_zero: bool):
        nonlocal best, best_rows, nodes, timed_out, open_bound
        below = tail[rows_left - 1]
        for mask in mask_order:
            bound = weight + mask.bit_count() + below
            if bound <= best:
                return
            if timed_out:
                open_bound = max(open_bound, bound)
                return
            nodes += 1
            if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
                timed_out = True
                open_bound = max(open_bound, bound)
                return
            if mask == 0 and normalize and not allow_zero:
                continue
            nf = detector.advance(frontier, mask)
            if nf is None:
                continue
            rows_sofar.append(mask)
            if rows_left == 1:
                best = bound
                best_rows = tuple(rows_sofar)
            else:
                rec(rows_left - 1, nf, bound - below, allow_zero and mask == 0)
            rows_sofar.pop()

    for k in range(1, n + 1):
        best, best_rows = -1, None
        rec(k, start_states, 0, True)
        if timed_out:
            break
        tail.append(best)
        tail_rows = best_rows
    provenance: dict = {"solver": "branch-and-bound", "nodes": nodes, "tailBounds": tail[1:]}
    if budget_seconds is not None:
        provenance["budgetSeconds"] = budget_seconds
    if timed_out:
        upper = max(best, open_bound) + n * (n - k)
        # A copy in a padded witness must map the pattern's first row to a
        # nonzero host row when that row is nonzero, and every later row
        # below it: zero top rows then keep the witness A-free. Symmetrically
        # for zero bottom rows and a nonzero last row.
        candidates = [(0, (0,) * n)]
        for value, rows in ((best, best_rows), (tail[-1], tail_rows)):
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
    rng = SplitMix64(seed)
    masks = []
    for _ in range(n):
        m = 0
        for j in range(n):
            if rng.bernoulli(p):
                m |= 1 << j
        masks.append(m)
    cur = ZeroOneMatrix(masks, n)
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
    budget_seconds: Optional[float] = None,
    cache=None,
) -> list[ExtremalRecord]:
    """Per-n records, strongest-known-first through the cache; adjacent
    records violating monotonicity (possible only with budget-limited lower
    bounds) are recomputed once."""
    ns = sorted(set(int(n) for n in n_range))

    def compute(n: int) -> ExtremalRecord:
        rec = cache.get(a, n) if cache is not None else None
        if rec is None or rec.status != "exact":
            rec = exact_ex(n, a, budget_seconds)
            if cache is not None:
                rec = cache.put(a, rec)
        return rec

    records = [compute(n) for n in ns]
    for i in range(len(records) - 1):
        if records[i].value > records[i + 1].value:
            records[i] = exact_ex(ns[i], a, budget_seconds)
            records[i + 1] = exact_ex(ns[i + 1], a, budget_seconds)
            if cache is not None:
                records[i] = cache.put(a, records[i])
                records[i + 1] = cache.put(a, records[i + 1])
    return records
