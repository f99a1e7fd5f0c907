"""Ordered t-uniform hypergraphs on the columns of a host matrix.

The columns are the ordered vertices 1..n. A t-set of columns is an edge
when one row carries a 1 in all t of them, and its label is the set of
horizontal blocks that hold such a witness row. An edge is heavy when it has
witnesses in at least r blocks. heavy_label_classes groups the heavy edges
by their r smallest blocks straight from the row and column masks, each
class as a completion map from (t-1)-prefixes to the bitmask of the last
columns that complete them; it is the one form a label class takes in the
library. It walks the column prefixes depth-first, and each prefix's loop
labels the next columns of every prefix one longer: band by band over the
bands that still hold a common row, it ORs that band's rows into a reach,
so a column's label is the first r bands whose reach holds it, drops a
group of columns once too few bands remain to finish its label, and stops
once no group is left. Labels stay band bitmasks until the classes are
returned. build_column_hypergraph lists every edge with its blocks and is
kept as the reference for that grouping. A random t-cut of [n] is t-1
uniform points; cut_probability gives the exact chance that one cuts an
edge (puts its j-th vertex in the j-th part) and cut_hits counts the hits
over seeded trials, the one sampler of the library. Last comes the
exhaustive search of a completion map for an ordered complete t-partite
sub-hypergraph (parts of prescribed sizes, each part entirely before the
next, every transversal an edge).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from .count import _display
from .errors import DivisibilityError, DomainError, InputError
from .matrix import ZeroOneMatrix
from .rng import SplitMix64


def build_column_hypergraph(
    m: ZeroOneMatrix, t: int, k: int
) -> dict[tuple[int, ...], frozenset]:
    """The whole column hypergraph over k row bands as its label map
    {edge: blocks}: the edges are the increasing t-tuples of columns that
    share a witness row, and each maps to the horizontal blocks (k equal
    row bands, numbered from 1) that hold such a row. It lists every edge,
    light or heavy, and is the reference heavy_label_classes is checked
    against."""
    if t < 1:
        raise DomainError("t must be positive")
    if k < 1 or m.rows % k:
        raise DivisibilityError(f"{k} does not divide row count {m.rows}")
    band = m.rows // k
    phi: dict = {}
    for i, mask in enumerate(m.row_masks):
        if mask.bit_count() < t:
            continue
        cols = [b + 1 for b in range(m.cols) if (mask >> b) & 1]
        block = i // band + 1
        for e in combinations(cols, t):
            phi.setdefault(e, set()).add(block)
    return {e: frozenset(v) for e, v in phi.items()}


def heavy_label_classes(
    m: ZeroOneMatrix, t: int, k: int, r: int
) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """The heavy edges of the column hypergraph over k row bands, grouped by
    label: {label: completion map}, where the map sends each (t-1)-prefix of
    a heavy edge to the bitmask (bit v = column v) of the last columns that
    complete it. Expanded to edges, the classes equal grouping the edges of
    build_column_hypergraph(m, t, k) that have at least r blocks by their r
    smallest blocks. Column prefixes are extended depth-first, and each
    prefix's loop labels the next columns of every child prefix: it walks
    the prefix's common rows band by band (only the bands that hold one),
    keeps those in the child's new column, ORs their row masks into that
    band's reach, and splits the candidate columns into (label, columns)
    groups by whether the reach holds them. A group is dropped once fewer
    of those bands remain than its label still needs, and the band loop
    stops when no group is left. A prefix is extended only by columns whose
    common rows still meet r bands, since adding columns only shrinks that
    set; a (t-1)-prefix's groups go straight into its classes. Labels are
    band bitmasks until they are returned. No edge is heavy when r > k."""
    if t < 1 or r < 1:
        raise DomainError("t and r must be positive")
    if k < 1 or m.rows % k:
        raise DivisibilityError(f"{k} does not divide row count {m.rows}")
    n = m.cols
    if r > k or t > n:
        return {}
    band = m.rows // k
    row_masks = m.row_masks
    cols = m.col_masks
    found: dict[int, dict[tuple[int, ...], int]] = {}

    def split(bands, col: int, cand: int) -> list[tuple[int, int]]:
        """[(label, columns)] for the labels among cand when the common rows
        are those of `bands` ((band bit, rows) pairs in band order) that lie
        in col."""
        left = len(bands)
        groups = [(0, r, cand)]  # (label so far, bands it still needs, columns)
        done = []
        for bit, x in bands:
            left -= 1
            x &= col
            if not x:
                continue
            reach = 0
            while x:
                low = x & -x
                reach |= row_masks[low.bit_length() - 1]
                x ^= low
            nxt = []
            for group in groups:
                label, need, g = group
                hit = g & reach
                if hit:
                    if need == 1:
                        done.append((label | bit, hit))
                    elif need <= left + 1:
                        nxt.append((label | bit, need - 1, hit))
                    if left >= need and hit != g:
                        nxt.append((label, need, g ^ hit))
                elif left >= need:
                    nxt.append(group)
            if not nxt:
                break
            groups = nxt
        return done

    def rec(prefix: tuple[int, ...], bands, done) -> None:
        # Extend prefix (common rows split as `bands`) by each column done
        # holds; the children at depth t - 1 are labelled and recorded here.
        depth = len(prefix) + 1
        tail = (1 << (n - t + depth + 1)) - 1
        union = 0
        for _, hit in done:
            union |= hit
        while union:
            low = union & -union
            c = low.bit_length() - 1
            union ^= low
            cand = tail & (-1 << (c + 1))
            if depth == t - 1:
                labelled = split(bands, cols[c], cand)
                if labelled:
                    edge_prefix = prefix + (c + 1,)
                    for label, hit in labelled:
                        completions = found.get(label)
                        if completions is None:
                            found[label] = {edge_prefix: hit << 1}
                        else:
                            completions[edge_prefix] = hit << 1
            else:
                col = cols[c]
                sub = [(bit, x) for bit, y in bands if (x := y & col)]
                labelled = split(sub, -1, cand)
                if labelled:
                    rec(prefix + (c + 1,), sub, labelled)

    full = (1 << band) - 1
    bands = [(1 << b, full << (b * band)) for b in range(k)]
    labelled = split(bands, -1, (1 << (n - t + 1)) - 1)
    if t == 1:
        found = {label: {(): hit << 1} for label, hit in labelled}
    elif labelled:
        rec((), bands, labelled)
    classes = {}
    for label, completions in found.items():
        blocks = []
        while label:
            low = label & -label
            blocks.append(low.bit_length())
            label ^= low
        classes[tuple(blocks)] = completions
    return classes


# ----------------------------------------------------------------------
# t-cuts


def _checked_edge(e: Sequence[int], n: int) -> tuple[int, ...]:
    e = tuple(e)
    if any(not (1 <= v <= n) for v in e):
        raise InputError(f"edge {e} outside 1..{n}")
    if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
        raise InputError(f"edge {e} must be strictly increasing")
    return e


def cut_probability(e: Sequence[int], n: int) -> Fraction:
    """Exact probability that independently uniform cut points cut the edge:
    the product of (x_{j+1} - x_j)/n over consecutive vertices."""
    e = _checked_edge(e, n)
    p = Fraction(1)
    for a, b in zip(e, e[1:]):
        p *= Fraction(b - a, n)
    return p


def _within_three_sigma(hits: int, trials: int, p: Fraction) -> bool:
    """|hits/trials - p| <= 3 sqrt(p(1-p)/trials), squared and exact."""
    return (hits - trials * p) ** 2 <= 9 * trials * p * (1 - p)


def cut_hits(e: Sequence[int], n: int, trials: int, rng: SplitMix64) -> int:
    """How many of `trials` random t-cuts of [n] cut the edge x_1 < ... < x_t.
    A cut is t-1 points i_1..i_{t-1}, each rng.below(n) + 1, drawn in order
    and all drawn even after a miss; it cuts the edge when
    x_j <= i_j < x_{j+1} for every j, so the hit rate estimates
    cut_probability(e, n). A 1-vertex edge is cut by every trial and draws
    nothing."""
    e = _checked_edge(e, n)
    # x_j <= below(n) + 1 < x_{j+1}, shifted to compare the raw draw.
    gaps = [(a - 1, b - 1) for a, b in zip(e, e[1:])]
    below = rng.below
    hits = 0
    for _ in range(trials):
        hit = True
        for lo, hi in gaps:
            if not lo <= below(n) < hi:
                hit = False
        hits += hit
    return hits


# ----------------------------------------------------------------------
# Ordered complete t-partite search


def find_ordered_complete_t_partite(
    n: int, sizes: Sequence[int], completions: dict[tuple[int, ...], int]
) -> Optional[tuple[tuple[int, ...], ...]]:
    """Exhaustive search over vertices 1..n for parts V_1..V_t with
    |V_i| = sizes[i], max(V_i) < min(V_{i+1}), and every transversal t-tuple
    an edge of the completion map (as heavy_label_classes builds it). Returns
    the lexicographically least witness or None; no false negatives at any
    size, intended for desk-scale n."""
    if not sizes or any(x < 1 for x in sizes):
        raise DomainError(f"need {len(sizes)} positive part sizes, got {tuple(sizes)}")
    if not completions:
        return None
    t = len(sizes)
    suffix_need = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        suffix_need[i] = suffix_need[i + 1] + sizes[i]
    chosen: list[tuple[int, ...]] = []

    def rec(part_idx: int, min_start: int) -> Optional[tuple]:
        pool_hi = n - suffix_need[part_idx + 1]
        if part_idx == t - 1:
            # Last part separates per vertex: v joins iff every prefix
            # transversal extended by v is an edge.
            cand = ((1 << (pool_hi + 1)) - 1) & (-1 << min_start)
            for p in product(*chosen):
                cand &= completions.get(p, 0)
                if not cand:
                    return None
            if cand.bit_count() < sizes[part_idx]:
                return None
            part = []
            for _ in range(sizes[part_idx]):
                low = cand & -cand
                part.append(low.bit_length() - 1)
                cand ^= low
            return tuple(chosen) + (tuple(part),)
        for combo in combinations(range(min_start, pool_hi + 1), sizes[part_idx]):
            chosen.append(combo)
            res = rec(part_idx + 1, combo[-1] + 1)
            if res is not None:
                return res
            chosen.pop()
        return None

    return rec(0, 1)


@dataclass(frozen=True)
class AvoidanceThreshold:
    """Edge-count threshold 2*n^(t-delta) with delta = 1/(t*s^(t-1)) above
    which an ordered complete t-partite sub-hypergraph with parts of size s
    is unavoidable; gamma = (t-1)/(t*s^(t-1)) is the companion exponent used
    to separate rare cut patterns. A threshold past the float range is inf."""

    n: int
    t: int
    s: int
    delta: float
    gamma: float
    threshold: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def avoidance_threshold(n: int, t: int, s: int) -> AvoidanceThreshold:
    if n <= 0 or t <= 0 or s <= 0:
        raise DomainError("n, t, s must be positive")
    delta = 1.0 / (t * s ** (t - 1))
    gamma = (t - 1.0) / (t * s ** (t - 1))
    threshold = _display(
        lambda: 2.0 * n ** (t - delta), lambda: math.log(2.0) + (t - delta) * math.log(n)
    )
    return AvoidanceThreshold(n=n, t=t, s=s, delta=delta, gamma=gamma, threshold=threshold)
