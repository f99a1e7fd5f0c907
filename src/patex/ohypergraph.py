"""Ordered t-uniform hypergraphs on column sets.

The hypergraph of a host matrix has the columns as ordered vertices; a t-set
of columns is an edge when one row carries a 1 in all t of them, and the
label map records which horizontal blocks contain such a witness row; the
heavy edges (witnesses in at least r blocks) can also be grouped by label
straight from the column masks, without building the whole hypergraph. On top
of that sit t-cut sampling with exact cut probabilities, and the exhaustive
search for an ordered complete t-partite sub-hypergraph (parts of prescribed
sizes, each part entirely before the next, every transversal an edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence, Union

from .errors import DivisibilityError, DomainError, InputError
from .matrix import ZeroOneMatrix
from .rng import SplitMix64


@dataclass(frozen=True)
class OrderedHypergraph:
    """t-uniform hypergraph on ordered vertices 1..n; edges are sorted
    t-tuples."""

    n: int
    t: int
    edges: frozenset

    def __post_init__(self):
        t, n = self.t, self.n
        steps = range(1, t)
        for e in self.edges:
            if len(e) != t or (t and not (1 <= e[0] and e[-1] <= n)):
                raise InputError(f"edge {e} is not a {t}-tuple in 1..{n}")
            for i in steps:
                if e[i - 1] >= e[i]:
                    raise InputError(f"edge {e} is not strictly increasing")


@dataclass
class LabelMap:
    """phi(e) = set of horizontal block indices containing a witness row for
    edge e. Heavy labels (the r smallest members of phi) are derived via
    classify_edge."""

    phi: dict


@dataclass(frozen=True)
class EdgeClass:
    kind: str  # "light" | "heavy"
    label: Optional[tuple[int, ...]]


def build_column_hypergraph(
    m: ZeroOneMatrix, t: int, k: int
) -> tuple[OrderedHypergraph, LabelMap]:
    """Edges are t-sets of columns sharing a witness row; phi(e) collects the
    horizontal blocks (k equal row bands) holding such a row."""
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
    phi = {e: frozenset(v) for e, v in phi.items()}
    graph = OrderedHypergraph(n=m.cols, t=t, edges=frozenset(phi))
    return graph, LabelMap(phi=phi)


def classify_edge(label_map: LabelMap, e: Sequence[int], r: int) -> EdgeClass:
    """Light when |phi(e)| < r; otherwise heavy, labeled with the r smallest
    block indices of phi(e) (a deterministic choice)."""
    key = tuple(sorted(e))
    if key not in label_map.phi:
        raise InputError(f"unknown edge {key}")
    blocks = label_map.phi[key]
    if len(blocks) < r:
        return EdgeClass(kind="light", label=None)
    return EdgeClass(kind="heavy", label=tuple(sorted(blocks)[:r]))


def heavy_label_classes(
    m: ZeroOneMatrix, t: int, k: int, r: int
) -> dict[tuple[int, ...], frozenset]:
    """The heavy edges of the column hypergraph over k row bands, grouped by
    label: {label: edges}, equal to classifying every edge of
    build_column_hypergraph(m, t, k) with classify_edge and dropping the
    light ones. Column t-sets are enumerated depth-first over the column
    masks; a branch ends once its common rows meet fewer than r bands, since
    adding columns only shrinks that set. No edge is heavy when r > k."""
    if t < 1 or r < 1:
        raise DomainError("t and r must be positive")
    if k < 1 or m.rows % k:
        raise DivisibilityError(f"{k} does not divide row count {m.rows}")
    if r > k:
        return {}
    band = m.rows // k
    cols = m.col_masks
    n = m.cols
    classes: dict[tuple[int, ...], list] = {}
    edge: list[int] = []

    def rec(start: int, depth: int, rows: int):
        leaf = depth == t - 1
        for c in range(start, n - t + depth + 1):
            common = rows & cols[c]
            # The first r bands the common rows meet, lowest first.
            label = []
            x = common
            while x and len(label) < r:
                b = ((x & -x).bit_length() - 1) // band
                label.append(b + 1)
                x &= -1 << ((b + 1) * band)
            if len(label) < r:
                continue
            edge.append(c + 1)
            if leaf:
                classes.setdefault(tuple(label), []).append(tuple(edge))
            else:
                rec(c + 1, depth + 1, common)
            edge.pop()

    rec(0, 0, (1 << m.rows) - 1)
    return {label: frozenset(edges) for label, edges in classes.items()}


# ----------------------------------------------------------------------
# t-cuts


@dataclass(frozen=True)
class TCut:
    """Cut points i_1..i_{t-1} in [n] defining consecutive parts
    {1..i_1}, {i_1+1..i_2}, ..., {i_{t-1}+1..n}. Points are stored as drawn;
    a non-increasing tuple is degenerate and cuts no edge (only strictly
    increasing windows can satisfy the membership rule)."""

    n: int
    t: int
    points: tuple[int, ...]

    def is_proper(self) -> bool:
        return all(self.points[i] < self.points[i + 1] for i in range(len(self.points) - 1))

    def parts(self) -> tuple[tuple[int, int], ...]:
        if not self.is_proper():
            raise DomainError("degenerate cut has no part decomposition")
        lo = 1
        out = []
        for p in self.points:
            out.append((lo, p))
            lo = p + 1
        out.append((lo, self.n))
        return tuple(out)


def cut_probability(e: Sequence[int], n: int) -> Fraction:
    """Exact probability that independently uniform cut points cut the edge:
    the product of (x_{j+1} - x_j)/n over consecutive vertices."""
    e = tuple(e)
    if any(not (1 <= v <= n) for v in e):
        raise InputError(f"edge {e} outside 1..{n}")
    if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
        raise InputError(f"edge {e} must be strictly increasing")
    p = Fraction(1)
    for a, b in zip(e, e[1:]):
        p *= Fraction(b - a, n)
    return p


def random_t_cut(n: int, t: int, rng: SplitMix64) -> TCut:
    """t-1 cut points drawn independently and uniformly from [1, n]. On the
    event that an edge is cut the points are automatically increasing, and
    exhaustive counting over all n^(t-1) tuples reproduces cut_probability
    exactly."""
    if t < 1:
        raise DomainError("t must be positive")
    if n < t - 1:
        raise DomainError(f"need n >= t-1 (got n={n}, t={t})")
    return TCut(n=n, t=t, points=tuple(rng.below(n) + 1 for _ in range(t - 1)))


def cut_cuts_edge(cut: TCut, e: Sequence[int]) -> bool:
    """The j-th smallest vertex must lie in the j-th part: with i_0 = 0 and
    i_t = n, require i_{j-1} < x_j <= i_j for every j."""
    xs = sorted(e)
    if len(xs) != cut.t:
        raise InputError(f"edge arity {len(xs)} does not match cut arity {cut.t}")
    bounds = (0,) + cut.points + (cut.n,)
    return all(bounds[j] < xs[j] <= bounds[j + 1] for j in range(cut.t))


def edges_cut(h: OrderedHypergraph, cut: TCut) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(e for e in h.edges if cut_cuts_edge(cut, e)))


# ----------------------------------------------------------------------
# Ordered complete t-partite search


def find_ordered_complete_t_partite(
    h: OrderedHypergraph, s: Union[int, Sequence[int]]
) -> Optional[tuple[tuple[int, ...], ...]]:
    """Exhaustive search for parts V_1..V_t with |V_i| = s (or the i-th entry
    of a size vector), max(V_i) < min(V_{i+1}), and every transversal t-tuple
    an edge. Returns the lexicographically least witness or None; no false
    negatives at any size, intended for desk-scale n."""
    sizes = tuple([s] * h.t if isinstance(s, int) else s)
    if len(sizes) != h.t or any(x < 1 for x in sizes):
        raise DomainError(f"need {h.t} positive part sizes, got {sizes}")
    if not h.edges:
        return None
    edges = h.edges
    t = h.t
    suffix_need = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        suffix_need[i] = suffix_need[i + 1] + sizes[i]

    chosen: list[tuple[int, ...]] = []

    def prefixes() -> list[tuple[int, ...]]:
        return [tuple(p) for p in product(*chosen)]

    def rec(part_idx: int, min_start: int) -> Optional[tuple]:
        pool_hi = h.n - suffix_need[part_idx + 1]
        if part_idx == t - 1:
            # Last part separates per vertex: v joins iff every prefix
            # transversal extended by v is an edge.
            pref = prefixes()
            cand = [
                v
                for v in range(min_start, pool_hi + 1)
                if all(p + (v,) in edges for p in pref)
            ]
            if len(cand) < sizes[part_idx]:
                return None
            return tuple(chosen) + (tuple(cand[: sizes[part_idx]]),)
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
    to separate rare cut patterns."""

    n: int
    t: int
    s: int
    delta: float
    gamma: float
    threshold: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "s": self.s,
            "delta": self.delta,
            "gamma": self.gamma,
            "threshold": self.threshold,
        }


def avoidance_threshold(n: int, t: int, s: int) -> AvoidanceThreshold:
    if n <= 0 or t <= 0 or s <= 0:
        raise DomainError("n, t, s must be positive")
    delta = 1.0 / (t * s ** (t - 1))
    gamma = (t - 1.0) / (t * s ** (t - 1))
    return AvoidanceThreshold(
        n=n, t=t, s=s, delta=delta, gamma=gamma, threshold=2.0 * n ** (t - delta)
    )
