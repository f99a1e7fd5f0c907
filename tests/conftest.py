"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's search kernels: containment is
checked by enumerating every increasing injection pair (or row choice from
given bands), copy counts by enumerating every (row-subset, column-subset)
pair, the bipartite graph of a pattern by a depth-first search over its
edge list, winding numbers by the angle-summation point-in-polygon rule.
The canonical fixtures, the containment and copy-count oracles and the
planted increment hosts are the acceptance suite's own, imported from there.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from patex.acceptance import (  # noqa: F401 -- fixtures and oracles shared with the suite
    COLUMN_2_PARTITE,
    DOUBLY_2_PARTITE,
    IDENTITY2,
    K22,
    ROW_2_PARTITE,
    SIX_CYCLES_3X3,
    _plant_instance as plant,
    oracle_count_copies,
    oracle_embedding,
)
from patex.matrix import ZeroOneMatrix, random_matrix  # noqa: F401 -- shared sampler
from patex.rng import SplitMix64

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))  # the golden-file renderers

# Settings for every property test: fixed examples, no example database.
BOUNDED = settings(max_examples=300, deadline=2000, derandomize=True, database=None)

# An epsilon or c with no finite, positive float, which a report could not write.
NO_FLOAT = [
    math.nan,
    math.inf,
    pytest.param(Fraction(10**400), id="10^400"),
    pytest.param(Fraction(1, 10**400), id="10^-400"),
    pytest.param(Fraction(10**5000), id="10^5000"),
]


def graph_oracle(m):
    """(edges, vertices, components, degrees) of the bipartite graph whose
    vertices are the rows and columns holding a 1-entry and whose edges are
    the 1-entries, by a plain depth-first search over an edge list; each
    component is given as its (rows, columns) count."""
    edges = [(("r", i), ("c", j)) for i in range(1, m.rows + 1) for j in range(1, m.cols + 1) if m.entry(i, j)]
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    seen, components = set(), []
    for root in degree:
        if root in seen:
            continue
        stack, members = [root], [root]
        seen.add(root)
        while stack:
            x = stack.pop()
            for u, v in edges:
                y = v if u == x else u if v == x else None
                if y is not None and y not in seen:
                    seen.add(y)
                    stack.append(y)
                    members.append(y)
        rows = sum(side == "r" for side, _ in members)
        components.append((rows, len(members) - rows))
    return len(edges), len(degree), components, degree


def oracle_winding(tour, y: float, x: float) -> int:
    """Winding number of the closed tour around (x, y) by summed signed
    angles; tour points are (row, col) with x = col, y = row."""
    total = 0.0
    pts = [(c, r) for (r, c) in tour]
    for i in range(len(pts)):
        ax, ay = pts[i][0] - x, pts[i][1] - y
        bx, by = pts[(i + 1) % len(pts)][0] - x, pts[(i + 1) % len(pts)][1] - y
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return round(total / (2 * math.pi))


def bernoulli_calls(rng: SplitMix64, count: int, p: float) -> int:
    """Bit j set when the j-th of `count` rng.bernoulli(p) calls succeeds:
    the per-draw reference that `bernoulli_mask` and `random_matrix` must
    reproduce."""
    mask = 0
    for j in range(count):
        if rng.bernoulli(p):
            mask |= 1 << j
    return mask


@pytest.fixture
def rng():
    return SplitMix64(0xACE)
