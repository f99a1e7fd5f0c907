"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's search kernels: containment is
checked by enumerating every increasing injection pair, copy counts by
enumerating every (row-subset, column-subset) pair, winding numbers by the
angle-summation point-in-polygon rule. The canonical fixtures, the
containment oracle and the planted increment hosts are the acceptance
suite's own, imported from there.
"""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import settings

from patex.acceptance import (  # noqa: F401 -- fixtures and oracle shared with the suite
    COLUMN_2_PARTITE,
    DOUBLY_2_PARTITE,
    IDENTITY2,
    K22,
    ROW_2_PARTITE,
    SIX_CYCLES_3X3,
    _plant_instance as plant,
    oracle_embedding,
)
from patex.matrix import ZeroOneMatrix, random_matrix  # noqa: F401 -- shared sampler
from patex.rng import SplitMix64

# Settings for every property test: fixed examples, no example database.
BOUNDED = settings(max_examples=300, deadline=2000, derandomize=True, database=None)


def oracle_count_copies(m: ZeroOneMatrix, u: int, t: int) -> int:
    """Copy count by enumerating every (u rows, t columns) pair."""
    total = 0
    for rows in combinations(range(1, m.rows + 1), u):
        for cols in combinations(range(1, m.cols + 1), t):
            if all(m.entry(i, j) for i in rows for j in cols):
                total += 1
    return total


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


@pytest.fixture
def rng():
    return SplitMix64(0xACE)
