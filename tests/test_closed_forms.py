"""Closed forms as second sources for extremal values.

The identity pattern I_k has ex(n; I_k) = (k-1)(2n-k+1).

- Witness: the first k-1 rows and the first k-1 columns all ones. Along a
  copy of I_k both coordinates of the p-th 1-entry are at least p, so the
  k-th 1-entry would lie outside the witness.
- Upper bound: group the 1-entries by the length p of the longest
  increasing chain that ends at them. Class p lies in an (n-p+1)-square and
  holds no increasing pair, so it has at most 2(n-p+1) - 1 entries; sum over
  p = 1..k-1.

K22 has z(n; 2) = (q+1)n at n = q^2 + q + 1 for a prime power q (Reiman
1958). The tests take q prime, so GF(q) is arithmetic mod q.

- Witness: the line-point incidence matrix of the projective plane PG(2, q).
  Every line holds q + 1 points and two lines share exactly one point, so
  no two rows share two columns.
- Upper bound: in a K22-free matrix each pair of columns lies in at most one
  row, so the row degrees d_i satisfy sum binom(d_i, 2) <= binom(n, 2). By
  convexity the balanced split of the ones minimizes that sum; it equals
  binom(n, 2) at (q+1)n ones and exceeds it at one more.

The witnesses are built with plain list code and checked pattern-free by
find_embedding and, where it is quick, by the enumerating oracle; exact_ex is
pinned to the formula wherever it finishes quickly.
"""

from math import comb

import pytest

from conftest import K22, oracle_embedding
from patex.matrix import ZeroOneMatrix, find_embedding
from patex.search import exact_ex

SIZES = [(2, n) for n in range(2, 7)] + [(3, n) for n in range(3, 7)] + [(4, n) for n in (4, 5)]


def identity(k: int) -> ZeroOneMatrix:
    return ZeroOneMatrix([1 << i for i in range(k)], k)


def identity_ex(n: int, k: int) -> int:
    return (k - 1) * (2 * n - k + 1)


def identity_witness(n: int, k: int) -> ZeroOneMatrix:
    return ZeroOneMatrix([(1 << (n if i < k - 1 else k - 1)) - 1 for i in range(n)], n)


@pytest.mark.parametrize("k, n", SIZES)
def test_identity_witness_is_pattern_free_at_the_formula(k, n):
    w = identity_witness(n, k)
    assert w.weight == identity_ex(n, k)
    assert find_embedding(w, identity(k)) is None
    assert oracle_embedding(w, identity(k)) is None


@pytest.mark.parametrize("k, n", SIZES)
def test_exact_ex_matches_the_identity_formula(k, n):
    rec = exact_ex(n, identity(k))
    assert rec.status == "exact"
    assert rec.value == identity_ex(n, k)


def plane_incidence(q: int) -> ZeroOneMatrix:
    """Lines (rows) against points (columns) of PG(2, q), q prime. Points and
    lines are the nonzero vectors of GF(q)^3 whose first nonzero coordinate
    is 1; a point lies on a line when their dot product is 0 mod q."""
    vectors = [
        (a, b, c)
        for a in range(q)
        for b in range(q)
        for c in range(q)
        if (a, b, c) != (0, 0, 0) and [x for x in (a, b, c) if x][0] == 1
    ]
    return ZeroOneMatrix(
        [
            sum(1 << j for j, point in enumerate(vectors) if sum(x * y for x, y in zip(line, point)) % q == 0)
            for line in vectors
        ],
        len(vectors),
    )


def balanced_pair_count(n: int, weight: int) -> int:
    """sum binom(d_i, 2) over the balanced split of `weight` ones into n rows,
    the least value any split takes."""
    d, extra = divmod(weight, n)
    return (n - extra) * comb(d, 2) + extra * comb(d + 1, 2)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_plane_incidence_is_k22_free_with_q_plus_one_ones_per_line(q):
    n = q * q + q + 1
    w = plane_incidence(q)
    assert (w.rows, w.cols) == (n, n)
    assert w.weight == (q + 1) * n
    assert find_embedding(w, K22) is None
    if q <= 3:
        assert oracle_embedding(w, K22) is None


@pytest.mark.parametrize("q", [2, 3, 5])
def test_counting_bound_allows_no_more_than_q_plus_one_per_line(q):
    n = q * q + q + 1
    assert balanced_pair_count(n, (q + 1) * n) == comb(n, 2)
    assert balanced_pair_count(n, (q + 1) * n + 1) > comb(n, 2)


def test_exact_ex_matches_the_plane_at_seven():
    rec = exact_ex(7, K22)
    assert rec.status == "exact"
    assert rec.value == 21
