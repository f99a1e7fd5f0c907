"""Closed forms as second sources for extremal values.

The identity pattern I_k has ex(n; I_k) = (k-1)(2n-k+1).

- Witness: the first k-1 rows and the first k-1 columns all ones. Along a
  copy of I_k both coordinates of the p-th 1-entry are at least p, so the
  k-th 1-entry would lie outside the witness.
- Upper bound: group the 1-entries by the length p of the longest
  increasing chain that ends at them. Class p lies in an (n-p+1)-square and
  holds no increasing pair, so it has at most 2(n-p+1) - 1 entries; sum over
  p = 1..k-1.

The witnesses are built with plain list code and checked pattern-free by
find_embedding and by the enumerating oracle; exact_ex is pinned to the
formula wherever it finishes quickly.
"""

import pytest

from conftest import oracle_embedding
from patex.matrix import ZeroOneMatrix, find_embedding
from patex.search import exact_ex

SIZES = [(2, n) for n in range(2, 7)] + [(3, n) for n in range(3, 7)] + [(4, n) for n in (4, 5)]


def identity(k: int) -> ZeroOneMatrix:
    return ZeroOneMatrix.from_rows([[int(i == j) for j in range(k)] for i in range(k)])


def identity_ex(n: int, k: int) -> int:
    return (k - 1) * (2 * n - k + 1)


def identity_witness(n: int, k: int) -> ZeroOneMatrix:
    return ZeroOneMatrix.from_rows(
        [[int(i < k - 1 or j < k - 1) for j in range(n)] for i in range(n)]
    )


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
