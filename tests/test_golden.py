"""Golden small-pattern extremal table: `exact_ex` on every nonzero pattern up
to 3x3 at n = 3, 4 and 5 (2,019 records, about 5 s). Each line of
`golden/exact_ex_small.jsonl` holds the value, status, tailBounds, node count
and witness rows of one (pattern, n), so a change to the search that moves
any of them, `nodes` included, fails here with the first differing line.

Five more checks read the table without calling `exact_ex`, so a wrong
value cannot pass by being regenerated from the search it pins. Oracle:
each value equals `brute_force_ex` at n = 3 and 4 (n = 5 with PATEX_SLOW=1,
about 20 s). Witness: each line is "exact", and its n x n witness is free
under `oracle_embedding` and weighs the value, as does the last tail bound.
Orbit law: ex is the same on all 8 images of a pattern under transposition,
row reversal and column reversal, each again a pattern up to 3x3. Growth in
n: no pattern's value falls from n = 3 to 4 to 5. Containment law: ex(n, B)
<= ex(n, A) whenever `oracle_embedding` finds B in A, since a matrix free of
B is free of A; Tier-1 takes a seeded sample of the pattern pairs, and
PATEX_SLOW=1 all of them (169,512 contained (B, A, n) triples, about 2 s).

Lines at n = 5 that pin what the search could move unseen: `11/11` has
tailBounds z(k, 5; 2), the rectangular optima. The width bound and the row
cap move only `nodes` of `11/10`, `100/010/001` and `100/100/100`;
`100/100/100` takes 1,215 nodes, not 987, if a row's forbidden columns
replace the parent's rather than join them. `110/011/101` (six-cycle-a)
gets the row cap but not the width bound.

`tools/golden.py` checks and re-pins the table; a change that moves a line
names it and the reason in CHANGES.md. The re-pinned table is still checked
against the oracle at n <= 4 and the orbit law.
"""

import json
import os
import random
from itertools import product

import pytest

import golden
from conftest import oracle_embedding
from patex.matrix import ZeroOneMatrix
from patex.search import brute_force_ex

TABLE = "exact_ex_small.jsonl"
SLOW = pytest.mark.skipif(os.environ.get("PATEX_SLOW") != "1", reason="slow; set PATEX_SLOW=1")


def _matrix(text: str) -> ZeroOneMatrix:
    return ZeroOneMatrix.parse(text.replace("/", "\n"))


def _images(rows: list[str]):
    """The 8 images of a pattern's rows under transposition, row reversal
    and column reversal."""
    for g in (rows, ["".join(col) for col in zip(*rows)]):
        for flip_rows, flip_cols in product((False, True), repeat=2):
            yield [row[::-1] if flip_cols else row for row in (g[::-1] if flip_rows else g)]


@pytest.fixture(scope="module")
def records():
    return [json.loads(line) for line in (golden.GOLDEN / TABLE).read_text().splitlines()]


def test_exact_ex_small_table(records):
    assert len(records) == 2019
    diff = golden.first_difference(TABLE, golden.render_table())
    assert diff is None, diff


@pytest.mark.parametrize("n", [3, 4, pytest.param(5, marks=SLOW)])
def test_values_match_the_oracle(records, n):
    lines = [rec for rec in records if rec["n"] == n]
    assert len(lines) == 673
    for rec in lines:
        assert brute_force_ex(n, _matrix(rec["pattern"])).value == rec["value"], rec


def test_witnesses_are_free_and_weigh_the_value(records):
    for rec in records:
        n, witness = rec["n"], _matrix(rec["witness"])
        assert rec["status"] == "exact", rec
        assert (witness.rows, witness.cols) == (n, n), rec
        assert witness.weight == rec["value"] == rec["tailBounds"][-1], rec
        assert oracle_embedding(witness, _matrix(rec["pattern"])) is None, rec


@pytest.fixture(scope="module")
def values(records):
    return {(rec["pattern"], rec["n"]): rec["value"] for rec in records}


def test_values_agree_across_the_orbit(values):
    for (pattern, n), v in values.items():
        for image in _images(pattern.split("/")):
            assert values["/".join(image), n] == v, (pattern, image, n)


def test_values_do_not_fall_as_n_grows(values):
    for pattern in {pattern for pattern, _ in values}:
        assert values[pattern, 3] <= values[pattern, 4] <= values[pattern, 5], pattern


@pytest.mark.parametrize("pairs", [pytest.param(30_000, id="sample"), pytest.param(None, marks=SLOW, id="all")])
def test_values_do_not_fall_under_containment(values, pairs):
    patterns = sorted({pattern for pattern, _ in values})
    matrices = {pattern: _matrix(pattern) for pattern in patterns}
    every = len(patterns) ** 2
    for index in random.Random(0).sample(range(every), pairs) if pairs else range(every):
        inner, outer = (patterns[i] for i in divmod(index, len(patterns)))
        if inner != outer and oracle_embedding(matrices[outer], matrices[inner]) is not None:
            for n in (3, 4, 5):
                assert values[inner, n] <= values[outer, n], (inner, outer, n)
