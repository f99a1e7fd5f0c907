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

Regenerate the table with `PYTHONPATH=src python tests/test_golden.py`; a
change that moves a line names it and the reason in CHANGES.md. The
regenerated table is still checked against the oracle at n <= 4 and the
orbit law.
"""

import json
import os
import random
from itertools import product
from pathlib import Path

import pytest

from conftest import oracle_embedding
from patex.matrix import ZeroOneMatrix
from patex.search import brute_force_ex, exact_ex

TABLE = Path(__file__).parent / "golden" / "exact_ex_small.jsonl"
SLOW = pytest.mark.skipif(os.environ.get("PATEX_SLOW") != "1", reason="slow; set PATEX_SLOW=1")


def _cases():
    patterns = [
        ZeroOneMatrix([bits >> (i * cols) & ((1 << cols) - 1) for i in range(rows)], cols)
        for rows, cols in product((1, 2, 3), repeat=2)
        for bits in range(1, 1 << (rows * cols))
    ]
    for n in (3, 4, 5):
        for a in patterns:
            yield a, n


def _line(a: ZeroOneMatrix, n: int) -> str:
    rec = exact_ex(n, a)
    return json.dumps(
        {
            "pattern": "/".join(a.row_strings()),
            "n": n,
            "value": rec.value,
            "status": rec.status,
            "tailBounds": rec.provenance["tailBounds"],
            "nodes": rec.provenance["nodes"],
            "witness": "/".join(rec.witness.row_strings()),
        },
        separators=(",", ":"),
    )


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
    return [json.loads(line) for line in TABLE.read_text().splitlines()]


def test_exact_ex_small_table():
    want = TABLE.read_text().splitlines()
    got = [_line(a, n) for a, n in _cases()]
    assert len(got) == len(want) == 2019
    for i, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, f"line {i} differs:\n  golden: {w}\n  now:    {g}"


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


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("".join(_line(a, n) + "\n" for a, n in _cases()))
