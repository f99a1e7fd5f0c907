"""Golden small-pattern extremal table: `exact_ex` on every nonzero pattern up
to 3x3 at n = 3, 4 and 5 (2,019 records, about 5 s). Each line of
`golden/exact_ex_small.jsonl` holds the value, status, tailBounds, node count
and witness rows of one (pattern, n), so a change to the search that moves
any of them, `nodes` included, fails here with the first differing line.

Regenerate the table with `PYTHONPATH=src python tests/test_golden.py`; a
change that moves a line names it and the reason in CHANGES.md.
"""

import json
from itertools import product
from pathlib import Path

from patex.matrix import ZeroOneMatrix
from patex.search import exact_ex

TABLE = Path(__file__).parent / "golden" / "exact_ex_small.jsonl"


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


def test_exact_ex_small_table():
    want = TABLE.read_text().splitlines()
    got = [_line(a, n) for a, n in _cases()]
    assert len(got) == len(want) == 2019
    for i, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, f"line {i} differs:\n  golden: {w}\n  now:    {g}"


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("".join(_line(a, n) + "\n" for a, n in _cases()))
