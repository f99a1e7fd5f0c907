"""Pinned extremal numbers that the ``extremal`` workload checks against,
each with its source.

Sources are closed forms where one is known, and otherwise a recorded
exhaustive computation: ex(n, A) = n^2 - tau(n, A), where tau is the least
number of cells that meet the support of every copy of A in an n x n grid
(a matrix avoids A exactly when its 0-entries meet every copy). Run

    python3 perfbench/pinned.py

to redo that computation; it uses nothing from ``patex`` and prints, per
target, the pinned value and the recomputed one. ``brute_force_ex`` is
the other independent route, but at n = 5 it finishes in reasonable time
only for sparse answers (K22 61 s, L 14 s, I3 104 s, K23 243 s on one
core of a 2-core x86-64 machine; the six-cycles ran past 5 minutes).
"""

from __future__ import annotations

from itertools import combinations

PATTERNS = {
    "K22": "11/11",
    "K23": "111/111",
    "I3": "100/010/001",
    "L": "11/10",
    "six-cycle-a": "110/011/101",
    "six-cycle-b": "011/110/101",
    "column-2-partite": "0101/1001/1001/0110",
    "row-2-partite": "0100/1011/1010/0101",
    "doubly-2-partite": "0101/1010/1010/0101",
}

_HITTING = "n^2 - tau, tau by exhaustive hitting-set search (python3 perfbench/pinned.py)"

# (pattern, n) -> (ex, source)
PINNED = {
    ("K22", 2): (3, "z(n;2), Zarankiewicz"),
    ("K22", 3): (6, "z(n;2), Zarankiewicz"),
    ("K22", 4): (9, "z(n;2), Zarankiewicz"),
    ("K22", 5): (12, "z(n;2), Zarankiewicz; brute_force_ex(5, K22) = 12"),
    ("I3", 5): (16, "(k-1)(2n-k+1) for I_k; brute_force_ex(5, I3) = 16"),
    ("L", 5): (9, _HITTING + "; brute_force_ex(5, L) = 9"),
    ("K23", 5): (16, _HITTING + "; brute_force_ex(5, K23) = 16"),
    ("six-cycle-a", 5): (18, _HITTING),
    ("six-cycle-b", 5): (18, _HITTING),
    ("column-2-partite", 5): (22, _HITTING),
    ("row-2-partite", 5): (22, _HITTING),
    ("doubly-2-partite", 5): (22, _HITTING),
}


def pattern_rows(name: str) -> list[str]:
    return PATTERNS[name].split("/")


def table_value(name: str, n: int) -> tuple[int, str]:
    """ex for the ``extremal_table`` target: n^2 while the pattern does not
    fit, r^2 - 1 at n = r for an r x r pattern with a 1-entry (its only copy
    dies with any one of its 1-entries), and the pinned value beyond."""
    rows = pattern_rows(name)
    r, s = len(rows), len(rows[0])
    if r > n or s > n:
        return n * n, "n^2: pattern larger than host"
    if r == s == n:
        return n * n - 1, "n^2 - 1: the single copy loses one 1-entry"
    return PINNED[(name, n)]


def _copies(rows: list[str], n: int) -> list[int]:
    r, s = len(rows), len(rows[0])
    ones = [(i, j) for i in range(r) for j in range(s) if rows[i][j] == "1"]
    out = set()
    for rr in combinations(range(n), r):
        for cc in combinations(range(n), s):
            out.add(sum(1 << (rr[i] * n + cc[j]) for (i, j) in ones))
    return sorted(out)


def _hits(copies: list[int], budget: int, chosen: int) -> int | None:
    """A set of at most ``budget`` further cells that, with ``chosen``,
    meets every copy, or None. Branches on the cells of the first copy not
    yet met, so every minimal hitting set is reachable."""
    for c in copies:
        if not c & chosen:
            break
    else:
        return chosen
    if budget == 0:
        return None
    cells = c
    while cells:
        low = cells & -cells
        found = _hits(copies, budget - 1, chosen | low)
        if found is not None:
            return found
        cells ^= low
    return None


def hitting_ex(rows: list[str], n: int) -> int:
    copies = _copies(rows, n)
    tau = 0
    while _hits(copies, tau, 0) is None:
        tau += 1
    return n * n - tau


if __name__ == "__main__":
    for (name, n), (value, source) in PINNED.items():
        got = hitting_ex(pattern_rows(name), n)
        print(f"{name:18s} n={n} pinned={value:3d} recomputed={got:3d} "
              f"{'ok' if got == value else 'MISMATCH'}  [{source}]", flush=True)
