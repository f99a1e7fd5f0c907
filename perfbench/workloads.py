"""Seeded inputs, op lists and output checks of the three workloads.

Every input is drawn from ``SplitMix64(seed)`` before timing starts, and
``patex`` only ever receives the generated matrices. Ops call each layer
through its module attribute (``search.exact_ex``, not a name bound at
import), so the traced run sees every call the wrappers in ``spans.py``
cover. Each op carries its own check, which runs outside the timed region
and uses ``oracles.py`` or a host built to be pattern-free, never the kernel
under test. See README.md for why each workload exists.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable, Optional

from patex import cache, count, cycles, increment, matrix, search
from patex.matrix import ZeroOneMatrix, verify_embedding
from patex.rng import SplitMix64

import oracles
import pinned


@dataclass
class Op:
    """``call`` runs the op; ``check`` returns None when the output is right
    and a reason otherwise; ``summary`` is the JSON form that goes into the
    output digest; ``counts`` gives the exact work counters read off the
    output."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    summary: Callable[[Any], Any]
    counts: Callable[[Any], dict] = lambda out: {}


@dataclass
class Workload:
    ops: list[Op]
    reset: Callable[[], None] = lambda: None  # untimed, before every pass


# ----------------------------------------------------------------------
# Seeded input helpers


def random_masks(rng: SplitMix64, rows: int, cols: int, p: float) -> list[int]:
    """Row masks with each entry 1 with probability round(256 p)/256: every
    byte of the 64-bit draws decides one entry, in column order."""
    table = bytes(49 if b < round(256 * p) else 48 for b in range(256))  # b"1" / b"0"
    words = -(-cols // 8)
    masks = []
    for _ in range(rows):
        raw = b"".join(rng.next_u64().to_bytes(8, "little") for _ in range(words))
        masks.append(int(raw[:cols].translate(table)[::-1], 2))
    return masks


def sample(rng: SplitMix64, k: int, n: int) -> list[int]:
    """k distinct sorted 0-based indices below n."""
    pool = list(range(n))
    return sorted(pool.pop(rng.below(len(pool))) for _ in range(k))


def choice(rng: SplitMix64, xs):
    return xs[rng.below(len(xs))]


def shuffle(rng: SplitMix64, xs: list) -> list:
    xs = list(xs)
    for i in range(len(xs) - 1, 0, -1):
        j = rng.below(i + 1)
        xs[i], xs[j] = xs[j], xs[i]
    return xs


def parse(text: str) -> ZeroOneMatrix:
    return ZeroOneMatrix.parse(text.replace("/", "\n"))


def cycle_pattern(rng: SplitMix64, side: int) -> ZeroOneMatrix:
    """A side x side pattern whose bipartite graph is one cycle of length
    2*side: with rows and columns in random orders r_i, c_i, row r_i has its
    1-entries in columns c_i and c_(i+1 mod side)."""
    rows, cols = shuffle(rng, range(side)), shuffle(rng, range(side))
    masks = [0] * side
    for i in range(side):
        masks[rows[i]] = (1 << cols[i]) | (1 << cols[(i + 1) % side])
    return ZeroOneMatrix(masks, side)


def connected(masks: list[int], cols: int) -> bool:
    """No all-zero row or column, and the bipartite graph of the 1-entries
    is connected."""
    if any(m == 0 for m in masks) or any(
        not any((m >> j) & 1 for m in masks) for j in range(cols)
    ):
        return False
    reached_rows, reached_cols = {0}, 0
    grew = True
    while grew:
        grew = False
        for i in list(reached_rows):
            if masks[i] & ~reached_cols:
                reached_cols |= masks[i]
                grew = True
        for i, m in enumerate(masks):
            if i not in reached_rows and m & reached_cols:
                reached_rows.add(i)
                grew = True
    return len(reached_rows) == len(masks)


def connected_pattern(rng: SplitMix64, r: int, s: int) -> ZeroOneMatrix:
    while True:
        masks = random_masks(rng, r, s, 0.5)
        if connected(masks, s):
            return ZeroOneMatrix(masks, s)


def plant(rng: SplitMix64, masks: list[int], cols: int, a: ZeroOneMatrix) -> list[int]:
    """Copy of ``a`` written into random increasing rows and columns."""
    rows, cmap = sample(rng, a.rows, len(masks)), sample(rng, a.cols, cols)
    out = list(masks)
    for i, r in enumerate(rows):
        for j in range(a.cols):
            if (a.row_masks[i] >> j) & 1:
                out[r] |= 1 << cmap[j]
    return out


def block_free(rng: SplitMix64, n: int, pattern_rows: int, p: float) -> list[int]:
    """n x n host avoiding every connected pattern with ``pattern_rows`` rows:
    random blocks of pattern_rows - 1 rows, each owning its own range of
    columns, placed anti-diagonally. Two 1-entries of a copy in one row or
    one column lie in one block, so a copy of a connected pattern would lie
    in a single block, which has too few rows."""
    height = pattern_rows - 1
    nblocks = -(-n // height)
    edges = [k * n // nblocks for k in range(nblocks + 1)]
    masks = []
    for b in range(nblocks):
        lo, hi = edges[nblocks - 1 - b], edges[nblocks - b]
        for row in random_masks(rng, min(height, n - b * height), hi - lo, p):
            masks.append(row << lo)
    return masks


def balanced_masks(rng: SplitMix64, r: int, band: int, cols: int, fill: float) -> list[int]:
    """r bands of ``band`` rows; column j gets the same random count of
    1-entries, at random rows, in every band (an r-balanced host)."""
    masks = [0] * (r * band)
    for j in range(cols):
        cnt = max(1, min(band, round(fill * band * (0.5 + rng.random()))))
        for b in range(r):
            for i in sample(rng, cnt, band):
                masks[b * band + i] |= 1 << j
    return masks


# ----------------------------------------------------------------------
# Output summaries and checks shared by the workloads


def emb_json(e):
    return None if e is None else e.to_json_dict()


def check_embedding(host: ZeroOneMatrix, a: ZeroOneMatrix, e) -> Optional[str]:
    if e is None:
        return "no embedding"
    return None if verify_embedding(host, a, e) else "embedding fails verify_embedding"


def check_witness(rec, a: ZeroOneMatrix, n: int) -> Optional[str]:
    w = rec.witness
    if rec.n != n:
        return f"record for n={rec.n}, asked n={n}"
    if (w.rows, w.cols) != (n, n):
        return f"witness is {w.rows}x{w.cols}"
    if oracles.weight(w.row_masks) != rec.value:
        return f"witness weight {oracles.weight(w.row_masks)} != value {rec.value}"
    if oracles.contains(w.row_masks, n, a.row_masks, a.cols):
        return "witness contains the pattern"
    return None


def col_parts(masks: list[int], cols: int) -> int:
    """Least number of column intervals meeting every row at most once."""
    parts, seen = 1, 0
    for j in range(cols):
        hit = sum(1 << i for i, m in enumerate(masks) if (m >> j) & 1)
        if hit & seen:
            parts, seen = parts + 1, 0
        seen |= hit
    return parts


def sub(host: ZeroOneMatrix, row_range, col_range) -> ZeroOneMatrix:
    rows = range(row_range[0], row_range[1] + 1)
    cols = range(col_range[0], col_range[1] + 1)
    return ZeroOneMatrix(oracles.select(host.row_masks, rows, cols), len(cols))


# ----------------------------------------------------------------------
# extremal


def extremal(rng: SplitMix64, workdir: Path) -> Workload:
    """exact_ex on every pinned (pattern, n) target plus one extremal_table
    pass through a fresh CacheStore. The seed only orders the targets: they
    are fixed so that every answer is "exact" with no budget."""
    ops = []
    for name, n in shuffle(rng, list(pinned.PINNED)):
        a = parse(pinned.PATTERNS[name])
        want = pinned.PINNED[(name, n)]
        ops.append(Op(
            kind="exact_ex",
            call=lambda a=a, n=n: search.exact_ex(n, a),
            check=lambda rec, a=a, n=n, want=want, name=name: _check_exact(rec, a, n, want, name),
            summary=lambda rec: rec.to_json_dict(),
            counts=lambda rec: {"nodes": rec.provenance.get("nodes", 0)},
        ))
    table_name, table_ns = "column-2-partite", range(2, 6)
    table_pattern = parse(pinned.PATTERNS[table_name])
    table_dir = workdir / "table-cache"

    def table_check(recs):
        if [r.n for r in recs] != list(table_ns):
            return f"table rows for n={[r.n for r in recs]}"
        for rec in recs:
            why = _check_exact(rec, table_pattern, rec.n, pinned.table_value(table_name, rec.n), table_name)
            if why:
                return why
        return None

    ops.append(Op(
        kind="extremal_table",
        call=lambda: search.extremal_table(table_pattern, table_ns, cache=cache.CacheStore(table_dir)),
        check=table_check,
        summary=lambda recs: [r.to_json_dict() for r in recs],
        counts=lambda recs: {"nodes": sum(r.provenance.get("nodes", 0) for r in recs)},
    ))
    return Workload(ops=ops, reset=lambda: shutil.rmtree(table_dir, ignore_errors=True))


def _check_exact(rec, a: ZeroOneMatrix, n: int, pin: tuple[int, str], name: str) -> Optional[str]:
    """``pin`` is the pinned (value, source)."""
    if rec.status != "exact":
        return f"ex({n}, {name}) is {rec.status}, expected exact"
    if rec.value != pin[0]:
        return f"ex({n}, {name}) = {rec.value}, pinned {pin[0]} [{pin[1]}]"
    return check_witness(rec, a, n)


# ----------------------------------------------------------------------
# drivers

DRIVER_PATTERNS = ("six-cycle-a", "column-2-partite", "doubly-2-partite", "K22")
DRIVER_MODES = (("thm21", 2), ("thm21", 4), ("thm12", 2), ("thm11", 2))
# Host cells (n, p): every density at n = 32 and 64 and the sparsest at
# n = 128 for each pattern, plus the denser n = 128 cells for K22. The cells
# left out cost 0.4 s to 6 s per op (six-cycle-a at (128, 0.3) with thm21)
# and would each outweigh the rest of a pass.
DRIVER_CELLS = [(n, p) for n in (32, 64) for p in (0.05, 0.1, 0.3)] + [(128, 0.05)]
DRIVER_EXTRA_CELLS = {"K22": [(128, 0.1), (128, 0.3)]}
# Hosts per cell. The ops of the heaviest cell are the slowest 1% of a pass;
# with four hosts there, op_p99_ms falls inside that cell's cluster rather
# than on one host's draw (its spread over seeds fell from 0.22 to 0.06).
DRIVER_HOSTS = 2
DRIVER_HEAVY_HOSTS = {("six-cycle-a", 64, 0.3): 4}
DRIVER_STOPS = {"embedded", "no-copies", "depth-reached", "divisibility", "schedule-exhausted"}


def drivers(rng: SplitMix64, workdir: Path) -> Workload:
    """run_driver over a fixed grid of (pattern, n, p, mode), then the cycle
    engines on constructed balanced and dense hosts and single increment
    steps on planted hosts. The seed only draws the host entries."""
    ops = []
    for name in DRIVER_PATTERNS:
        a = parse(pinned.PATTERNS[name])
        for n, p in DRIVER_CELLS + DRIVER_EXTRA_CELLS.get(name, []):
            for _ in range(DRIVER_HEAVY_HOSTS.get((name, n, p), DRIVER_HOSTS)):
                host = ZeroOneMatrix(random_masks(rng, n, n, p), n)
                ops += _driver_ops(host, a)
    ops += _step_ops(rng) + _balanced_embed_ops(rng) + _dichotomy_ops(rng) + _cycle_driver_ops(rng)
    return Workload(ops=ops)


def _driver_ops(host: ZeroOneMatrix, a: ZeroOneMatrix) -> list[Op]:
    ops = []
    for mode, k in DRIVER_MODES:
        ops.append(Op(
            kind="run_driver",
            call=lambda mode=mode, k=k: increment.run_driver(host, a, mode, k=k),
            check=lambda tr, mode=mode: _check_driver(tr, host, a, mode),
            summary=lambda tr: tr.to_json_dict(),
            counts=lambda tr: {"levels": len(tr.levels)},
        ))
    return ops


def _check_driver(tr, host: ZeroOneMatrix, a: ZeroOneMatrix, mode: str) -> Optional[str]:
    t = col_parts(list(a.row_masks), a.cols)
    if mode == "thm12":
        t = max(t, col_parts(list(a.col_masks), a.rows))
    if not tr.levels:
        return "empty trace"
    if tr.stop_reason not in DRIVER_STOPS:
        return f"unknown stop reason {tr.stop_reason!r}"
    for lv in tr.levels:
        block = sub(host, lv.row_range, lv.col_range)
        if oracles.weight(block.row_masks) != lv.weight:
            return f"level {lv.level}: weight {lv.weight} != recount"
        if lv.count is not None and oracles.recount(block, lv.u, t) != lv.count:
            return f"level {lv.level}: K_({lv.u},{t}) count {lv.count} != recount"
    if tr.stop_reason == "embedded":
        return check_embedding(host, a, tr.embedding)
    if tr.embedding is not None:
        return f"embedding reported with stop reason {tr.stop_reason!r}"
    if tr.stop_reason == "no-copies" and tr.levels[-1].count != 0:
        return "stopped for no copies with a nonzero count"
    return None


def _step_json(st):
    return {
        "kind": st.kind, "embedding": emb_json(st.embedding),
        "label": st.label, "block": st.block, "rows": st.row_range,
        "count": st.count, "total": st.total, "narrow": st.narrow_total,
        "guarantee": st.guarantee_met,
    }


def _step_ops(rng: SplitMix64) -> list[Op]:
    """density_increment_step with k = 4: planted hosts (one row per block
    carrying all of a random column set, for the first r blocks) must embed;
    plain random hosts may embed or densify, and a densified block's count
    is recounted over the other axis."""
    ops = []
    planted_cells = product(DRIVER_PATTERNS, (3, 6), (12, 24), (0.0, 0.1))
    random_cells = product(DRIVER_PATTERNS, (3, 6), (12, 24), (0.3,))
    for planted, (name, band, cols, p) in [(True, c) for c in planted_cells] + [(False, c) for c in random_cells]:
        a = parse(pinned.PATTERNS[name])
        k = 4
        masks = random_masks(rng, k * band, cols, p)
        if planted:
            colmask = sum(1 << c for c in sample(rng, a.cols, cols))
            for b in range(a.rows):
                masks[b * band + rng.below(band)] |= colmask
        host = ZeroOneMatrix(masks, cols)
        u = col_parts(list(a.row_masks), a.cols)
        ops.append(Op(
            kind="increment_step",
            call=lambda host=host, a=a, u=u: increment.density_increment_step(host, a, u=u, k=4),
            check=lambda st, host=host, a=a, u=u, planted=planted: _check_step(st, host, a, u, planted),
            summary=_step_json,
            counts=lambda st: {"embedded": int(st.kind == "embedded")},
        ))
    return ops


def _check_step(st, host: ZeroOneMatrix, a: ZeroOneMatrix, u: int, planted: bool) -> Optional[str]:
    if st.kind == "embedded":
        return check_embedding(host, a, st.embedding)
    if planted:
        return "planted host densified"
    # The step counts K_{u,t} with t the pattern's column-interval count,
    # which is u here.
    band = host.rows // 4
    counts = [oracles.recount(sub(host, (b * band + 1, (b + 1) * band), (1, host.cols)), u, u) for b in range(4)]
    if counts[st.block - 1] != st.count:
        return f"block count {st.count} != recount {counts[st.block - 1]}"
    if sum(counts) != st.narrow_total:
        return "narrow total != sum of block recounts"
    if oracles.recount(host, u, u) != st.total:
        return "total != recount"
    if st.count != max(counts):
        return "densified block is not the heaviest"
    return None


CYCLE_PATTERNS = ("K22", "six-cycle-a", "six-cycle-b")


def _balanced_embed_ops(rng: SplitMix64) -> list[Op]:
    """embed_xmonotone_balanced on random r-balanced hosts of mixed density:
    a copy must be proper (pattern row j in band j), and every None is
    confirmed by the oracle's proper-copy enumeration."""
    ops = []
    for name, band, cols, fill in product(CYCLE_PATTERNS, (8, 16), (24, 48), (0.05, 0.1, 0.2)):
        a = parse(pinned.PATTERNS[name])
        host = ZeroOneMatrix(balanced_masks(rng, a.rows, band, cols, fill), cols)
        ops.append(Op(
            kind="embed_xmonotone_balanced",
            call=lambda host=host, a=a: cycles.embed_xmonotone_balanced(host, a),
            check=lambda e, host=host, a=a, band=band: _check_proper(e, host, a, band),
            summary=emb_json,
            counts=lambda e: {"found": int(e is not None)},
        ))
    return ops


def _check_proper(e, host: ZeroOneMatrix, a: ZeroOneMatrix, band: int) -> Optional[str]:
    if e is None:
        if oracles.contains(host.row_masks, host.cols, a.row_masks, a.cols, band=band):
            return "no proper copy reported, but the oracle finds one"
        return None
    if any(not (j * band < r <= (j + 1) * band) for j, r in enumerate(e.row_map)):
        return "copy is not proper"
    return check_embedding(host, a, e)


def _square_host(rng: SplitMix64, n: int, k: int, r: int, balanced: bool) -> ZeroOneMatrix:
    """n x n host with all its weight in bands of n/k rows: r bands whose
    columns carry equal counts (balanced), or one random dense band."""
    band = n // k
    masks = [0] * n
    if balanced:
        inner = balanced_masks(rng, r, band, n, choice(rng, (0.3, 0.5, 0.7)))
        for slot, b in enumerate(sample(rng, r, k)):
            masks[b * band:(b + 1) * band] = inner[slot * band:(slot + 1) * band]
    else:
        b = rng.below(k)
        masks[b * band:(b + 1) * band] = random_masks(rng, band, n, choice(rng, (0.5, 0.7, 0.9)))
    return ZeroOneMatrix(masks, n)


def _dichotomy_ops(rng: SplitMix64) -> list[Op]:
    ops = []
    for n, k, balanced, _ in product((32, 64, 96), (2, 4), (True, False), range(2)):
        host = _square_host(rng, n, k, 2, balanced)
        c = host.weight / n ** 1.5
        ops.append(Op(
            kind="dense_or_balanced",
            call=lambda host=host, k=k, c=c: cycles.dense_or_balanced(host, 2, 2, k, c),
            check=lambda res, host=host, k=k: _check_dichotomy(res, host, k),
            summary=lambda res: {
                "branch": res.branch, "rows": res.row_indices, "cols": res.col_indices,
                "matrix": res.matrix.row_strings(), "weight": res.weight,
                "pre": res.weight_precondition_held, "inv": res.invariant_holds,
            },
        ))
    return ops


def _check_dichotomy(res, host: ZeroOneMatrix, k: int) -> Optional[str]:
    got = list(res.matrix.row_masks)
    sel = oracles.select(host.row_masks, res.row_indices, res.col_indices)
    if oracles.weight(got) != res.weight:
        return "reported weight != matrix weight"
    if res.branch == "dense":
        if got != sel:
            return "dense branch matrix is not the selected submatrix"
        if len(res.row_indices) != host.rows // k or len(res.col_indices) != host.rows // k:
            return "dense branch is not (n/k) x (n/k)"
        return None
    if res.branch != "balanced":
        return f"unknown branch {res.branch!r}"
    if any(g & ~s for g, s in zip(got, sel)):
        return "balanced matrix is not dominated by the input"
    if not oracles.is_balanced(got, res.matrix.cols, res.r):
        return "balanced branch matrix is not r-balanced"
    return None


def _cycle_driver_ops(rng: SplitMix64) -> list[Op]:
    ops = []
    for name, n, k, balanced in product(CYCLE_PATTERNS, (48, 96), (3, 4), (True, False)):
        a = parse(pinned.PATTERNS[name])
        host = _square_host(rng, n, k, a.rows, balanced)
        c = host.weight / n ** 1.5
        ops.append(Op(
            kind="cycle_driver",
            call=lambda host=host, a=a, k=k, c=c: cycles.cycle_driver(host, a, k, c),
            check=lambda tr, host=host, a=a: _check_cycle_trace(tr, host, a),
            summary=lambda tr: tr.to_json_dict(),
            counts=lambda tr: {"cycle_levels": len(tr.levels)},
        ))
    return ops


def _check_cycle_trace(tr, host: ZeroOneMatrix, a: ZeroOneMatrix) -> Optional[str]:
    if not tr.levels:
        return "empty trace"
    for lv in tr.levels:
        rows, cols = lv.checks["rowIndices"], lv.checks["colIndices"]
        if oracles.weight(oracles.select(host.row_masks, rows, cols)) != lv.weight:
            return f"level {lv.level}: weight {lv.weight} != recount"
    if tr.stop_reason == "embedded":
        return check_embedding(host, a, tr.embedding)
    if tr.embedding is not None:
        return f"embedding reported with stop reason {tr.stop_reason!r}"
    return None


# ----------------------------------------------------------------------
# queries

QUERY_SIZES = (16, 32, 64, 128)
CACHE_PATTERNS = ("K22", "L", "six-cycle-a", "K23")
# The pattern pool is the same for every seed: one hard random pattern in a
# seed-drawn pool would slow a whole run and widen the spread between seeds.
POOL_SEED = 0x9A77E5
CACHE_NS = (6, 8, 10, 12)
DELETION_PATTERNS = ("K22", "L", "I3", "K23", "six-cycle-a")


def _pattern_pool() -> tuple[list, list]:
    """All patterns 2x2 to 5x5, and the connected ones among them (the only
    ones a block host is built to avoid)."""
    rng = SplitMix64(POOL_SEED)
    named = [parse(pinned.PATTERNS[k]) for k in pinned.PATTERNS]
    named.append(parse("11/11/11"))
    made = [cycle_pattern(rng, side) for side in (4, 4, 4, 5, 5, 5)]
    made += [connected_pattern(rng, 2 + rng.below(4), 2 + rng.below(4)) for _ in range(8)]
    pool = named + made
    return pool, [a for a in pool if connected(list(a.row_masks), a.cols)]


class _HostPool:
    """Random hosts shared between ops, eight per (size, density), so that
    setup does not draw thousands of matrices."""

    def __init__(self, rng: SplitMix64):
        self.rng, self.made = rng, {}

    def get(self, n: int, p: float) -> ZeroOneMatrix:
        key = (n, p, self.rng.below(8))
        if key not in self.made:
            self.made[key] = ZeroOneMatrix(random_masks(self.rng, n, n, p), n)
        return self.made[key]


def queries(rng: SplitMix64, workdir: Path) -> Workload:
    """Thousands of short requests from a seeded mix, against a cache
    directory that setup fills and every pass starts from."""
    pool, linked = _pattern_pool()
    store_dir = workdir / "query-cache"
    shutil.rmtree(store_dir, ignore_errors=True)
    store = cache.CacheStore(store_dir)
    model: dict = {}  # (pattern index, n) -> record JSON, the expected store state
    cache_pats = [parse(pinned.PATTERNS[k]) for k in CACHE_PATTERNS]
    for pi, a in enumerate(cache_pats):
        for n in CACHE_NS:
            rec = _block_record(rng, a, n, 0.6)
            store.put(a, rec)
            model[(pi, n)] = rec.to_json_dict()
    snapshot = {path.name: path.read_bytes() for path in store_dir.iterdir()}

    def reset():
        shutil.rmtree(store_dir, ignore_errors=True)
        store_dir.mkdir(parents=True)
        for name, data in snapshot.items():
            (store_dir / name).write_bytes(data)

    # Stratified mix: every (pattern, size, density) combination appears a
    # fixed number of times and the seed draws the hosts and the order, so
    # seeds differ in what each op meets rather than in how many hard ops
    # they get.
    specs = (
        [("find_embedding.present", a, n, p) for a in pool for n in QUERY_SIZES for p in (0.1, 0.2, 0.3)] * 2
        + [("find_embedding.absent", a, n, p) for a in linked for n in QUERY_SIZES for p in (0.2, 0.5)] * 2
        + [("find_embedding.small", a, 16, p) for a in pool for p in (0.15, 0.25, 0.35)] * 4
        + [("count_copies", (u, t), n, p) for u in (2, 3) for t in (2, 3)
           for n in (16, 24, 32, 48) for p in (0.1, 0.2, 0.3)] * 8
        + [("deletion_lower_bound", parse(pinned.PATTERNS[k]), n, None)
           for k in DELETION_PATTERNS for n in (16, 24, 32, 48)] * 5
        + [("cache.get", None, None, None)] * 400
        + [("cache.put", None, None, None)] * 200
    )
    hosts = _HostPool(rng)
    ops = []
    for kind, what, n, p in shuffle(rng, specs):
        if kind.startswith("find_embedding"):
            ops.append(_find_op(rng, kind, what, n, p, hosts))
        elif kind == "count_copies":
            ops.append(_count_op(hosts.get(n, p), *what))
        elif kind == "deletion_lower_bound":
            ops.append(_deletion_op(what, n, rng.next_u64()))
        else:
            ops.append(_cache_op(rng, kind, store, cache_pats, model))
    return Workload(ops=ops, reset=reset)


def _find_op(rng: SplitMix64, kind: str, a: ZeroOneMatrix, n: int, p: float, hosts: _HostPool) -> Op:
    present, free = kind == "find_embedding.present", kind == "find_embedding.absent"
    if present:
        host = ZeroOneMatrix(plant(rng, list(hosts.get(n, p).row_masks), n, a), n)
    elif free:
        host = ZeroOneMatrix(block_free(rng, n, a.rows, p), n)
    else:
        host = hosts.get(n, p)

    def check(e):
        if e is not None:
            return check_embedding(host, a, e)
        if present:
            return "planted copy not found"
        if not free and oracles.contains(host.row_masks, host.cols, a.row_masks, a.cols):
            return "reported absent, but the enumeration oracle finds a copy"
        return None

    return Op(
        kind=kind,
        call=lambda: matrix.find_embedding(host, a),
        check=check,
        summary=emb_json,
        counts=lambda e: {"found": int(e is not None)},
    )


def _count_op(host: ZeroOneMatrix, u: int, t: int) -> Op:
    return Op(
        kind="count_copies",
        call=lambda: count.count_copies(host, u, t),
        check=lambda cc: None if cc.count == oracles.recount(host, u, t) else f"K_({u},{t}) count {cc.count} != recount",
        summary=lambda cc: cc.count,
    )


def _deletion_op(a: ZeroOneMatrix, n: int, seed: int) -> Op:
    def check(rec):
        if rec.status != "lowerBound":
            return f"status {rec.status!r}"
        return check_witness(rec, a, n)

    return Op(
        kind="deletion_lower_bound",
        call=lambda: search.deletion_lower_bound(n, a, seed),
        check=check,
        summary=lambda rec: rec.to_json_dict(),
        counts=lambda rec: {"deletions": rec.provenance["deletions"]},
    )


def _block_record(rng: SplitMix64, a: ZeroOneMatrix, n: int, p: float):
    """A lower-bound record whose witness avoids ``a`` by construction."""
    witness = ZeroOneMatrix(block_free(rng, n, a.rows, p), n)
    return search.ExtremalRecord(
        pattern_key=matrix.canonical_key(a), n=n, value=witness.weight,
        status="lowerBound", witness=witness, provenance={"solver": "block-construction"},
    )


def _cache_op(rng: SplitMix64, kind: str, store, cache_pats: list, model: dict) -> Op:
    """Reads and writes against the store; the expected answer comes from
    ``model``, the benchmark's own replay of the store in op order (a put
    keeps the larger lower bound; values never tie)."""
    pi = rng.below(len(cache_pats))
    a = cache_pats[pi]
    if kind == "cache.get":
        n = 4 + rng.below(11)
        want = model.get((pi, n))
        summary = lambda rec: None if rec is None else rec.to_json_dict()  # noqa: E731
        return Op(
            kind=kind,
            call=lambda: store.get(a, n),
            check=lambda rec: None if summary(rec) == want else "record differs from the store's expected state",
            summary=summary,
            counts=lambda rec: {"hits": int(rec is not None)},
        )
    n = choice(rng, (5, 6, 7, 8, 9, 10, 11, 12, 13))
    old = model.get((pi, n))
    rec = _block_record(rng, a, n, choice(rng, (0.3, 0.6, 0.9)))
    while old is not None and old["value"] == rec.value:
        rec = _block_record(rng, a, n, 0.9)
    if old is None or rec.value > old["value"]:
        model[(pi, n)] = rec.to_json_dict()
    want = model[(pi, n)]
    return Op(
        kind=kind,
        call=lambda: store.put(a, rec),
        check=lambda got: None if got.to_json_dict() == want else "put returned a record other than the stronger one",
        summary=lambda got: got.to_json_dict(),
    )
