"""Command-line interface: classify, contains, count, tcut, increment,
cycles, ex, verify-suite.

Reports go to standard output (JSON by default, CSV or key=value text on
request), diagnostics to standard error. Identical arguments, seed, and
cache state produce byte-identical reports. Exit codes: 0 success, 1 domain
or precondition error or an unreadable input file, or a reader that closed
standard output early (nothing more is printed), 2 budget exhaustion
(partial results are still emitted when they exist).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Optional

from . import classify as _classify
from .cache import CacheStore
from .count import count_copies, stepping_bound, supersat_bound
from .cycles import (
    balance_violation,
    cycle_driver,
    dense_or_balanced,
    embed_xmonotone_balanced,
    enumerate_cycles,
)
from .errors import BudgetError, InputError, PatexError
from .increment import _json_safe, run_driver
from .matrix import ZeroOneMatrix, find_embedding
from .ohypergraph import (
    _within_three_sigma,
    avoidance_threshold,
    cut_hits,
    cut_probability,
    find_ordered_complete_t_partite,
    heavy_label_classes,
)
from .rng import DEFAULT_SEED, SplitMix64
from .search import brute_force_ex, check_budget, deletion_lower_bound, extremal_table

CACHE_ENV = "PATTERN_EXTREMAL_CACHE"


def _load_matrix(path: str) -> ZeroOneMatrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text") from None
    return ZeroOneMatrix.parse(text)


def _emit(report: dict, fmt: str) -> None:
    report = _json_safe(report)
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    elif fmt == "csv":
        flat = _flatten(report)
        print(",".join(str(k) for k, _ in flat))
        print(",".join(_csv_cell(v) for _, v in flat))
    else:
        for k, v in _flatten(report):
            print(f"{k} = {_cell_text(v)}")


def _emit_trace(doc: dict, fmt: str) -> None:
    """A driver trace in JSON prints one line per level, then one summary
    line; other formats go through `_emit`."""
    if fmt != "json":
        _emit(doc, fmt)
        return
    for level in doc["levels"]:
        print(json.dumps(level, sort_keys=True))
    print(json.dumps({k: v for k, v in doc.items() if k != "levels"}, sort_keys=True))


def _cell_text(v) -> str:
    """A flattened value as one cell: a string as itself, anything else as
    its sorted-key JSON (true, false and null included)."""
    return v if isinstance(v, str) else json.dumps(v, sort_keys=True)


def _csv_cell(v) -> str:
    s = _cell_text(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _flatten(obj) -> list:
    def walk(o, pre):
        if isinstance(o, dict):
            for k in sorted(o):
                yield from walk(o[k], pre + [str(k)])
        else:
            yield ".".join(pre), o

    return list(walk(obj, []))


def _cache_store(args) -> Optional[CacheStore]:
    directory = args.cache_dir or os.environ.get(CACHE_ENV)
    return CacheStore(directory) if directory else None


# ----------------------------------------------------------------------
# Subcommands


def _cmd_classify(args) -> int:
    a = _load_matrix(args.pattern)
    prof = _classify.partite_profile(a)
    cyc = _classify.is_cycle(a)
    winding = _classify.winding_profile(a) if cyc else None
    report = {
        "pattern": a.to_json_dict(),
        "weight": a.weight,
        "minColumnParts": {"count": prof.min_col_parts, "cuts": list(prof.col_cuts)},
        "minRowParts": {"count": prof.min_row_parts, "cuts": list(prof.row_cuts)},
        "profile": list(prof.profile),
        "isPermutation": _classify.is_permutation(a),
        "isAcyclic": _classify.is_acyclic(a),
        "isCycle": cyc,
        "isXMonotone": _classify._x_monotone_core(a) if cyc else None,
        "isPositiveCycle": winding.positive if cyc else None,
        "windingProfile": winding.to_json_dict() if cyc else None,
    }
    _emit(report, args.format)
    return 0


def _cmd_contains(args) -> int:
    m = _load_matrix(args.host)
    a = _load_matrix(args.pattern)
    emb = find_embedding(m, a)
    report = {"contains": emb is not None}
    if emb is not None:
        report["embedding"] = emb.to_json_dict()
    _emit(report, args.format)
    return 0


def _cmd_count(args) -> int:
    m = _load_matrix(args.host)
    cc = count_copies(m, args.u, args.t)
    report = {"u": args.u, "t": args.t, "count": cc.count}
    if args.bounds:
        if m.rows == m.cols:
            report["supersatBound"] = supersat_bound(m.weight, m.rows, args.u, args.t).to_json_dict()
        else:
            report["supersatBound"] = None
        report["steppingBound"] = stepping_bound(cc.count, m.cols, args.u, args.t).to_json_dict()
    _emit(report, args.format)
    return 0


def _cmd_tcut(args) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be non-negative, got {args.trials}")
    m = _load_matrix(args.host)
    n, t = m.cols, args.t
    thr = avoidance_threshold(n, t, args.s)
    # With one band every edge is heavy, labeled (1,).
    completions = heavy_label_classes(m, t, 1, 1).get((1,), {})
    parts = find_ordered_complete_t_partite(n, [args.s] * t, completions)
    rng = SplitMix64(args.seed)
    # Prefixes share one length, so sorted prefixes with ascending last
    # columns list the edges in lexicographic order.
    edges = (
        prefix + (v,)
        for prefix in sorted(completions)
        for v in range(n + 1)
        if completions[prefix] >> v & 1
    )
    mc = []
    for e in islice(edges, 5):
        exact = cut_probability(e, n)
        hits = cut_hits(e, n, args.trials, rng)
        freq = within = None
        if args.trials:
            freq = hits / args.trials
            within = _within_three_sigma(hits, args.trials, exact)
        mc.append(
            {
                "edge": list(e),
                "exact": f"{exact.numerator}/{exact.denominator}",
                "trials": args.trials,
                "hits": hits,
                "frequency": freq,
                "withinTolerance": within,
            }
        )
    report = {
        "edgeCount": sum(mask.bit_count() for mask in completions.values()),
        "threshold": thr.to_json_dict(),
        "foundParts": [list(part) for part in parts] if parts else None,
        "monteCarlo": mc,
        "seed": args.seed,
    }
    _emit(report, args.format)
    return 0


def _cmd_increment(args) -> int:
    m = _load_matrix(args.host)
    a = _load_matrix(args.pattern)
    trace = run_driver(
        m,
        a,
        args.mode,
        k=args.k,
        depth=args.depth,
        epsilon=args.epsilon,
        u=args.u,
    )
    _emit_trace(trace.to_json_dict(), args.format)
    return 0


def _cmd_cycles_enumerate(args) -> int:
    mats = enumerate_cycles(args.length)
    report = {
        "length": args.length,
        "count": len(mats),
        "matrices": [m.to_json_dict() for m in mats],
    }
    _emit(report, args.format)
    return 0


def _cmd_cycles_embed(args) -> int:
    m = _load_matrix(args.host)
    a = _load_matrix(args.pattern)
    emb = embed_xmonotone_balanced(m, a)
    report = {"embedded": emb is not None, "r": a.rows}
    if emb is not None:
        report["embedding"] = emb.to_json_dict()
        report["proper"] = True
    _emit(report, args.format)
    return 0


def _cmd_cycles_dichotomy(args) -> int:
    m = _load_matrix(args.host)
    res = dense_or_balanced(m, args.r, args.s, args.k, args.c)
    report = {
        "branch": res.branch,
        "weight": res.weight,
        "preconditionHeld": res.weight_precondition_held,
        "invariantHolds": res.invariant_holds,
        "rows": list(res.row_indices),
        "cols": list(res.col_indices),
        "matrix": res.matrix.to_json_dict(),
        "details": res.details,
        "balanced": balance_violation(res.matrix, res.r) is None
        if res.branch == "balanced"
        else None,
    }
    _emit(report, args.format)
    return 0


def _cmd_cycles_drive(args) -> int:
    m = _load_matrix(args.host)
    a = _load_matrix(args.pattern)
    trace = cycle_driver(m, a, args.k, args.c, args.depth)
    _emit_trace(trace.to_json_dict(), args.format)
    return 0


def _cmd_ex(args) -> int:
    # Checked here, since a warm cache hit and --mode exact or random never
    # reach exact_ex.
    check_budget(args.budget)
    a = _load_matrix(args.pattern)
    cache = _cache_store(args)
    if args.n_to is not None:
        if args.mode != "bnb":
            raise InputError(f"--n-to builds a branch-and-bound table, not --mode {args.mode}")
        if args.n_to < args.n:
            raise InputError(f"--n-to {args.n_to} is below --n {args.n}: the range is empty")
        records = extremal_table(a, range(args.n, args.n_to + 1), args.budget, cache)
        if args.format == "csv":
            print("n,value,status,witness")
            for rec in records:
                print(f"{rec.n},{rec.value},{rec.status},{'|'.join(rec.witness.row_strings())}")
        else:
            _emit({"records": [rec.to_json_dict() for rec in records]}, args.format)
        return 0 if all(rec.status == "exact" for rec in records) else 2
    if args.mode == "bnb":
        # The table reads the cache first and writes only what it computes.
        record = extremal_table(a, [args.n], args.budget, cache)[0]
    elif args.mode == "exact":
        record = brute_force_ex(args.n, a)
    else:
        record = deletion_lower_bound(args.n, a, args.seed)
    if cache is not None and args.mode != "bnb":
        record = cache.put(a, record)
    _emit(record.to_json_dict(), args.format)
    return 2 if args.mode == "bnb" and record.status != "exact" else 0


def _cmd_verify_suite(args) -> int:
    from .acceptance import run_suite

    results = run_suite(filter_substring=args.filter)
    if not results:
        raise InputError(f"--filter {args.filter!r} matches no check")
    return 0 if all(r.passed for r in results) else 1


# ----------------------------------------------------------------------
# Parser / dispatch


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patex",
        description="0-1 matrix pattern containment, classification, copy counting, "
        "density-increment engines, cycle geometry, and exact extremal numbers.",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--cache-dir", default=None, help=f"result cache (or ${CACHE_ENV})")
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=DEFAULT_SEED)
    parser.add_argument("--budget", type=int, default=None, help="search nodes per branch-and-bound run of ex")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural predicates of a pattern")
    p.add_argument("pattern")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("contains", help="containment with certificate")
    p.add_argument("host")
    p.add_argument("pattern")
    p.set_defaults(fn=_cmd_contains)

    p = sub.add_parser("count", help="exact K_{u,t} copy count")
    p.add_argument("host")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--bounds", action="store_true")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("tcut", help="column hypergraph, cut statistics, t-partite search")
    p.add_argument("host")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.set_defaults(fn=_cmd_tcut)

    p = sub.add_parser("increment", help="density-increment driver trace")
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("--mode", choices=("thm21", "thm12", "thm11"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.set_defaults(fn=_cmd_increment)

    p = sub.add_parser("cycles", help="cycle enumeration, balanced embedding, dichotomy")
    csub = p.add_subparsers(dest="cycles_cmd", required=True)
    q = csub.add_parser("enumerate")
    q.add_argument("--length", type=int, required=True)
    q.set_defaults(fn=_cmd_cycles_enumerate)
    q = csub.add_parser("embed")
    q.add_argument("host")
    q.add_argument("pattern")
    q.set_defaults(fn=_cmd_cycles_embed)
    q = csub.add_parser("dichotomy")
    q.add_argument("host")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--c", type=float, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.set_defaults(fn=_cmd_cycles_dichotomy)
    q = csub.add_parser("drive")
    q.add_argument("host")
    q.add_argument("pattern")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--c", type=float, required=True)
    q.add_argument("--depth", type=int, default=None)
    q.set_defaults(fn=_cmd_cycles_drive)

    p = sub.add_parser("ex", help="extremal number at one size (or a table up to --n-to)")
    p.add_argument("pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-to", type=int, default=None, help="emit the table for n..n-to")
    p.add_argument("--mode", choices=("exact", "bnb", "random"), default="bnb")
    p.set_defaults(fn=_cmd_ex)

    p = sub.add_parser("verify-suite", help="run the acceptance checks")
    p.add_argument("--filter", default=None)
    p.set_defaults(fn=_cmd_verify_suite)

    return parser


def dispatch(argv) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself; --help exits 0
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except PatexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; the exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
