"""Check or re-pin the golden files under `tests/golden/`:

    PYTHONPATH=src python tools/golden.py check|pin [NAME ...]

Standard library only. `RENDERERS` maps each file to the function that
renders its bytes. `check` renders the named files (default: all), prints
where each first differs and exits 1 if any does; `pin` rewrites them. The
tests import the renderers and compare through `first_difference`.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from itertools import product
from pathlib import Path

from patex.acceptance import COLUMN_2_PARTITE, DOUBLY_2_PARTITE, K22, SIX_CYCLES_3X3, CheckResult, run_suite
from patex.cli import CACHE_ENV, dispatch
from patex.matrix import ZeroOneMatrix, random_matrix
from patex.rng import SplitMix64
from patex.search import exact_ex

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("extremal", "drivers", "queries")


def first_difference(name: str, got: str) -> str | None:
    """None when `got` is the golden file `name` byte for byte; otherwise
    the file, line, golden text and new text where they first differ and,
    in the CLI corpus, the `$ patex ...` case that line belongs to."""
    want = (GOLDEN / name).read_text()
    if got == want:
        return None
    new, old = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (g, w) in enumerate(zip(new, old)) if g != w), min(len(new), len(old)))
    case = next((f", case `{line[2:].rstrip()}`" for line in reversed(new[: i + 1]) if line.startswith("$ patex ")), "")
    golden, now = (lines[i].rstrip("\n") if i < len(lines) else "(end of file)" for lines in (old, new))
    return f"{name} line {i + 1}{case}:\n  golden: {golden}\n  new:    {now}"


def render_table() -> str:
    """exact_ex on every nonzero pattern up to 3x3 at n = 3, 4 and 5."""
    lines = []
    for n, (rows, cols) in product((3, 4, 5), product((1, 2, 3), repeat=2)):
        for bits in range(1, 1 << (rows * cols)):
            a = ZeroOneMatrix([bits >> (i * cols) & ((1 << cols) - 1) for i in range(rows)], cols)
            rec = exact_ex(n, a)
            doc = {
                "pattern": "/".join(a.row_strings()), "n": n, "value": rec.value, "status": rec.status,
                "tailBounds": rec.provenance["tailBounds"], "nodes": rec.provenance["nodes"],
                "witness": "/".join(rec.witness.row_strings()),
            }
            lines.append(json.dumps(doc, separators=(",", ":")) + "\n")
    return "".join(lines)


# cli_reports.txt: each of CASES run through `dispatch` in a directory holding INPUTS
def _text(m: ZeroOneMatrix) -> str:
    return "\n".join(m.row_strings())


INPUTS = {
    "host.pat": _text(ZeroOneMatrix.ones(4, 4)),
    "fixture.pat": _text(COLUMN_2_PARTITE),
    "k22.pat": _text(K22),
    "ones5x5.pat": _text(ZeroOneMatrix.ones(5, 5)),
    "ones3x4.pat": _text(ZeroOneMatrix.ones(3, 4)),
    "ones2x6.pat": _text(ZeroOneMatrix.ones(2, 6)),
    "tall.pat": "\n".join(["111"] * 1100),
    "pair.pat": "11",
    "column.pat": "1\n1",
    "row.pat": "1010",
    "doubly.pat": _text(DOUBLY_2_PARTITE),
    "six-cycle-a.pat": _text(SIX_CYCLES_3X3[0]),
    "random16.pat": _text(random_matrix(SplitMix64(5), 16, 16, 0.5)),
    "random64.pat": _text(random_matrix(SplitMix64(0x99), 64, 64, 0.3)),
    "not-utf8.pat": b"1\xff\n",
    # one t-edge (row 1, columns 1-4) in 64 columns: the t-partite search
    # must cut every prefix rather than try each choice of the first parts
    "oneedge64.pat": "\n".join(["1111" + "0" * 60] + ["0" * 64] * 63),
    # 2-balanced, with no proper K22
    "alt.pat": "10\n01\n10\n01",
}

MODES = ("thm21", "thm12", "thm11")

# Reports that the corpus holds in JSON (the default), CSV and text.
REPORTS = [
    "classify fixture.pat",
    "classify k22.pat",
    "contains fixture.pat k22.pat",
    "contains fixture.pat ones5x5.pat",
    "count host.pat --u 2 --t 2 --bounds",
    "tcut fixture.pat --t 2 --s 1 --trials 2000",
    *(f"increment host.pat k22.pat --mode {mode} --k 2" for mode in MODES),
    "cycles enumerate --length 6",
    "cycles embed host.pat k22.pat",
    "cycles dichotomy host.pat --k 2 --c 0.2 --r 2 --s 2",
    "cycles drive host.pat k22.pat --k 2 --c 0.2",
    "ex k22.pat --n 3",
    "ex k22.pat --n 4 --mode exact",
    "--seed 17 ex k22.pat --n 8 --mode random",
    "ex k22.pat --n 2 --n-to 3",
]

CASES = [fmt + argv for argv in REPORTS for fmt in ("", "--format csv ", "--format text ")] + [
    # values at the edge of the float range, ties and budgets
    "count ones3x4.pat --u 2 --t 2 --bounds",
    "count tall.pat --u 550 --t 2 --bounds",
    "tcut ones2x6.pat --t 400 --s 1",
    "--seed 137 tcut row.pat --t 2 --s 1 --trials 49",
    "tcut fixture.pat --t 2 --s 1 --trials 0",
    "tcut oneedge64.pat --t 4 --s 2 --trials 100",
    "count host.pat --u 2 --t 2",
    "cycles embed alt.pat k22.pat",
    *(f"increment host.pat k22.pat --mode thm21 --k 2 --epsilon {eps}" for eps in ("1e-320", "0.0001")),
    "increment tall.pat pair.pat --mode thm21 --k 2 --u 550 --depth 0",
    f"increment host.pat fixture.pat --mode thm21 --k {10**400}",
    *(f"increment random16.pat doubly.pat --mode {m} --k 2 --epsilon {e}" for e in ("400", "1e300") for m in MODES),
    "increment random64.pat six-cycle-a.pat --mode thm21 --k 4",
    "cycles dichotomy host.pat --k 2 --c 5 --r 2 --s 2",
    *(f"--budget {budget} ex k22.pat --n 6" for budget in ("0", "1023")),
    "--budget 2000000 ex six-cycle-a.pat --n 7",
    "ex k22.pat --n 3 --n-to 3",
    "ex k22.pat --n 7 --mode exact",
    # error lines
    "tcut fixture.pat --t 0 --s 1",
    "tcut fixture.pat --t 2 --s 0",
    "tcut fixture.pat --t 2 --s 1 --trials -5",
    *(f"increment host.pat k22.pat --mode thm21 --k 2 --epsilon {eps}" for eps in ("nan", "inf")),
    "increment host.pat k22.pat --mode thm21 --k 2 --depth -3",
    *(f"increment host.pat column.pat --mode thm21 --k 2 --u {u} --depth 0" for u in ("0", "-1")),
    "increment host.pat k22.pat --mode thm11 --k 2 --u 5",
    "cycles enumerate --length 3",
    *(f"cycles drive host.pat k22.pat --k {k} --c 1" for k in ("0", "1")),
    "cycles drive host.pat k22.pat --k 2 --c 1 --depth -1",
    "cycles drive host.pat k22.pat --k 2 --c nan",
    "cycles drive host.pat k22.pat --k 2 --c inf --depth 0",
    "cycles dichotomy host.pat --k 2 --c nan --r 2 --s 2",
    "cycles drive host.pat k22.pat --k 2 --c 0",
    "cycles dichotomy host.pat --k 2 --c -0.5 --r 2 --s 2",
    "--budget -1 ex k22.pat --n 4",
    *(f"--budget -1 ex k22.pat --n 3 --mode {mode}" for mode in ("exact", "random")),
    "ex k22.pat --n 5 --n-to 3",
    *(f"ex k22.pat --n 2 --n-to 3 --mode {mode}" for mode in ("exact", "random")),
    "--cache-dir k22.pat ex k22.pat --n 3",
    "verify-suite --filter no-such-check",
    "count not-utf8.pat --u 1 --t 1",
    "tcut missing.pat --t 2 --s 1",
    "classify .",
]


@contextlib.contextmanager
def corpus_directory():
    """A fresh working directory holding INPUTS, with no cache directory in
    the environment; the old working directory and environment come back."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        for name, content in INPUTS.items():
            (Path(directory) / name).write_bytes(content if isinstance(content, bytes) else content.encode())
        os.chdir(directory)
        cache = os.environ.pop(CACHE_ENV, None)
        try:
            yield Path(directory)
        finally:
            os.chdir(cwd)
            if cache is not None:
                os.environ[CACHE_ENV] = cache


def run_corpus() -> dict[str, tuple[int, str, str]]:
    """(exit code, stdout, stderr) of each case, run in `corpus_directory`."""
    reports = {}
    with corpus_directory():
        for argv in CASES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(argv.split())
            reports[argv] = code, out.getvalue(), err.getvalue()
    return reports


def corpus_text(reports: dict[str, tuple[int, str, str]]) -> str:
    """Each case's command line, stdout after `1|`, stderr after `2|` and exit code."""
    lines = []
    for argv in CASES:
        code, out, err = reports[argv]
        lines.append(f"$ patex {argv}")
        for tag, text in (("1|", out), ("2|", err)):
            assert text == "" or text.endswith("\n"), f"patex {argv}: output ends inside a line"
            lines += [tag + line for line in text.split("\n")[:-1]]
        lines.append(f"exit {code}")
    return "\n".join(lines) + "\n"


def capture_suite(filter_substring: str | None = None) -> tuple[list[CheckResult], str]:
    """run_suite's results and the report it prints on stdout; timings on stderr are dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        results = run_suite(filter_substring)
    return results, out.getvalue()


@contextlib.contextmanager
def perfbench_modules():
    """perfbench's own directory on the path; its modules dropped after."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path.remove(str(PERFBENCH))
        for module in ("spans", "worker", "workloads", "oracles", "pinned"):
            sys.modules.pop(module, None)


def digest_line(workload: str) -> str:
    """The workload's line of `perfbench_digests.txt`: the output digest of
    one pass at seed 1, as `perfbench/run.py --workload W --seed 1` reports."""
    with perfbench_modules(), tempfile.TemporaryDirectory() as directory:
        import worker

        wl = getattr(worker.workloads, workload)(SplitMix64(1), Path(directory))
        wl.reset()
        return f"{workload} {worker.digest_and_counts(wl, [op.call() for op in wl.ops])[0]}\n"


RENDERERS = {
    "exact_ex_small.jsonl": render_table,
    "cli_reports.txt": lambda: corpus_text(run_corpus()),
    "verify_suite.out": lambda: capture_suite()[1],
    "perfbench_digests.txt": lambda: "".join(map(digest_line, WORKLOADS)),
}


def main(action: str = "", *names: str) -> int:
    if action not in ("check", "pin") or not set(names) <= RENDERERS.keys():
        print(f"usage: golden.py check|pin [NAME ...], NAME one of {', '.join(RENDERERS)}", file=sys.stderr)
        return 2
    differs = False
    for name in names or RENDERERS:
        got = RENDERERS[name]()
        if action == "pin":
            (GOLDEN / name).write_text(got)
        report = first_difference(name, got)
        differs |= report is not None
        print(report or f"{name}: matches the pinned bytes")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
