"""CLI reports pinned in one golden corpus, and the fields of them that a
re-pin must keep. Each line of `CASES` runs once through `dispatch`, in a
fresh working directory holding `INPUTS`, so error lines name bare file
names; `golden/cli_reports.txt` holds each case's stdout (after `1|`),
stderr (after `2|`) and exit code. Re-pin with `PYTHONPATH=src python
tests/test_cli.py` and name each moved case in CHANGES.md. Tests that
compare a report with an independent computation, need cache files, a
subprocess or a closed pipe, or print argparse text (which differs across
Python versions) run their own commands.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import COLUMN_2_PARTITE, DOUBLY_2_PARTITE, K22, SIX_CYCLES_3X3, random_matrix
from patex.cli import CACHE_ENV, dispatch, main
from patex.count import stepping_bound
from patex.matrix import Embedding, ZeroOneMatrix, verify_embedding
from patex.ohypergraph import build_column_hypergraph
from patex.rng import SplitMix64

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.txt"


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


def _write_inputs(directory: Path) -> None:
    for name, content in INPUTS.items():
        (directory / name).write_bytes(content if isinstance(content, bytes) else content.encode())


def _run_corpus(directory: Path) -> dict[str, tuple[int, str, str]]:
    """(exit code, stdout, stderr) of each case, run in `directory`."""
    _write_inputs(directory)
    reports = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        mp.delenv(CACHE_ENV, raising=False)
        for argv in CASES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(argv.split())
            reports[argv] = code, out.getvalue(), err.getvalue()
    return reports


def _corpus(reports) -> str:
    lines = []
    for argv in CASES:
        code, out, err = reports[argv]
        lines.append(f"$ patex {argv}")
        for tag, text in (("1|", out), ("2|", err)):
            assert text == "" or text.endswith("\n"), f"patex {argv}: output ends inside a line"
            lines += [tag + line for line in text.split("\n")[:-1]]
        lines.append(f"exit {code}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return _run_corpus(tmp_path_factory.mktemp("corpus"))


def test_corpus(reports):
    got, want = _corpus(reports).splitlines(), GOLDEN.read_text().splitlines()
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            case = next(line for line in reversed(got[: i + 1]) if line.startswith("$ patex "))
            pytest.fail(f"`{case[2:]}` differs at corpus line {i + 1}:\n  golden: {w}\n  now:    {g}")
    assert len(got) == len(want), "the corpus and the case table end at different cases"


def _docs(report) -> list:
    """The JSON lines of a case that exits 0 with nothing on stderr."""
    code, out, err = report
    assert code == 0 and err == ""
    return [json.loads(line) for line in out.splitlines()]


def _error(report) -> str:
    """The stderr of a case that exits 1 with no report."""
    code, out, err = report
    assert code == 1 and out == ""
    return err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A fresh working directory holding the corpus inputs."""
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_ENV, raising=False)
    return tmp_path


def run(capsys, argv):
    code = dispatch(argv)
    return code, capsys.readouterr().out


class TestClassify:
    def test_fixture_report(self, reports):
        (doc,) = _docs(reports["classify fixture.pat"])
        assert doc["minColumnParts"]["count"] == 2
        assert doc["minColumnParts"]["cuts"] == [2]
        assert doc["isCycle"] is False and doc["windingProfile"] is None
        assert ZeroOneMatrix.from_json_dict(doc["pattern"]) == COLUMN_2_PARTITE

    def test_cycle_report_includes_winding(self, reports):
        (doc,) = _docs(reports["classify k22.pat"])
        assert doc["isCycle"] and doc["isXMonotone"] and doc["isPositiveCycle"]
        assert doc["windingProfile"]["faces"] == [[1]]


class TestContains:
    def test_positive(self, reports):
        (doc,) = _docs(reports["contains fixture.pat k22.pat"])
        assert doc["contains"]
        assert verify_embedding(COLUMN_2_PARTITE, K22, Embedding.from_json_dict(doc["embedding"]))

    def test_negative(self, reports):
        assert _docs(reports["contains fixture.pat ones5x5.pat"]) == [{"contains": False}]


class TestCount:
    def test_count_with_bounds(self, reports):
        (doc,) = _docs(reports["count host.pat --u 2 --t 2 --bounds"])
        assert doc["count"] == 36
        assert doc["supersatBound"]["applicable"] is False
        assert doc["steppingBound"]["applicable"] is True
        assert doc["steppingBound"]["threshold"] == 12

    def test_non_square_host_has_no_supersaturation_bound(self, reports):
        (doc,) = _docs(reports["count ones3x4.pat --u 2 --t 2 --bounds"])
        assert doc["count"] == 18  # C(3,2) row pairs x C(4,2) column pairs
        assert doc["supersatBound"] is None
        assert doc["steppingBound"] == stepping_bound(18, 4, 2, 2).to_json_dict()

    def test_stepping_bound_past_the_float_range_is_inf(self, reports):
        # 3 binom(1100, 550) copies of K_{550,2}, about 10^330, exceed a float
        (doc,) = _docs(reports["count tall.pat --u 550 --t 2 --bounds"])
        assert doc["steppingBound"]["applicable"] and doc["steppingBound"]["bound"] == "inf"


class TestTcut:
    def test_report_shape(self, reports):
        (doc,) = _docs(reports["tcut fixture.pat --t 2 --s 1 --trials 2000"])
        assert doc["edgeCount"] == 3
        assert doc["foundParts"] is not None
        assert all(entry["withinTolerance"] for entry in doc["monteCarlo"])

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_edges_match_full_hypergraph(self, capsys, tmp_path, t):
        rng = SplitMix64(0x7C07)
        hosts = [random_matrix(rng, 6, 7, 0.5) for _ in range(3)]
        hosts += [COLUMN_2_PARTITE, ZeroOneMatrix.parse("101\n011")]
        for i, m in enumerate(hosts):
            path = tmp_path / f"host{i}.pat"
            path.write_text(_text(m))
            code, out = run(capsys, ["tcut", str(path), "--t", str(t), "--s", "1", "--trials", "1"])
            doc = json.loads(out)
            ref = build_column_hypergraph(m, t, 1)
            assert code == 0
            assert doc["edgeCount"] == len(ref)
            assert [entry["edge"] for entry in doc["monteCarlo"]] == [list(e) for e in sorted(ref)[:5]]
            if t > m.cols:
                assert doc["edgeCount"] == 0 and doc["monteCarlo"] == []

    @pytest.mark.parametrize("t, s", [(0, 1), (2, 0)])
    def test_domain_error_exit_one(self, reports, t, s):
        assert _error(reports[f"tcut fixture.pat --t {t} --s {s}"]).startswith("error:")

    def test_threshold_past_the_float_range_is_inf(self, reports):
        # 2 * 6^(400 - 1/400) is past the float range.
        (doc,) = _docs(reports["tcut ones2x6.pat --t 400 --s 1"])
        assert doc["threshold"]["threshold"] == "inf"

    def test_three_sigma_tie_is_within_tolerance(self, reports):
        # 35 hits of 49 on an edge with p = 1/2 is exactly three sigma out:
        # |35/49 - 1/2| = 3/14 = 3 * sqrt((1/4) / 49).
        (doc,) = _docs(reports["--seed 137 tcut row.pat --t 2 --s 1 --trials 49"])
        assert doc["monteCarlo"] == [
            {"edge": [1, 3], "exact": "1/2", "trials": 49, "hits": 35, "frequency": 35 / 49, "withinTolerance": True}
        ]

    def test_negative_trials_rejected(self, reports):
        assert _error(reports["tcut fixture.pat --t 2 --s 1 --trials -5"]).startswith("error:")

    def test_zero_trials_report_no_frequency(self, reports):
        (doc,) = _docs(reports["tcut fixture.pat --t 2 --s 1 --trials 0"])
        assert len(doc["monteCarlo"]) == 3
        for entry in doc["monteCarlo"]:
            assert entry["hits"] == 0
            assert entry["frequency"] is None and entry["withinTolerance"] is None


THM21 = "increment host.pat k22.pat --mode thm21 --k 2"


class TestIncrement:
    def test_json_lines_trace(self, reports):
        first, *_, summary = _docs(reports[THM21])
        assert first["level"] == 0
        assert summary["stopReason"] == "embedded"
        assert summary["embedding"] is not None

    def test_text_and_csv_traces(self, reports):
        code, out, _ = reports["--format text " + THM21]
        assert code == 0
        assert "stopReason = embedded" in out.splitlines()
        assert "embedding.rowMap = [1, 3]" in out.splitlines()
        assert "params.depth = null" in out.splitlines()
        (line,) = [line for line in out.splitlines() if line.startswith("levels = ")]
        assert [lv["branch"] for lv in json.loads(line[len("levels = "):])] == ["embedded"]
        code, out, _ = reports["--format csv " + THM21]
        header, row = csv.reader(out.splitlines())
        cells = dict(zip(header, row))
        assert code == 0 and cells["stopReason"] == "embedded" and cells["mode"] == "thm21"
        assert cells["params.depth"] == cells["params.u"] == "null"
        assert json.loads(cells["embedding.rowMap"]) == [1, 3]
        assert [lv["branch"] for lv in json.loads(cells["levels"])] == ["embedded"]

    def test_negative_depth_rejected(self, reports):
        assert _error(reports[THM21 + " --depth -3"]) == "error: depth must be at least 0, got -3\n"

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, reports, epsilon):
        err = _error(reports[f"{THM21} --epsilon {epsilon}"])
        assert err.startswith("error:") and "epsilon" in err

    def test_epsilon_past_the_float_range(self, reports):
        # 1/eps is past the float range: k is not materialized, every log10
        # constant is inf, and no level meets the increment precondition.
        *levels, summary = _docs(reports[THM21 + " --epsilon 1e-320"])
        assert summary["stopReason"] == "embedded"
        constants = summary["constants"]
        assert constants["epsilon"] == 1e-320 and constants["k"] is None
        assert [constants[f] for f in ("log10_k", "log10_C0", "log10_Cprime", "log10_C")] == ["inf"] * 4
        assert [lv["checks"]["incrementThresholdLog10"] for lv in levels] == ["inf"]
        assert [lv["checks"]["incrementPreconditionHolds"] for lv in levels] == [False]

    def test_chain_bound_past_the_float_range_is_inf(self, reports):
        # n_base = 3 binom(1100, 550) copies of K_{550,2}, about 10^330
        level, summary = _docs(reports["increment tall.pat pair.pat --mode thm21 --k 2 --u 550 --depth 0"])
        assert summary["stopReason"] == "depth-reached"
        assert level["checks"]["chainLowerBound"] == "inf" and level["checks"]["chainHolds"] is True

    @pytest.mark.parametrize("u", ["0", "-1"])
    def test_non_positive_u_rejected(self, reports, u):
        err = _error(reports[f"increment host.pat column.pat --mode thm21 --k 2 --u {u} --depth 0"])
        assert err == f"error: u must be positive, got {u}\n"

    def test_u_rejected_in_thm11(self, reports):
        err = _error(reports["increment host.pat k22.pat --mode thm11 --k 2 --u 5"])
        assert err == "error: thm11 chooses the width per level; u is not accepted\n"

    def test_tiny_epsilon_trace(self, reports):
        # k = 16^10000 would print past str()'s default digit limit.
        assert _docs(reports[THM21 + " --epsilon 0.0001"])[-1]["constants"]["k"] is None

    def test_k_past_the_float_range(self, reports):
        # k = 10^400 has no float; its least root 10 is found in integers.
        level, summary = _docs(reports[f"increment host.pat fixture.pat --mode thm21 --k {10**400}"])
        assert level["level"] == 0 and summary["stopReason"] == "divisibility"

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("epsilon", ["400", "1e300"])
    def test_large_epsilon_trace_or_error_line(self, reports, mode, epsilon):
        report = reports[f"increment random16.pat doubly.pat --mode {mode} --k 2 --epsilon {epsilon}"]
        if mode == "thm11":
            assert _error(report).startswith("error: epsilon too large for the schedule")
        else:
            docs = _docs(report)
            assert docs[-1]["stopReason"] == "no-copies" and len(docs) >= 4


class TestCycles:
    def test_enumerate(self, reports):
        (doc,) = _docs(reports["cycles enumerate --length 6"])
        assert doc["count"] == 6 and len(doc["matrices"]) == 6

    def test_embed(self, reports):
        (doc,) = _docs(reports["cycles embed host.pat k22.pat"])
        assert doc["embedded"] and doc["proper"]

    def test_dichotomy(self, reports):
        (doc,) = _docs(reports["cycles dichotomy host.pat --k 2 --c 0.2 --r 2 --s 2"])
        assert doc["branch"] in ("dense", "balanced")
        assert doc["preconditionHeld"] is True

    def test_dichotomy_without_heavy_columns(self, reports):
        # c = 5: every column of the all-ones 4x4 host has 4 < 5 ones, so the
        # dense rule runs on no column and takes band 1 and columns 1..2
        (doc,) = _docs(reports["cycles dichotomy host.pat --k 2 --c 5 --r 2 --s 2"])
        assert (doc["branch"], doc["rows"], doc["cols"], doc["weight"]) == ("dense", [1, 2], [1, 2], 4)
        assert doc["details"] == {
            "alpha": 0.25, "balancedWeight": 0, "band": 1, "case": 1,
            "imbalancedWeight": 0, "lightThreshold": 5.0, "survivingColumns": 0,
        }

    def test_drive(self, reports):
        assert _docs(reports["cycles drive host.pat k22.pat --k 2 --c 0.2"])[-1]["stopReason"] == "embedded"

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_drive_rejects_k_below_two(self, reports, k):
        assert _error(reports[f"cycles drive host.pat k22.pat --k {k} --c 1"]) == "error: k must be at least 2\n"

    def test_drive_rejects_negative_depth(self, reports):
        err = _error(reports["cycles drive host.pat k22.pat --k 2 --c 1 --depth -1"])
        assert err == "error: depth must be at least 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["drive", "host.pat", "k22.pat", "--k", "2", "--c", "nan"],
        ["drive", "host.pat", "k22.pat", "--k", "2", "--c", "inf", "--depth", "0"],
        ["dichotomy", "host.pat", "--k", "2", "--c", "nan", "--r", "2", "--s", "2"],
    ])
    def test_non_finite_c_rejected(self, reports, argv):
        assert _error(reports[" ".join(["cycles"] + argv)]).startswith("error: c must be finite")

    @pytest.mark.parametrize("argv", [
        ["drive", "host.pat", "k22.pat", "--k", "2", "--c", "0"],
        ["dichotomy", "host.pat", "--k", "2", "--c", "-0.5", "--r", "2", "--s", "2"],
    ])
    def test_c_at_most_zero_rejected(self, reports, argv):
        assert _error(reports[" ".join(["cycles"] + argv)]).startswith("error: c must be finite and positive")


class TestEx:
    def test_exact_mode_value(self, reports):
        (doc,) = _docs(reports["ex k22.pat --n 4 --mode exact"])
        assert doc["value"] == 9 and doc["status"] == "exact"

    def test_bnb_with_cache(self, capsys, workdir):
        argv = ["--cache-dir", "cache", "ex", "k22.pat", "--n", "3", "--mode", "bnb"]
        code1, out1 = run(capsys, argv)
        code2, out2 = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["value"] == 6

    def test_warm_query_leaves_cache_file_alone(self, capsys, workdir):
        for mode in ("bnb", "exact"):
            cache_dir = workdir / f"cache-{mode}"
            argv = ["--cache-dir", str(cache_dir), "ex", "k22.pat", "--n", "3", "--mode", mode]
            _, cold = run(capsys, argv)
            (path,) = cache_dir.glob("*.json")
            before = path.stat()
            code, warm = run(capsys, argv)
            after = path.stat()
            assert code == 0 and warm == cold
            assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_budget_exhaustion_exit_code(self, reports):
        # --budget counts search nodes: a budget-limited record's nodes is its budget
        for budget, value, upper, tail in ((0, 0, 36, []), (1023, 15, 20, [6, 7, 9, 12, 14])):
            code, out, _ = reports[f"--budget {budget} ex k22.pat --n 6"]
            doc = json.loads(out)
            assert code == 2 and (doc["status"], doc["value"]) == ("lowerBound", value)
            assert doc["provenance"] == {
                "budgetNodes": budget, "gap": upper - value, "nodes": budget,
                "solver": "branch-and-bound", "tailBounds": tail, "upperBound": upper,
            }
        code, out, _ = reports["--budget 2000000 ex six-cycle-a.pat --n 7"]
        doc = json.loads(out)
        assert code == 2 and (doc["value"], doc["provenance"]["upperBound"]) == (23, 39)
        assert ZeroOneMatrix.from_json_dict(doc["witness"]).row_strings() == (
            "0000000", "0000000", "1111111", "1110100", "1101010", "0111001", "0001111",
        )

    @pytest.mark.parametrize("budget", ["nan", "-1", "0.5"])
    def test_budget_outside_zero_to_inf_rejected(self, capsys, workdir, budget):
        # argparse refuses a budget that is no int, such as seconds;
        # check_budget refuses a negative one
        assert dispatch(["--budget", budget, "ex", "k22.pat", "--n", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "budget" in captured.err

    @pytest.mark.parametrize("mode", ["exact", "random"])
    def test_budget_checked_in_every_mode(self, reports, mode):
        err = _error(reports[f"--budget -1 ex k22.pat --n 3 --mode {mode}"])
        assert err == "error: budget must be a number of search nodes >= 0, got -1\n"

    def test_budget_checked_on_a_warm_cache_hit(self, capsys, workdir):
        cache = ["--cache-dir", "cache"]
        code, _ = run(capsys, cache + ["ex", "k22.pat", "--n", "3"])
        assert code == 0
        code = dispatch(cache + ["--budget", "-1", "ex", "k22.pat", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: budget must be a number of search nodes >= 0, got -1\n"

    def test_table_as_csv(self, reports):
        code, out, _ = reports["--format csv ex k22.pat --n 2 --n-to 3"]
        assert code == 0
        assert out.splitlines() == ["n,value,status,witness", "2,3,exact,11|10", "3,6,exact,110|101|011"]

    def test_one_point_range(self, reports):
        (doc,) = _docs(reports["ex k22.pat --n 3 --n-to 3"])
        assert [rec["value"] for rec in doc["records"]] == [6]

    def test_empty_range_rejected(self, reports):
        assert _error(reports["ex k22.pat --n 5 --n-to 3"]).startswith("error:")

    @pytest.mark.parametrize("mode", ["exact", "random"])
    def test_table_rejects_other_modes(self, reports, mode):
        err = _error(reports[f"ex k22.pat --n 2 --n-to 3 --mode {mode}"])
        assert err.startswith("error:") and f"--mode {mode}" in err

    def test_brute_cap_exceeded(self, reports):
        code, out, _ = reports["ex k22.pat --n 7 --mode exact"]
        assert code == 2 and out == ""


class TestErrors:
    def test_unknown_command_exit_one(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_domain_error_exit_one(self, reports):
        _error(reports["cycles enumerate --length 3"])

    def test_verify_suite_filter_matching_nothing(self, reports):
        err = _error(reports["verify-suite --filter no-such-check"])
        assert err.startswith("error:") and "no-such-check" in err

    def test_host_file_not_utf8(self, reports):
        assert _error(reports["count not-utf8.pat --u 1 --t 1"]) == "error: cannot read not-utf8.pat: not UTF-8 text\n"

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0

    def test_missing_path_is_an_input_error(self, reports):
        err = _error(reports["tcut missing.pat --t 2 --s 1"])
        assert err.startswith("error: ") and "missing.pat" in err

    def test_directory_path_is_an_input_error(self, reports):
        err = _error(reports["classify ."])
        assert err.startswith("error: ") and "cannot read ." in err

    @pytest.mark.parametrize("via_env", [False, True])
    def test_cache_dir_that_is_a_file(self, capsys, workdir, monkeypatch, via_env):
        blocker = workdir / "somefile"
        blocker.write_text("")
        argv = ["ex", "k22.pat", "--n", "3"]
        if via_env:
            monkeypatch.setenv(CACHE_ENV, str(blocker))
        else:
            argv = ["--cache-dir", str(blocker)] + argv
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot use cache directory {blocker}: File exists\n"


def _module_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestModuleEntryPoint:
    def test_python_m_patex_runs_the_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "patex", "verify-suite", "--filter", "constants-arithmetic"],
            capture_output=True, text=True, env=_module_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS constants-arithmetic" in proc.stdout

    def test_reader_that_closes_the_pipe_early(self):
        # The reader closes its end before the child has started up, so the
        # child's first write meets a broken pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "patex", "cycles", "enumerate", "--length", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
        )
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_closed_pipe_in_process(self, capsys, monkeypatch, tmp_path):
        # The same branch again, in a process the line audit traces.
        with open(tmp_path / "stdout", "w") as target:

            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return target.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            monkeypatch.setattr(sys, "argv", ["patex", "cycles", "enumerate", "--length", "6"])
            with pytest.raises(SystemExit) as exc:
                main()
        assert exc.value.code == 1
        assert capsys.readouterr().err == ""

    def test_main_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["patex", "verify-suite", "--filter", "canonical-fixtures"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert "PASS canonical-fixtures" in capsys.readouterr().out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        GOLDEN.write_text(_corpus(_run_corpus(Path(directory))))
