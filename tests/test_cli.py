import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import COLUMN_2_PARTITE, DOUBLY_2_PARTITE, K22, random_matrix
from patex.cli import dispatch, main
from patex.count import stepping_bound
from patex.matrix import Embedding, ZeroOneMatrix, verify_embedding
from patex.ohypergraph import build_column_hypergraph
from patex.rng import SplitMix64
from patex.search import ExtremalRecord


@pytest.fixture
def files(tmp_path):
    host = tmp_path / "host.pat"
    host.write_text("\n".join(ZeroOneMatrix.ones(4, 4).row_strings()))
    fixture = tmp_path / "fixture.pat"
    fixture.write_text("\n".join(COLUMN_2_PARTITE.row_strings()))
    k22 = tmp_path / "k22.pat"
    k22.write_text("\n".join(K22.row_strings()))
    return {"host": str(host), "fixture": str(fixture), "k22": str(k22), "dir": tmp_path}


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_fixture_report(self, capsys, files):
        code, out = run(capsys, ["classify", files["fixture"]])
        assert code == 0
        doc = json.loads(out)
        assert doc["minColumnParts"]["count"] == 2
        assert doc["minColumnParts"]["cuts"] == [2]
        assert doc["isCycle"] is False and doc["windingProfile"] is None
        assert ZeroOneMatrix.from_json_dict(doc["pattern"]) == COLUMN_2_PARTITE

    def test_cycle_report_includes_winding(self, capsys, files):
        code, out = run(capsys, ["classify", files["k22"]])
        doc = json.loads(out)
        assert doc["isCycle"] and doc["isXMonotone"] and doc["isPositiveCycle"]
        assert doc["windingProfile"]["faces"] == [[1]]


class TestContains:
    def test_positive(self, capsys, files):
        code, out = run(capsys, ["contains", files["fixture"], files["k22"]])
        doc = json.loads(out)
        assert code == 0 and doc["contains"]
        emb = Embedding.from_json_dict(doc["embedding"])
        assert verify_embedding(COLUMN_2_PARTITE, K22, emb)

    def test_negative(self, capsys, files, tmp_path):
        big = tmp_path / "big.pat"
        big.write_text("\n".join(ZeroOneMatrix.ones(5, 5).row_strings()))
        code, out = run(capsys, ["contains", files["fixture"], str(big)])
        assert json.loads(out) == {"contains": False}


class TestCount:
    def test_count_with_bounds(self, capsys, files):
        code, out = run(capsys, ["count", files["host"], "--u", "2", "--t", "2", "--bounds"])
        doc = json.loads(out)
        assert doc["count"] == 36
        assert doc["supersatBound"]["applicable"] is False
        assert doc["steppingBound"]["applicable"] is True
        assert doc["steppingBound"]["threshold"] == 12

    def test_non_square_host_has_no_supersaturation_bound(self, capsys, tmp_path):
        host = tmp_path / "wide.pat"
        host.write_text("\n".join(ZeroOneMatrix.ones(3, 4).row_strings()))
        code, out = run(capsys, ["count", str(host), "--u", "2", "--t", "2", "--bounds"])
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 18  # C(3,2) row pairs x C(4,2) column pairs
        assert doc["supersatBound"] is None
        assert doc["steppingBound"] == stepping_bound(18, 4, 2, 2).to_json_dict()

    def test_stepping_bound_past_the_float_range_is_inf(self, capsys, tmp_path):
        # 3 binom(1100, 550) copies of K_{550,2}, about 10^330, exceed a float
        host = tmp_path / "tall.pat"
        host.write_text("\n".join(["111"] * 1100))
        code, out = run(capsys, ["count", str(host), "--u", "550", "--t", "2", "--bounds"])
        doc = json.loads(out)
        assert code == 0 and doc["steppingBound"]["applicable"] and doc["steppingBound"]["bound"] == "inf"


class TestTcut:
    def test_report_shape(self, capsys, files):
        code, out = run(capsys, ["tcut", files["fixture"], "--t", "2", "--s", "1", "--trials", "2000"])
        doc = json.loads(out)
        assert code == 0
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
            path.write_text("\n".join(m.row_strings()))
            code, out = run(capsys, ["tcut", str(path), "--t", str(t), "--s", "1", "--trials", "1"])
            doc = json.loads(out)
            ref = build_column_hypergraph(m, t, 1)
            assert code == 0
            assert doc["edgeCount"] == len(ref)
            assert [entry["edge"] for entry in doc["monteCarlo"]] == [list(e) for e in sorted(ref)[:5]]
            if t > m.cols:
                assert doc["edgeCount"] == 0 and doc["monteCarlo"] == []

    @pytest.mark.parametrize("t, s", [(0, 1), (2, 0)])
    def test_domain_error_exit_one(self, capsys, files, t, s):
        code = dispatch(["tcut", files["fixture"], "--t", str(t), "--s", str(s)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")

    def test_threshold_past_the_float_range_is_inf(self, capsys, tmp_path):
        # 2 * 6^(400 - 1/400) is past the float range.
        path = tmp_path / "wide.pat"
        path.write_text("\n".join(ZeroOneMatrix.ones(2, 6).row_strings()))
        code, out = run(capsys, ["tcut", str(path), "--t", "400", "--s", "1"])
        assert code == 0
        assert json.loads(out)["threshold"]["threshold"] == "inf"

    def test_three_sigma_tie_is_within_tolerance(self, capsys, tmp_path):
        # 35 hits of 49 on an edge with p = 1/2 is exactly three sigma out:
        # |35/49 - 1/2| = 3/14 = 3 * sqrt((1/4) / 49).
        path = tmp_path / "row.pat"
        path.write_text("1010")
        code, out = run(capsys, ["--seed", "137", "tcut", str(path), "--t", "2", "--s", "1", "--trials", "49"])
        assert code == 0
        assert json.loads(out)["monteCarlo"] == [
            {"edge": [1, 3], "exact": "1/2", "trials": 49, "hits": 35, "frequency": 35 / 49, "withinTolerance": True}
        ]

    def test_negative_trials_rejected(self, capsys, files):
        code = dispatch(["tcut", files["fixture"], "--t", "2", "--s", "1", "--trials", "-5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")

    def test_zero_trials_report_no_frequency(self, capsys, files):
        code, out = run(capsys, ["tcut", files["fixture"], "--t", "2", "--s", "1", "--trials", "0"])
        doc = json.loads(out)
        assert code == 0 and len(doc["monteCarlo"]) == 3
        for entry in doc["monteCarlo"]:
            assert entry["hits"] == 0
            assert entry["frequency"] is None and entry["withinTolerance"] is None


class TestIncrement:
    def test_json_lines_trace(self, capsys, files):
        code, out = run(
            capsys,
            ["increment", files["host"], files["k22"], "--mode", "thm21", "--k", "2"],
        )
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) >= 2
        level0 = json.loads(lines[0])
        assert level0["level"] == 0
        summary = json.loads(lines[-1])
        assert summary["stopReason"] == "embedded"
        assert summary["embedding"] is not None

    def test_text_and_csv_traces(self, capsys, files):
        argv = ["increment", files["host"], files["k22"], "--mode", "thm21", "--k", "2"]
        code, out = run(capsys, ["--format", "text"] + argv)
        assert code == 0
        assert "stopReason = embedded" in out.splitlines()
        assert "embedding.rowMap = [1, 3]" in out.splitlines()
        code, out = run(capsys, ["--format", "csv"] + argv)
        header, row = csv.reader(out.splitlines())
        cells = dict(zip(header, row))
        assert code == 0 and cells["stopReason"] == "embedded" and cells["mode"] == "thm21"
        assert json.loads(cells["embedding.rowMap"]) == [1, 3]
        assert [lv["branch"] for lv in json.loads(cells["levels"])] == ["embedded"]

    def test_text_levels_line_is_json(self, capsys, files):
        argv = ["--format", "text", "increment", files["host"], files["k22"], "--mode", "thm21", "--k", "2"]
        code, out = run(capsys, argv)
        (line,) = [line for line in out.splitlines() if line.startswith("levels = ")]
        levels = json.loads(line[len("levels = "):])
        assert code == 0 and [lv["branch"] for lv in levels] == ["embedded"]

    def test_negative_depth_rejected(self, capsys, files):
        argv = ["increment", files["host"], files["k22"], "--mode", "thm21", "--k", "2", "--depth", "-3"]
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: depth must be at least 0, got -3\n"

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, capsys, files, epsilon):
        argv = ["increment", files["host"], files["k22"], "--mode", "thm21", "--k", "2"]
        code = dispatch(argv + ["--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "epsilon" in captured.err

    def test_epsilon_past_the_float_range(self, capsys, files):
        # 1/eps is past the float range: k is not materialized, every log10
        # constant is inf, and no level meets the increment precondition.
        argv = ["increment", files["host"], files["k22"], "--mode", "thm21", "--k", "2"]
        code, out = run(capsys, argv + ["--epsilon", "1e-320"])
        *levels, summary = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and summary["stopReason"] == "embedded"
        constants = summary["constants"]
        assert constants["epsilon"] == 1e-320 and constants["k"] is None
        assert [constants[f] for f in ("log10_k", "log10_C0", "log10_Cprime", "log10_C")] == ["inf"] * 4
        assert [lv["checks"]["incrementThresholdLog10"] for lv in levels] == ["inf"]
        assert [lv["checks"]["incrementPreconditionHolds"] for lv in levels] == [False]

    def test_chain_bound_past_the_float_range_is_inf(self, capsys, tmp_path):
        # n_base = 3 binom(1100, 550) copies of K_{550,2}, about 10^330
        host, pattern = tmp_path / "tall.pat", tmp_path / "pair.pat"
        host.write_text("\n".join(["111"] * 1100))
        pattern.write_text("11")
        argv = ["increment", str(host), str(pattern), "--mode", "thm21", "--k", "2", "--u", "550", "--depth", "0"]
        code, out = run(capsys, argv)
        level, summary = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and summary["stopReason"] == "depth-reached"
        assert level["checks"]["chainLowerBound"] == "inf" and level["checks"]["chainHolds"] is True

    @pytest.mark.parametrize("u", ["0", "-1"])
    def test_non_positive_u_rejected(self, capsys, files, u):
        column = files["dir"] / "column.pat"
        column.write_text("1\n1")
        argv = ["increment", files["host"], str(column), "--mode", "thm21", "--k", "2"]
        code = dispatch(argv + ["--u", u, "--depth", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: u must be positive, got {u}\n"

    def test_u_rejected_in_thm11(self, capsys, files):
        argv = ["increment", files["host"], files["k22"], "--mode", "thm11", "--k", "2", "--u", "5"]
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: thm11 chooses the width per level; u is not accepted\n"

    def test_tiny_epsilon_trace(self, capsys, files):
        # k = 16^10000 would print past str()'s default digit limit.
        argv = ["increment", files["host"], files["k22"], "--mode", "thm21", "--k", "2"]
        code, out = run(capsys, argv + ["--epsilon", "0.0001"])
        summary = json.loads(out.strip().splitlines()[-1])
        assert code == 0 and summary["constants"]["k"] is None

    def test_k_past_the_float_range(self, capsys, files):
        # k = 10^400 has no float; its least root 10 is found in integers.
        argv = ["increment", files["host"], files["fixture"], "--mode", "thm21", "--k", str(10**400)]
        code = dispatch(argv)
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert json.loads(lines[0])["level"] == 0
        assert json.loads(lines[-1])["stopReason"] == "divisibility"

    @pytest.mark.parametrize("mode", ["thm21", "thm12", "thm11"])
    @pytest.mark.parametrize("epsilon", ["400", "1e300"])
    def test_large_epsilon_trace_or_error_line(self, capsys, files, mode, epsilon):
        host = files["dir"] / "host16.pat"
        host.write_text("\n".join(random_matrix(SplitMix64(5), 16, 16, 0.5).row_strings()))
        pattern = files["dir"] / "doubly.pat"
        pattern.write_text("\n".join(DOUBLY_2_PARTITE.row_strings()))
        argv = ["increment", str(host), str(pattern), "--mode", mode, "--k", "2", "--epsilon", epsilon]
        code = dispatch(argv)
        captured = capsys.readouterr()
        if mode == "thm11":
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error: epsilon too large for the schedule")
        else:
            lines = captured.out.strip().splitlines()
            assert code == 0 and json.loads(lines[-1])["stopReason"] == "no-copies"
            assert len(lines) >= 4


class TestCycles:
    def test_enumerate(self, capsys, files):
        code, out = run(capsys, ["cycles", "enumerate", "--length", "6"])
        doc = json.loads(out)
        assert doc["count"] == 6 and len(doc["matrices"]) == 6

    def test_embed(self, capsys, files):
        code, out = run(capsys, ["cycles", "embed", files["host"], files["k22"]])
        doc = json.loads(out)
        assert doc["embedded"] and doc["proper"]

    def test_dichotomy(self, capsys, files):
        code, out = run(
            capsys,
            ["cycles", "dichotomy", files["host"], "--k", "2", "--c", "0.2", "--r", "2", "--s", "2"],
        )
        doc = json.loads(out)
        assert doc["branch"] in ("dense", "balanced")
        assert doc["preconditionHeld"] is True

    def test_dichotomy_without_heavy_columns(self, capsys, files):
        # c = 5: every column of the all-ones 4x4 host has 4 < 5 ones, so the
        # dense rule runs on no column and takes band 1 and columns 1..2
        code, out = run(
            capsys,
            ["cycles", "dichotomy", files["host"], "--k", "2", "--c", "5", "--r", "2", "--s", "2"],
        )
        doc = json.loads(out)
        assert code == 0
        assert (doc["branch"], doc["rows"], doc["cols"], doc["weight"]) == ("dense", [1, 2], [1, 2], 4)
        assert doc["details"] == {
            "alpha": 0.25,
            "balancedWeight": 0,
            "band": 1,
            "case": 1,
            "imbalancedWeight": 0,
            "lightThreshold": 5.0,
            "survivingColumns": 0,
        }

    def test_drive(self, capsys, files):
        code, out = run(capsys, ["cycles", "drive", files["host"], files["k22"], "--k", "2", "--c", "0.2"])
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["stopReason"] == "embedded"

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_drive_rejects_k_below_two(self, capsys, files, k):
        code = dispatch(["cycles", "drive", files["host"], files["k22"], "--k", k, "--c", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: k must be at least 2\n"

    def test_drive_rejects_negative_depth(self, capsys, files):
        code = dispatch(["cycles", "drive", files["host"], files["k22"], "--k", "2", "--c", "1", "--depth", "-1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: depth must be at least 0, got -1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["drive", "HOST", "K22", "--k", "2", "--c", "nan"],
            ["drive", "HOST", "K22", "--k", "2", "--c", "inf", "--depth", "0"],
            ["dichotomy", "HOST", "--k", "2", "--c", "nan", "--r", "2", "--s", "2"],
        ],
    )
    def test_non_finite_c_rejected(self, capsys, files, argv):
        argv = [{"HOST": files["host"], "K22": files["k22"]}.get(x, x) for x in argv]
        code = dispatch(["cycles"] + argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: c must be finite")

    @pytest.mark.parametrize(
        "argv",
        [
            ["drive", "HOST", "K22", "--k", "2", "--c", "0"],
            ["dichotomy", "HOST", "--k", "2", "--c", "-0.5", "--r", "2", "--s", "2"],
        ],
    )
    def test_c_at_most_zero_rejected(self, capsys, files, argv):
        argv = [{"HOST": files["host"], "K22": files["k22"]}.get(x, x) for x in argv]
        code = dispatch(["cycles"] + argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: c must be finite and positive")


class TestEx:
    def test_exact_mode_value(self, capsys, files):
        code, out = run(capsys, ["ex", files["k22"], "--n", "4", "--mode", "exact"])
        doc = json.loads(out)
        assert code == 0 and doc["value"] == 9 and doc["status"] == "exact"

    def test_bnb_with_cache(self, capsys, files):
        argv = ["--cache-dir", str(files["dir"] / "cache"), "ex", files["k22"], "--n", "3", "--mode", "bnb"]
        code1, out1 = run(capsys, argv)
        code2, out2 = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["value"] == 6

    def test_warm_query_leaves_cache_file_alone(self, capsys, files):
        for mode in ("bnb", "exact"):
            cache_dir = files["dir"] / f"cache-{mode}"
            argv = ["--cache-dir", str(cache_dir), "ex", files["k22"], "--n", "3", "--mode", mode]
            _, cold = run(capsys, argv)
            (path,) = cache_dir.glob("*.json")
            before = path.stat()
            code, warm = run(capsys, argv)
            after = path.stat()
            assert code == 0 and warm == cold
            assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_random_mode_deterministic(self, capsys, files):
        argv = ["--seed", "17", "ex", files["k22"], "--n", "8", "--mode", "random"]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2
        rec = ExtremalRecord.from_json_dict(json.loads(out1))
        assert rec.status == "lowerBound"

    def test_budget_exhaustion_exit_code(self, capsys, files, tmp_path):
        big = tmp_path / "big_n.pat"
        big.write_text("\n".join(K22.row_strings()))
        code, out = run(capsys, ["--budget", "0.01", "ex", str(big), "--n", "6", "--mode", "bnb"])
        doc = json.loads(out)
        if doc["status"] == "lowerBound":
            assert code == 2
        else:
            assert code == 0

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_budget_outside_zero_to_inf_rejected(self, capsys, files, budget):
        code = dispatch(["--budget", budget, "ex", files["k22"], "--n", "4"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "budget" in captured.err

    @pytest.mark.parametrize("mode", ["exact", "random"])
    def test_budget_checked_in_every_mode(self, capsys, files, mode):
        code = dispatch(["--budget", "nan", "ex", files["k22"], "--n", "3", "--mode", mode])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: budget must be a finite number of seconds >= 0")

    def test_budget_checked_on_a_warm_cache_hit(self, capsys, files):
        cache = ["--cache-dir", str(files["dir"] / "cache")]
        code, _ = run(capsys, cache + ["ex", files["k22"], "--n", "3"])
        assert code == 0
        code = dispatch(cache + ["--budget", "nan", "ex", files["k22"], "--n", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: budget must be a finite number of seconds >= 0")

    def test_table_as_csv(self, capsys, files):
        code, out = run(capsys, ["--format", "csv", "ex", files["k22"], "--n", "2", "--n-to", "3"])
        assert code == 0
        assert out.splitlines() == ["n,value,status,witness", "2,3,exact,11|10", "3,6,exact,110|101|011"]

    def test_one_point_range(self, capsys, files):
        code, out = run(capsys, ["ex", files["k22"], "--n", "3", "--n-to", "3"])
        assert code == 0
        assert [rec["value"] for rec in json.loads(out)["records"]] == [6]

    def test_empty_range_rejected(self, capsys, files):
        code = dispatch(["ex", files["k22"], "--n", "5", "--n-to", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("mode", ["exact", "random"])
    def test_table_rejects_other_modes(self, capsys, files, mode):
        code = dispatch(["ex", files["k22"], "--n", "2", "--n-to", "3", "--mode", mode])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and f"--mode {mode}" in captured.err

    def test_brute_cap_exceeded(self, capsys, files):
        code, out = run(capsys, ["ex", files["k22"], "--n", "7", "--mode", "exact"])
        assert code == 2 and out == ""


class TestErrors:
    def test_unknown_command_exit_one(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_domain_error_exit_one(self, capsys, files):
        code = dispatch(["cycles", "enumerate", "--length", "3"])
        assert code == 1

    def test_verify_suite_filter_matching_nothing(self, capsys):
        code = dispatch(["verify-suite", "--filter", "no-such-check"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "no-such-check" in captured.err

    def test_host_file_not_utf8(self, capsys, tmp_path):
        host = tmp_path / "host.pat"
        host.write_bytes(b"1\xff\n")
        assert dispatch(["count", str(host), "--u", "1", "--t", "1"]) == 1
        assert capsys.readouterr().err == f"error: cannot read {host}: not UTF-8 text\n"

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0

    def test_missing_path_is_an_input_error(self, capsys, files):
        missing = str(files["dir"] / "missing.pat")
        assert dispatch(["tcut", missing, "--t", "2", "--s", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and missing in captured.err

    def test_directory_path_is_an_input_error(self, capsys, files):
        directory = str(files["dir"])
        assert dispatch(["classify", directory]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and directory in captured.err

    @pytest.mark.parametrize("via_env", [False, True])
    def test_cache_dir_that_is_a_file(self, capsys, files, monkeypatch, via_env):
        blocker = files["dir"] / "somefile"
        blocker.write_text("")
        argv = ["ex", files["k22"], "--n", "3"]
        if via_env:
            monkeypatch.setenv("PATTERN_EXTREMAL_CACHE", str(blocker))
        else:
            argv = ["--cache-dir", str(blocker)] + argv
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot use cache directory {blocker}: File exists\n"


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, files):
        for argv in (
            ["classify", files["fixture"]],
            ["count", files["host"], "--u", "2", "--t", "2", "--bounds"],
            ["tcut", files["fixture"], "--t", "2", "--s", "1", "--trials", "500"],
            ["cycles", "enumerate", "--length", "6"],
        ):
            _, out1 = run(capsys, argv)
            _, out2 = run(capsys, argv)
            assert out1 == out2

    def test_csv_and_text_formats(self, capsys, files):
        code, out = run(capsys, ["--format", "csv", "contains", files["fixture"], files["k22"]])
        assert code == 0 and out.count("\n") == 2
        code, out = run(capsys, ["--format", "text", "contains", files["fixture"], files["k22"]])
        assert "contains = True" in out


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
