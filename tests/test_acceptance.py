"""Acceptance gate: every criterion runs at its stated tolerance, printing
one pass/fail line, and the suite's report must equal the pinned
`golden/verify_suite.out` byte for byte.

The stepping-up criterion is a known red: the stated closed-form bound is
false (it omits a 1/(u+1)^2 factor its own derivation requires; the all-ones
8x8 host at width 3 is a concrete counterexample), so the check reports the
violations and verifies the repaired form instead. The test is strict-xfail:
it will start failing loudly if the check ever turns green.
"""

import contextlib
import dataclasses
import io
import itertools
import math
import types
from fractions import Fraction
from pathlib import Path

import pytest

import patex.acceptance as acceptance
import patex.cycles as cycles
import patex.increment as increment
from patex.acceptance import CHECKS, SIX_CYCLES_3X3, run_suite
from patex.classify import PartiteProfile
from patex.cli import dispatch
from patex.count import _count_copies
from patex.matrix import Embedding, ZeroOneMatrix

NAMES = [name for name, _ in CHECKS]
GOLDEN = Path(__file__).parent / "golden" / "verify_suite.out"

# Each check's wall-time bound in seconds. The suite's verdicts ignore wall
# time; these bounds are this gate's own, and the end-to-end determinism
# check has none.
TIME_BOUNDS = {
    "containment-oracle-equivalence": 60.0,
    "canonical-fixtures": 1.0,
    "extremal-regression": 300.0,
    "supersaturation-inequality": 120.0,
    "stepping-up-inequality": 120.0,
    "t-cut-statistics": 120.0,
    "density-increment-soundness": 300.0,
    "lambda-schedule-identity": 1.0,
    "balanced-embedding-guarantee": 300.0,
    "dichotomy-soundness": 120.0,
    "constants-arithmetic": 1.0,
}


def _run_captured(filter_substring=None):
    """run_suite's results and the report it printed on standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        results = run_suite(filter_substring)
    return results, buf.getvalue()


@pytest.fixture(scope="module")
def suite_run():
    results, report = _run_captured()
    return {"results": {r.name: r for r in results}, "report": report}


def _assert_criterion(suite_run, name):
    result = suite_run["results"][name]
    print(f"{'PASS' if result.passed else 'FAIL'} {name}: {result.detail}")
    assert result.passed, result.detail
    if name in TIME_BOUNDS:
        assert result.elapsed < TIME_BOUNDS[name], f"{name} took {result.elapsed:.1f}s"


def test_criterion_01_containment_oracle(suite_run):
    _assert_criterion(suite_run, "containment-oracle-equivalence")


def test_criterion_02_canonical_fixtures(suite_run):
    _assert_criterion(suite_run, "canonical-fixtures")


def test_criterion_03_extremal_regression(suite_run):
    _assert_criterion(suite_run, "extremal-regression")


def test_criterion_04_supersaturation(suite_run):
    _assert_criterion(suite_run, "supersaturation-inequality")


@pytest.mark.xfail(
    strict=True,
    reason="the stated stepping bound omits a 1/(u+1)^2 factor its own "
    "derivation requires and is false as stated (all-ones 8x8 at width 3); "
    "the check records the violations and verifies the repaired form",
)
def test_criterion_05_stepping_up(suite_run):
    _assert_criterion(suite_run, "stepping-up-inequality")


def test_criterion_05_repaired_form_verified(suite_run):
    result = suite_run["results"]["stepping-up-inequality"]
    assert "violated" in result.detail
    assert "repaired form" in result.detail
    # every corrected-threshold instance satisfied the repaired bound
    import re

    m = re.search(r"held on (\d+)/(\d+) instances", result.detail)
    assert m and m.group(1) == m.group(2) and int(m.group(2)) > 0


def test_criterion_06_tcut_statistics(suite_run):
    _assert_criterion(suite_run, "t-cut-statistics")


def test_criterion_07_increment_soundness(suite_run):
    _assert_criterion(suite_run, "density-increment-soundness")


def test_criterion_08_lambda_schedule(suite_run):
    _assert_criterion(suite_run, "lambda-schedule-identity")


def test_criterion_09_balanced_embedding(suite_run):
    _assert_criterion(suite_run, "balanced-embedding-guarantee")


def test_criterion_10_dichotomy(suite_run):
    _assert_criterion(suite_run, "dichotomy-soundness")


def test_criterion_11_constants(suite_run):
    _assert_criterion(suite_run, "constants-arithmetic")


def test_criterion_12_determinism(suite_run):
    """The report, the determinism check's digest included, is the pinned
    one. After a change that moves it on purpose, re-pin it with
    `patex verify-suite > tests/golden/verify_suite.out` and name the moved
    lines in CHANGES.md."""
    _assert_criterion(suite_run, "end-to-end-determinism")
    assert suite_run["report"] == GOLDEN.read_text()


def test_every_check_ran(suite_run):
    assert set(suite_run["results"]) == set(NAMES)


def test_every_check_but_determinism_has_a_time_bound():
    assert set(TIME_BOUNDS) == set(NAMES) - {"end-to-end-determinism"}


class TestIncrementSoundnessFails:
    """The FAIL branches of the increment-soundness check, each seen with a
    known-wrong kernel in place of the one it checks."""

    def test_step_that_finds_no_heavy_class(self, monkeypatch):
        monkeypatch.setattr(increment, "heavy_label_classes", lambda m, t, k, r: {})
        assert acceptance.check_increment_soundness() == (
            False,
            "planted instance 0 not embedded (pattern 2x2)",
        )

    def test_recount_off_by_one(self, monkeypatch):
        # The step's count kernel is one high; the check recounts each block
        # by enumeration, not with that kernel.
        count = increment._count_copies
        monkeypatch.setattr(increment, "_count_copies", lambda *args: count(*args) + 1)
        assert acceptance.check_increment_soundness() == (
            False,
            "host 0: block recount 9 != reported 10",
        )


def _printed(name):
    return _run_captured(name)[1]


def _copy_below_the_host(m, a, bands=None):
    """A `_find_copy` stand-in whose row map starts one row below the host."""
    return Embedding(
        row_map=tuple(range(m.rows + 1, m.rows + 1 + a.rows)),
        col_map=tuple(range(1, a.cols + 1)),
    )


def _replaced(pick, **fields):
    """A patch that makes a kernel return its real result with `fields`
    replaced, wherever `pick` accepts that result."""

    def patch(real):
        def kernel(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(res, **fields) if pick(res) else res

        return kernel

    return patch


def _always(res):
    return True


def _first_applicable_dropped(real):
    """A `supersat_bound` that reports the first applicable host inapplicable."""
    calls = itertools.count()
    return _replaced(lambda sb: sb.applicable and next(calls) == 0, applicable=False)(real)


def _lightest_block(real):
    """A density-increment step that reports its lightest block, with that
    block's true count, instead of its heaviest. Only a host with copies can
    tell the two apart."""

    def step(host, a, u, k):
        res = real(host, a, u=u, k=k)
        if res.kind != "densified":
            return res
        band = host.rows // k
        counts = [_count_copies(host.submatrix(q * band + 1, (q + 1) * band, 1, host.cols), u, 2) for q in range(k)]
        lightest = min(range(k), key=counts.__getitem__)
        return dataclasses.replace(res, block=lightest + 1, count=counts[lightest])

    return step


def _cut_probability_one_too_wide(real):
    """Each gap counts its right end too: (b - a + 1)/n instead of (b - a)/n."""
    return lambda e, n: math.prod(Fraction(b - a + 1, n) for a, b in zip(e, e[1:]))


def _cut_hits_that_agree(real):
    """A sampler that draws nothing and returns the nearest count to what
    `cut_probability`, patched or not, predicts."""
    return lambda e, n, trials, rng: round(trials * acceptance.cut_probability(e, n))


# The later branches of the checks: (check, kernel patches, printed line). A
# patch maps the real kernel in `acceptance` to the wrong one; two of the
# lines are PASS lines that the real kernels never reach.
LATER_BRANCHES = [
    pytest.param(
        "containment-oracle-equivalence",
        {"verify_embedding": lambda real: lambda *args: False},
        "FAIL containment-oracle-equivalence: invalid certificate on "
        "host=('1000', '1111') pattern=('001',)",
        id="certificate-rejected",
    ),
    pytest.param(
        "supersaturation-inequality",
        {"supersat_bound": _replaced(_always, applicable=True)},
        "FAIL supersaturation-inequality: (u=3,t=2) reported applicable at n=1 despite w <= threshold",
        id="(3,2)-applicable",
    ),
    pytest.param(
        "supersaturation-inequality",
        {"supersat_bound": _first_applicable_dropped},
        "PASS supersaturation-inequality: 200 applicable instances satisfy the bound; "
        "(3,2) infeasible below n=217 and reported inapplicable",
        id="first-host-skipped",
    ),
    pytest.param(
        "stepping-up-inequality",
        {"_stepping_holds": lambda real: lambda *args: False},
        "FAIL stepping-up-inequality: stated bound violated on 200/200 applicable random "
        "instances (first: u=2, t=2, n=8, N=600, count 1031 < bound 918.6); the closed form "
        "omits a 1/(u+1)^2 factor its own derivation requires; repaired form (1/(u+1)^2 "
        "factor, matching threshold) held on 0/111 instances",
        id="repaired-form-violated",
    ),
    pytest.param(
        "stepping-up-inequality",
        {"_stepping_holds": lambda real: lambda *args: True},
        "PASS stepping-up-inequality: 200 applicable instances satisfy the stated bound; "
        "repaired form (1/(u+1)^2 factor, matching threshold) held on 111/111 instances",
        id="stated-bound-holds",
    ),
    pytest.param(
        "t-cut-statistics",
        {"cut_probability": _cut_probability_one_too_wide, "cut_hits": _cut_hits_that_agree},
        "FAIL t-cut-statistics: exhaustive count 2/12 != 1/4 for edge (2, 4)",
        id="exhaustive-count-differs",
    ),
    pytest.param(
        "density-increment-soundness",
        {"density_increment_step": _replaced(lambda step: step.kind == "densified", kind="embedded")},
        "FAIL density-increment-soundness: banded host 0 did not densify",
        id="host-not-pattern-free",
    ),
    pytest.param(
        "density-increment-soundness",
        {"density_increment_step": _replaced(lambda step: step.kind == "densified", narrow_total=-1)},
        "FAIL density-increment-soundness: host 0: narrow total mismatch",
        id="narrow-total-wrong",
    ),
    pytest.param(
        "density-increment-soundness",
        {"density_increment_step": _lightest_block},
        "FAIL density-increment-soundness: host 0: pigeonhole floor violated",
        id="lightest-block",
    ),
    pytest.param(
        "balanced-embedding-guarantee",
        {"embed_xmonotone_balanced": _replaced(_always, row_map=(1, 2))},
        "FAIL balanced-embedding-guarantee: embedding not proper at n=4, m=21",
        id="both-rows-in-band-1",
    ),
    pytest.param(
        "dichotomy-soundness",
        {"dense_or_balanced": _replaced(_always, weight_precondition_held=False)},
        "FAIL dichotomy-soundness: dense family: precondition unexpectedly failed (k=2, n=8, f=0.7)",
        id="dense-precondition-failed",
    ),
    pytest.param(
        "dichotomy-soundness",
        {"dense_or_balanced": _replaced(lambda res: res.branch == "balanced", weight_precondition_held=False)},
        "FAIL dichotomy-soundness: balanced family: precondition failed (k=2, n=16)",
        id="balanced-precondition-failed",
    ),
    pytest.param(
        "dichotomy-soundness",
        {"dense_or_balanced": _replaced(lambda res: res.branch == "balanced", invariant_holds=False)},
        "FAIL dichotomy-soundness: balanced family: branch=balanced, invariant=False "
        "(k=2, n=16, bands=(1,2))",
        id="balanced-invariant-false",
    ),
    pytest.param(
        "dichotomy-soundness",
        {"balance_violation": lambda real: lambda m, r: "column 1 has unequal band counts"},
        "FAIL dichotomy-soundness: balanced family: result not 2-balanced (k=2, n=16)",
        id="balanced-result-unbalanced",
    ),
    pytest.param(
        "dichotomy-soundness",
        {"dense_or_balanced": _replaced(_always, weight_precondition_held=True)},
        "FAIL dichotomy-soundness: violating family: precondition unexpectedly held",
        id="violating-precondition-held",
    ),
    pytest.param(
        "dichotomy-soundness",
        {
            "dense_or_balanced": _replaced(
                lambda res: not res.weight_precondition_held, branch="dense", matrix=ZeroOneMatrix.ones(1, 1)
            )
        },
        "FAIL dichotomy-soundness: violating family: dense extraction has wrong shape",
        id="violating-dense-shape",
    ),
    pytest.param(
        "dichotomy-soundness",
        {
            "dense_or_balanced": _replaced(
                lambda res: not res.weight_precondition_held, branch="balanced", matrix=ZeroOneMatrix.parse("1\n0")
            )
        },
        "FAIL dichotomy-soundness: violating family: balanced extraction is not balanced",
        id="violating-not-balanced",
    ),
]


class TestGreenChecksFail:
    """The FAIL branches of the green checks, each seen with a known-wrong
    kernel patched into the suite."""

    def test_containment_kernel_that_finds_nothing(self, monkeypatch):
        monkeypatch.setattr(acceptance, "find_embedding", lambda m, a: None)
        assert _printed("containment-oracle-equivalence") == (
            "FAIL containment-oracle-equivalence: kernel and enumeration disagree on "
            "host=('1000', '1111') pattern=('001',)\n"
        )

    def test_branch_and_bound_off_by_one(self, monkeypatch):
        exact_ex = acceptance.exact_ex

        def off_by_one(n, a):
            rec = exact_ex(n, a)
            return dataclasses.replace(rec, value=rec.value + 1)

        monkeypatch.setattr(acceptance, "exact_ex", off_by_one)
        assert _printed("extremal-regression") == (
            "FAIL extremal-regression: branch-and-bound ex(2, 2x2 all-ones) = 4 (exact)\n"
        )

    def test_cut_sampler_that_never_hits(self, monkeypatch):
        monkeypatch.setattr(acceptance, "cut_hits", lambda edge, n, trials, rng: 0)
        assert _printed("t-cut-statistics") == (
            "FAIL t-cut-statistics: edge (7, 23) in [50]: frequency 0.0 vs exact 0.32 "
            "(tolerance 0.004425381339500586)\n"
        )

    def test_lambda_value_off_at_one_u(self, monkeypatch):
        value = increment.LambdaSchedule.value

        def off_at_50(self, u):
            return value(self, u) + (u == 50) * Fraction(1, 10**6)

        monkeypatch.setattr(increment.LambdaSchedule, "value", off_at_50)
        assert _printed("lambda-schedule-identity") == (
            "FAIL lambda-schedule-identity: t=2: lambda_50 = 3205049/49000000, "
            "the recurrence gives 641/9800\n"
        )

    def test_dichotomy_invariant_always_false(self, monkeypatch):
        dense_or_balanced = acceptance.dense_or_balanced
        monkeypatch.setattr(
            acceptance,
            "dense_or_balanced",
            lambda *args: dataclasses.replace(dense_or_balanced(*args), invariant_holds=False),
        )
        assert _printed("dichotomy-soundness") == (
            "FAIL dichotomy-soundness: dense family: branch=dense, invariant=False (k=2, n=8, f=0.7)\n"
        )

    def test_constants_k_off_by_one(self, monkeypatch):
        make_constants = acceptance.make_constants
        monkeypatch.setattr(
            acceptance,
            "make_constants",
            lambda *args: dataclasses.replace(make_constants(*args), k=make_constants(*args).k + 1),
        )
        assert _printed("constants-arithmetic") == "FAIL constants-arithmetic: k = 17, expected 16\n"

    @pytest.mark.parametrize(
        "kernel, only_identity, line",
        [
            ("brute_force_ex", False, "brute force ex(2, 2x2 all-ones) = 4, expected 3"),
            ("brute_force_ex", True, "brute force ex(3, identity) = 6, expected 5"),
            ("exact_ex", True, "branch-and-bound ex(3, identity) = 6"),
        ],
    )
    def test_extremal_kernel_off_by_one(self, monkeypatch, kernel, only_identity, line):
        solve = getattr(acceptance, kernel)

        def off_by_one(n, a):
            rec = solve(n, a)
            return dataclasses.replace(rec, value=rec.value + (not only_identity or a == acceptance.IDENTITY2))

        monkeypatch.setattr(acceptance, kernel, off_by_one)
        assert _printed("extremal-regression") == f"FAIL extremal-regression: {line}\n"

    @pytest.mark.parametrize(
        "field, change, line",
        [
            ("delta", lambda v: 2 * v, "delta = 0.5, expected 1/4"),
            ("c", lambda v: 2 * v, "c = 0.03125, expected 2^-6"),
            ("log10_C0", lambda v: v - 1, "defining inequality for C0 fails at (2, 2, 2, 2, 1.0)"),
            ("log10_Cprime", lambda v: v + 1, "log-space vs direct relative drift 9.000000000000885 exceeds 1e-9"),
        ],
    )
    def test_constants_field_off(self, monkeypatch, field, change, line):
        make_constants = acceptance.make_constants

        def off(*args):
            pc = make_constants(*args)
            return dataclasses.replace(pc, **{field: change(getattr(pc, field))})

        monkeypatch.setattr(acceptance, "make_constants", off)
        assert _printed("constants-arithmetic") == f"FAIL constants-arithmetic: {line}\n"

    def test_column_partition_off(self, monkeypatch):
        monkeypatch.setattr(acceptance, "min_column_parts", lambda a: (3, (1, 2)))
        assert _printed("canonical-fixtures") == (
            "FAIL canonical-fixtures: column fixture classified as (3, (1, 2))\n"
        )

    def test_row_partition_off(self, monkeypatch):
        monkeypatch.setattr(acceptance, "min_row_parts", lambda a: (1, ()))
        assert _printed("canonical-fixtures") == (
            "FAIL canonical-fixtures: row fixture classified as (1, ())\n"
        )

    def test_partite_profile_off(self, monkeypatch):
        monkeypatch.setattr(acceptance, "partite_profile", lambda a: PartiteProfile(3, 2, (1, 2), (2,)))
        assert _printed("canonical-fixtures") == (
            "FAIL canonical-fixtures: doubly partite fixture classified as (3, 2)\n"
        )

    def test_cycle_enumeration_that_misses_one(self, monkeypatch):
        monkeypatch.setattr(acceptance, "enumerate_cycles", lambda n: SIX_CYCLES_3X3[:5])
        assert _printed("canonical-fixtures") == (
            "FAIL canonical-fixtures: 6-cycle enumeration returned 5 matrices, set mismatch\n"
        )

    def test_x_monotone_test_always_false(self, monkeypatch):
        monkeypatch.setattr(acceptance, "is_x_monotone", lambda m: False)
        assert _printed("canonical-fixtures") == (
            "FAIL canonical-fixtures: a 6-cycle pattern is not x-monotone\n"
        )

    def test_increment_certificate_outside_the_host(self, monkeypatch):
        # The check relies on the step's own `certified` gate to report a
        # wrong copy.
        monkeypatch.setattr(increment, "_find_copy", _copy_below_the_host)
        assert _printed("density-increment-soundness") == (
            "FAIL density-increment-soundness: raised AssertionError: certificate failed "
            "verification: row map value 13 outside 1..12\n"
        )

    def test_count_kernel_that_finds_nothing(self, monkeypatch):
        monkeypatch.setattr(acceptance, "_count_copies", lambda m, u, t: 0)
        assert _printed("supersaturation-inequality") == (
            "FAIL supersaturation-inequality: count 0 below bound 5665873984/707281 at n=29, (u,t)=(2,2)\n"
        )

    def test_balanced_embedder_that_finds_nothing(self, monkeypatch):
        monkeypatch.setattr(acceptance, "embed_xmonotone_balanced", lambda m, a: None)
        assert _printed("balanced-embedding-guarantee") == (
            "FAIL balanced-embedding-guarantee: no embedding at n=4, m=21, w=84 > 73.32121111929344\n"
        )

    def test_balanced_certificate_outside_the_host(self, monkeypatch):
        monkeypatch.setattr(cycles, "_find_copy", _copy_below_the_host)
        assert _printed("balanced-embedding-guarantee") == (
            "FAIL balanced-embedding-guarantee: raised AssertionError: certificate failed "
            "verification: row map value 5 outside 1..4\n"
        )

    @pytest.mark.parametrize("name, patches, line", LATER_BRANCHES)
    def test_later_branch(self, monkeypatch, name, patches, line):
        for attr, patch in patches.items():
            monkeypatch.setattr(acceptance, attr, patch(getattr(acceptance, attr)))
        assert _printed(name) == line + "\n"

    def test_report_that_differs_per_run(self, monkeypatch):
        runs = itertools.count()
        monkeypatch.setattr(acceptance, "_determinism_report", lambda cache_dir: str(next(runs)))
        assert _printed("end-to-end-determinism") == (
            "FAIL end-to-end-determinism: reports differ between two clean-cache runs\n"
        )


class TestRunnerFails:
    """The runner's crash branch, the exit code that `verify-suite` returns
    for it, and a slow check that still passes."""

    def test_raising_check(self, monkeypatch, capsys):
        def crash():
            raise ValueError("no host")

        monkeypatch.setattr(acceptance, "CHECKS", (("crashing-check", crash),))
        assert dispatch(["verify-suite", "--filter", "crashing-check"]) == 1
        assert capsys.readouterr().out == "FAIL crashing-check: raised ValueError: no host\n"

    def test_slow_check_still_passes(self, monkeypatch, capsys):
        # Each reading of the clock is 250 s after the one before: the
        # verdict is the check's answer, and the time goes to stderr only.
        ticks = itertools.count(0.0, 250.0)
        monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
        monkeypatch.setattr(acceptance, "CHECKS", (("slow-check", lambda: (True, "all held")),))
        assert dispatch(["verify-suite", "--filter", "slow-check"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "PASS slow-check: all held\n"
        assert captured.err == "  [slow-check: 250.00s]\n"
