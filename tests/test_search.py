import math
import os
from itertools import product

import pytest

import patex.search as search
from conftest import COLUMN_2_PARTITE, IDENTITY2, K22, SIX_CYCLES_3X3, oracle_embedding, random_matrix
from patex.count import count_copies
from patex.errors import BudgetError, DomainError, FormatError, UnsupportedError
from patex.matrix import ZeroOneMatrix, find_embedding
from patex.search import ExtremalRecord, brute_force_ex, deletion_lower_bound, exact_ex, extremal_table

R12 = ZeroOneMatrix.ones(1, 2)
L = ZeroOneMatrix.parse("11\n10")
I3 = ZeroOneMatrix.parse("100\n010\n001")


def _equal_row_patterns_up_to_3x3():
    for rows, cols in product((1, 2, 3), repeat=2):
        for bits in range(1, 1 << cols):
            yield ZeroOneMatrix([bits] * rows, cols)


def _mask_ranks(witness):
    """Each witness row's index in the search's mask order."""
    n = witness.cols
    rank = {m: i for i, m in enumerate(sorted(range(1 << n), key=lambda m: (-m.bit_count(), m)))}
    return [rank[m] for m in witness.row_masks]


def _assert_exact(rec, a, value):
    """An exact record of `value` whose witness weighs it and is A-free
    under the oracle."""
    assert rec.status == "exact" and rec.value == rec.witness.weight == value, (a.row_strings(), rec.n)
    assert oracle_embedding(rec.witness, a) is None, (a.row_strings(), rec.n)


def _columns(witness):
    """The witness's columns, each read top-down."""
    return [tuple(witness.entry(i, j) for i in range(1, witness.rows + 1)) for j in range(1, witness.cols + 1)]


class TestBruteForce:
    def test_single_one(self):
        rec = brute_force_ex(1, ZeroOneMatrix.ones(1, 1))
        assert rec.value == 0 and rec.status == "exact"

    def test_small_values(self):
        assert brute_force_ex(2, K22).value == 3
        assert brute_force_ex(3, K22).value == 6
        assert brute_force_ex(3, IDENTITY2).value == 5
        assert brute_force_ex(3, R12).value == 3

    def test_witness_is_free_and_weighted(self):
        rec = brute_force_ex(3, K22)
        assert rec.witness.weight == rec.value
        assert find_embedding(rec.witness, K22) is None

    def test_cap(self):
        with pytest.raises(BudgetError):
            brute_force_ex(7, K22)

    def test_zero_weight_pattern_undefined(self):
        with pytest.raises(DomainError):
            brute_force_ex(2, ZeroOneMatrix([0], 1))

    @pytest.mark.parametrize("solve", [brute_force_ex, exact_ex, lambda n, a: deletion_lower_bound(n, a, 1)])
    def test_size_guard(self, solve):
        with pytest.raises(DomainError, match="^n must be positive$"):
            solve(0, K22)

    def test_pattern_larger_than_host(self):
        rec = brute_force_ex(2, ZeroOneMatrix.ones(3, 1))
        assert rec.value == 4 and rec.witness == ZeroOneMatrix.ones(2, 2)


class TestExactMatchesOracle:
    def test_sweep_all_small_patterns(self):
        patterns = []
        for rows, cols in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for bits in range(1, 1 << (rows * cols)):
                patterns.append(ZeroOneMatrix([bits >> (i * cols) & ((1 << cols) - 1) for i in range(rows)], cols))
        # n = 3 is in the golden table, checked against the oracle
        for a in patterns:
            for n in (1, 2):
                _assert_exact(exact_ex(n, a), a, brute_force_ex(n, a).value)

    @pytest.mark.parametrize("a, n", [(L, 6), (I3, 6)])
    def test_forbidden_memo_emptied_when_full(self, monkeypatch, a, n):
        # a memo that holds one entry and empties on every miss changes
        # nothing in the record
        want = exact_ex(n, a)
        monkeypatch.setattr(search, "_MEMO_CAP", 1)
        got = exact_ex(n, a)
        assert got.witness.row_strings() == want.witness.row_strings()
        assert got.provenance["nodes"] == want.provenance["nodes"]
        assert got.provenance["tailBounds"] == want.provenance["tailBounds"]

    @pytest.mark.parametrize("a, n, value", [(L, 7, 13), (I3, 6, 20)])
    def test_width_bound_regressions(self, a, n, value):
        # L: 2n - 1; I_k: (k - 1)(2n - k + 1)
        _assert_exact(exact_ex(n, a), a, value)

    def test_equal_row_patterns_sorted_witnesses(self):
        # containment of an equal-row pattern depends only on the multiset
        # of host rows, so the search keeps its rows sorted; for an all-ones
        # pattern it keeps its columns non-increasing too (double lex). The
        # oracle uses neither rule
        cases = 0
        for a in _equal_row_patterns_up_to_3x3():
            all_ones = a.weight == a.rows * a.cols
            for n in range(max(a.rows, a.cols), 6 if all_ones else 5):
                got = exact_ex(n, a)
                _assert_exact(got, a, brute_force_ex(n, a).value)
                ranks = _mask_ranks(got.witness)
                assert ranks == sorted(ranks)
                if all_ones:
                    columns = _columns(got.witness)
                    assert columns == sorted(columns, reverse=True)
                cases += 1
        assert cases == 84

    @pytest.mark.parametrize("a, value", [(SIX_CYCLES_3X3[0], 24), (I3, 20), (COLUMN_2_PARTITE, 29)])
    def test_oracle_agrees_at_n6(self, a, value):
        # the largest n the oracle accepts; six-cycle-a and column-2-partite
        # have no closed form, I3's is (k - 1)(2n - k + 1)
        got = exact_ex(6, a)
        for rec in (got, brute_force_ex(6, a)):
            _assert_exact(rec, a, value)
        if a is I3:
            assert got.provenance["nodes"] == 220689
            assert got.provenance["tailBounds"] == [6, 12, 14, 16, 18, 20]

    @pytest.mark.parametrize(
        "text, value",
        [
            # the patterns and values pinned in perfbench/pinned.py
            pytest.param("11/11", 12, id="K22"),
            pytest.param("100/010/001", 16, id="I3"),
            pytest.param("11/10", 9, id="L"),
            pytest.param("111/111", 16, id="K23"),
            pytest.param("110/011/101", 18, id="six-cycle-a"),
            pytest.param("011/110/101", 18, id="six-cycle-b"),
            pytest.param("0101/1001/1001/0110", 22, id="column-2-partite"),
            pytest.param("0100/1011/1010/0101", 22, id="row-2-partite"),
            pytest.param("0101/1010/1010/0101", 22, id="doubly-2-partite"),
        ],
    )
    def test_pinned_values_n5(self, text, value):
        # the oracle uses none of exact_ex's symmetry rules and bounds
        a = ZeroOneMatrix.parse(text.replace("/", "\n"))
        for rec in (brute_force_ex(5, a), exact_ex(5, a)):
            _assert_exact(rec, a, value)

    def test_zarankiewicz_n8(self):
        _assert_exact(exact_ex(8, K22), K22, 24)  # z(8;2), Guy's tables

    @pytest.mark.parametrize(
        "n, value",
        [
            (9, 29), (10, 34), (11, 39), (12, 45),  # z(n;2), Guy's tables
            # (q + 1)n at n = q^2 + q + 1, q = 3: the PG(2, 3) witness of
            # test_closed_forms.py meets the counting bound there
            (13, 52),
        ],
    )
    def test_zarankiewicz_n9_to_n13(self, n, value):
        _assert_exact(exact_ex(n, K22), K22, value)

    @pytest.mark.parametrize("a, value", [(ZeroOneMatrix.ones(2, 3), 39), (ZeroOneMatrix.ones(3, 3), 49)])
    def test_all_ones_pins_n9(self, a, value):
        # the search with sorted rows only, and no column rule, gives the
        # same values in 20 s and 343 s
        _assert_exact(exact_ex(9, a), a, value)

    @pytest.mark.skipif(os.environ.get("PATEX_SLOW") != "1", reason="up to a minute a case; set PATEX_SLOW=1")
    @pytest.mark.parametrize("rows, cols", [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_all_ones_patterns_match_the_oracle_at_n6_slow(self, rows, cols):
        a = ZeroOneMatrix.ones(rows, cols)
        got, expect = exact_ex(6, a), brute_force_ex(6, a)
        assert got.status == expect.status == "exact"
        assert got.value == expect.value
        assert oracle_embedding(got.witness, a) is None

    @pytest.mark.parametrize("a, n", [(K22, 8), (ZeroOneMatrix.ones(3, 3), 7)])
    def test_all_ones_witnesses_are_double_lex(self, a, n):
        # rows in the search's mask order, columns non-increasing read
        # top-down with 1 > 0: each orbit of an all-ones pattern's hosts
        # under row and column permutations holds such a host
        rec = exact_ex(n, a)
        ranks = _mask_ranks(rec.witness)
        assert ranks == sorted(ranks)
        columns = _columns(rec.witness)
        assert columns == sorted(columns, reverse=True)
        _assert_exact(rec, a, rec.value)

    def test_budget_bound_stays_above_the_capped_search(self):
        # 1023 nodes stop inside height 4; the open bound is read from the
        # capped `below`, and must still cover z(7;2) = 21
        rec = exact_ex(7, K22, budget_nodes=1023)
        assert _stopped(rec) == ("lowerBound", 10, 39, 29, 1023)
        assert rec.witness.row_strings() == ("0000000",) * 4 + ("1111110", "1000001", "0100001")
        assert oracle_embedding(rec.witness, K22) is None

    def test_budget_exhaustion_degrades_status_not_correctness(self):
        # the search proves ex(6, K22) = 16 in 1246 nodes: one node fewer
        # has found the optimum but not closed the gap
        full = exact_ex(6, K22)
        assert full.provenance["nodes"] == 1246
        rec = exact_ex(6, K22, budget_nodes=1245)
        assert _stopped(rec) == ("lowerBound", 16, 17, 1, 1245)
        assert rec.witness == full.witness
        assert find_embedding(rec.witness, K22) is None
        assert oracle_embedding(rec.witness, K22) is None
        rec = exact_ex(6, K22, budget_nodes=1246)
        assert rec.status == "exact" and rec.witness == full.witness
        assert rec.provenance == {**full.provenance, "budgetNodes": 1246}

    def test_budget_exhaustion_with_zero_pattern_row(self):
        # zero top rows could host the pattern's zero row, so the 3-row
        # incumbent is padded with zero bottom rows instead
        a = ZeroOneMatrix.parse("00\n11\n11")
        rec = exact_ex(6, a, budget_nodes=1023)
        assert _stopped(rec) == ("lowerBound", 13, 35, 22, 1023)
        assert rec.witness.row_strings() == ("111111", "111111", "100000") + ("000000",) * 3
        assert oracle_embedding(rec.witness, a) is None
        assert rec.provenance["upperBound"] >= exact_ex(4, a).value

    def test_budget_exhaustion_pads_on_the_safe_side(self):
        # the zero middle row rules out neither padding side: the 3-row
        # incumbent keeps the pattern out under three zero top rows because
        # the pattern's first row is nonzero
        a = ZeroOneMatrix.parse("11\n00\n11")
        rec = exact_ex(6, a, budget_nodes=1023)
        assert _stopped(rec) == ("lowerBound", 13, 35, 22, 1023)
        assert rec.witness.row_strings() == ("000000",) * 3 + ("111111", "111111", "100000")
        assert oracle_embedding(rec.witness, a) is None

    def test_budget_exhaustion_with_zero_first_and_last_rows(self):
        # zero rows padded on either side could hold the pattern's zero first
        # or last row, so no incumbent is padded. The bound is correct but
        # weak: rows 1 and 5 all ones give an A-free matrix of weight 10,
        # which peeling the pattern's zero boundary rows would reach
        rec = exact_ex(5, ZeroOneMatrix.parse("000\n111\n000"), budget_nodes=5)
        assert _stopped(rec) == ("lowerBound", 0, 25, 25, 5) and rec.provenance["tailBounds"] == [5, 10]
        assert rec.witness.row_strings() == ("00000",) * 5

    @pytest.mark.parametrize(
        "a, n, below", [(I3, 6, 20), (L, 8, 15), (ZeroOneMatrix.parse("100\n010"), 7, 19)]
    )
    def test_budget_exhaustion_inside_a_narrower_width(self, a, n, below):
        # 1023 nodes stop while a width below n is being solved: only
        # width-n rows may be padded into the witness. `100/010` has an
        # all-zero column, which would embed in the zero columns that pad a
        # narrower incumbent out to n columns
        rec = exact_ex(n, a, budget_nodes=1023)
        value, upper, witness = {
            6: (14, 32, ("000000",) * 3 + ("111111", "111111", "110000")),
            8: (9, 57, ("00000000",) * 6 + ("11111111", "00000001")),
            7: (11, 39, ("0000000",) * 4 + ("1111111", "1000001", "1000001")),
        }[n]
        assert _stopped(rec) == ("lowerBound", value, upper, upper - value, 1023)
        assert rec.witness.row_strings() == witness
        assert oracle_embedding(rec.witness, a) is None
        assert upper >= below
        # ex((k-1) x n) plus n per row from height k on
        tail = rec.provenance["tailBounds"]
        assert upper == tail[-1] + n * (n - len(tail))

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -1.0, -1, 0.5])
    def test_rejects_budget_outside_zero_to_inf(self, budget):
        # a budget counts search nodes: a negative one or any float (seconds) is refused
        with pytest.raises(DomainError, match="budget must be a number of search nodes >= 0"):
            exact_ex(4, K22, budget_nodes=budget)


def _stopped(rec) -> tuple:
    """(status, value, upperBound, gap, nodes) of a record."""
    p = rec.provenance
    return rec.status, rec.value, p.get("upperBound"), p.get("gap"), p["nodes"]


class TestDeletion:
    def test_always_free(self):
        for seed in range(5):
            rec = deletion_lower_bound(12, K22, seed)
            assert find_embedding(rec.witness, K22) is None
            assert rec.witness.weight == rec.value
            assert rec.status == "lowerBound"

    def test_deterministic(self):
        a = deletion_lower_bound(16, K22, 42)
        b = deletion_lower_bound(16, K22, 42)
        assert a.witness == b.witness and a.value == b.value

    def test_unsupported_below_two_entries(self):
        with pytest.raises(UnsupportedError):
            deletion_lower_bound(8, ZeroOneMatrix.ones(1, 1), 1)

    def test_mean_weight_calibration(self):
        # the sampling rate 0.5 * n^(-(r+s-2)/(w-1)) keeps the expected
        # survivor weight above a quarter of n^(2-(r+s-2)/(w-1))
        for n in (16, 32):
            mean = sum(deletion_lower_bound(n, K22, seed).value for seed in range(50)) / 50
            assert mean >= 0.25 * n ** (2 - 2 / 3)

    def test_bounds_sandwich(self):
        for n in (4, 5):
            lower = deletion_lower_bound(n, K22, 3).value
            exact = exact_ex(n, K22).value
            assert lower <= exact <= n * n


class TestTable:
    def test_flat_pattern_table(self):
        values = [r.value for r in extremal_table(R12, range(1, 6))]
        assert values == [1, 2, 3, 4, 5]

    def test_nondecreasing(self):
        values = [r.value for r in extremal_table(K22, range(2, 6))]
        assert values == sorted(values)
        assert values == [3, 6, 9, 12]

    def test_zero_budget_table_runs_each_n_once(self, monkeypatch):
        calls = []

        def counted(n, a, budget_nodes=None):
            calls.append(n)
            return exact_ex(n, a, budget_nodes)

        monkeypatch.setattr(search, "exact_ex", counted)
        table = extremal_table(K22, range(2, 8), budget_nodes=1023)
        assert calls == [2, 3, 4, 5, 6, 7]
        assert table == [exact_ex(n, K22, 1023) for n in range(2, 8)]
        # n = 5 finishes in 358 nodes. Lower bounds from one budget per n
        # need not increase with n.
        assert [(r.value, r.provenance["nodes"]) for r in table[3:]] == [(12, 358), (15, 1023), (10, 1023)]
        assert [r.status for r in table[3:]] == ["exact", "lowerBound", "lowerBound"]
        # a zero budget expands no node at all
        zero = extremal_table(K22, range(2, 8), budget_nodes=0)
        assert [(r.value, r.provenance["upperBound"], r.provenance["nodes"]) for r in zero] == [
            (0, n * n, 0) for n in range(2, 8)
        ]

    def test_cache_integration(self, tmp_path):
        from patex.cache import CacheStore

        cache = CacheStore(tmp_path)
        first = extremal_table(K22, range(2, 5), cache=cache)
        second = extremal_table(K22, range(2, 5), cache=cache)
        assert [r.value for r in first] == [r.value for r in second]
        assert [r.witness for r in first] == [r.witness for r in second]

    def test_no_kut_copies_in_witnesses(self):
        for u, t in ((2, 2), (2, 3)):
            a = ZeroOneMatrix.ones(u, t)
            rec = exact_ex(4, a)
            assert count_copies(rec.witness, u, t).count == 0


class TestRecordJson:
    def test_round_trip(self):
        rec = exact_ex(4, L, budget_nodes=10**6)
        doc = rec.to_json_dict()
        back = ExtremalRecord.from_json_dict(doc)
        assert back == rec and back.to_json_dict() == doc

    def test_missing_key(self):
        doc = exact_ex(3, K22).to_json_dict()
        del doc["value"]
        with pytest.raises(FormatError, match="^bad extremal record: 'value'$"):
            ExtremalRecord.from_json_dict(doc)

    def test_bad_witness(self):
        doc = exact_ex(3, K22).to_json_dict()
        doc["witness"]["data"] = doc["witness"]["data"][:-1]
        with pytest.raises(FormatError, match="^matrix document row count mismatch$"):
            ExtremalRecord.from_json_dict(doc)
