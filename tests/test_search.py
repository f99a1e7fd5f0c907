import math
from itertools import product

import pytest

from conftest import IDENTITY2, K22, oracle_embedding, random_matrix
from patex.count import count_copies
from patex.errors import BudgetError, DomainError, UnsupportedError
from patex.matrix import ZeroOneMatrix, find_embedding, parse_pattern
from patex.search import brute_force_ex, deletion_lower_bound, exact_ex, extremal_table

R12 = ZeroOneMatrix.ones(1, 2)


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
            brute_force_ex(6, K22)

    def test_zero_weight_pattern_undefined(self):
        with pytest.raises(DomainError):
            brute_force_ex(2, ZeroOneMatrix.zeros(1, 1))

    def test_pattern_larger_than_host(self):
        rec = brute_force_ex(2, ZeroOneMatrix.ones(3, 1))
        assert rec.value == 4 and rec.witness == ZeroOneMatrix.ones(2, 2)


class TestExactMatchesOracle:
    def test_sweep_all_small_patterns(self):
        patterns = []
        for rows, cols in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for bits in range(1, 1 << (rows * cols)):
                grid = [[(bits >> (i * cols + j)) & 1 for j in range(cols)] for i in range(rows)]
                patterns.append(ZeroOneMatrix.from_rows(grid))
        for a in patterns:
            for n in (1, 2, 3):
                expect = brute_force_ex(n, a)
                got = exact_ex(n, a)
                assert got.status == "exact"
                assert got.value == expect.value, f"pattern {a.row_strings()} n={n}"
                assert find_embedding(got.witness, a) is None

    def test_sweep_2x2_patterns_n4(self):
        # n = 4 puts every height k = 1..3 of the tail bound to work
        for bits in range(1, 16):
            a = ZeroOneMatrix.from_rows([[(bits >> (2 * i + j)) & 1 for j in range(2)] for i in range(2)])
            got = exact_ex(4, a)
            assert got.status == "exact"
            assert got.value == brute_force_ex(4, a).value, f"pattern {a.row_strings()}"
            assert got.witness.weight == got.value
            assert oracle_embedding(got.witness, a) is None
            assert got.provenance["tailBounds"][-1] == got.value

    def test_sweep_rectangular_patterns(self):
        for rows, cols in ((2, 3), (3, 2)):
            for bits in range(1, 1 << (rows * cols)):
                grid = [[(bits >> (i * cols + j)) & 1 for j in range(cols)] for i in range(rows)]
                a = ZeroOneMatrix.from_rows(grid)
                assert exact_ex(3, a).value == brute_force_ex(3, a).value

    def test_known_values_n4(self):
        assert exact_ex(4, K22).value == 9
        assert exact_ex(4, R12).value == 4

    def test_tail_bounds_are_rectangular_optima(self):
        rec = exact_ex(5, K22)
        assert rec.provenance["tailBounds"] == [5, 6, 8, 10, 12]  # z(k, 5; 2)

    def test_budget_exhaustion_degrades_status_not_correctness(self):
        rec = exact_ex(6, K22, budget_seconds=0.02)
        assert rec.status in ("exact", "lowerBound")
        assert find_embedding(rec.witness, K22) is None
        assert oracle_embedding(rec.witness, K22) is None
        assert rec.witness.weight == rec.value
        if rec.status == "lowerBound":
            assert rec.provenance["gap"] >= 0
            assert rec.provenance["upperBound"] >= rec.value
            assert rec.provenance["gap"] == rec.provenance["upperBound"] - rec.value
            assert rec.provenance["upperBound"] >= 16  # z(6;2)

    def test_budget_exhaustion_with_zero_pattern_row(self):
        # zero top rows could host the pattern's zero row, so the padded
        # witness is not allowed here; a zero budget stops at node 1024
        a = ZeroOneMatrix.parse("00\n11\n11")
        below = exact_ex(4, a).value
        rec = exact_ex(6, a, budget_seconds=0)
        assert rec.status == "lowerBound"
        assert oracle_embedding(rec.witness, a) is None
        assert rec.witness.weight == rec.value
        assert rec.provenance["gap"] == rec.provenance["upperBound"] - rec.value
        assert rec.provenance["upperBound"] >= below

    def test_budget_exhaustion_pads_on_the_safe_side(self):
        # the zero middle row rules out neither padding side: the solved
        # 2-row optimum (two full rows) keeps the pattern out under four
        # zero top rows because the pattern's first row is nonzero
        a = ZeroOneMatrix.parse("11\n00\n11")
        rec = exact_ex(6, a, budget_seconds=0)
        assert rec.status == "lowerBound"
        assert rec.value >= 12
        assert rec.witness.weight == rec.value
        assert oracle_embedding(rec.witness, a) is None
        assert rec.provenance["gap"] == rec.provenance["upperBound"] - rec.value


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
