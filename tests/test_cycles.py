import json
import math
from fractions import Fraction
from itertools import product

import pytest

from conftest import K22, NO_FLOAT, SIX_CYCLES_3X3, graph_oracle, oracle_embedding, random_matrix
from patex import cycles
from patex.cycles import (
    balance_violation,
    cycle_driver,
    dense_or_balanced,
    embed_xmonotone_balanced,
    enumerate_cycles,
)
from patex.errors import DivisibilityError, DomainError, PreconditionError
from patex.matrix import Embedding, ZeroOneMatrix, find_embedding, verify_embedding
from patex.rng import SplitMix64
from patex.search import deletion_lower_bound


# A cycle (its bipartite graph is one 8-cycle) that is not x-monotone.
NON_MONOTONE_8_CYCLE = ZeroOneMatrix.parse("0101\n0110\n1001\n1010")


def balanced_host(rng, n, m_cols, r, lo_frac):
    """Random r-balanced n x m host with per-column band counts at least
    lo_frac of the band size."""
    band = n // r
    masks = [0] * n
    for j in range(m_cols):
        cnt = max(1, min(band, round((lo_frac + (1 - lo_frac) * rng.random()) * band)))
        for b in range(r):
            rows = [b * band + x for x in range(band)]
            for _ in range(cnt):
                masks[rows.pop(rng.below(len(rows)))] |= 1 << j
    return ZeroOneMatrix(masks, m_cols)


def assert_levels_recount(host, trace):
    """Each level's weight is the weight of the host rows and columns it
    records."""
    for level in trace.levels:
        sub = host.select(level.checks["rowIndices"], level.checks["colIndices"])
        assert sub.weight == level.weight


class TestBalance:
    def test_all_ones(self):
        assert balance_violation(ZeroOneMatrix.ones(4, 5), 2) is None

    def test_unbalanced_diagnostic(self):
        m = ZeroOneMatrix.parse("10\n00\n00\n00")
        assert "column 1" in balance_violation(m, 2)

    def test_all_zero_is_balanced(self):
        assert balance_violation(ZeroOneMatrix([0] * 6, 3), 3) is None

    def test_divisibility_diagnostic(self):
        assert "divide" in balance_violation(ZeroOneMatrix.ones(4, 2), 3)

    def test_non_positive_band_count(self):
        assert balance_violation(ZeroOneMatrix.ones(4, 2), 0) == "band count 0 is not positive"


class TestEmbedBalanced:
    def test_all_ones(self):
        emb = embed_xmonotone_balanced(ZeroOneMatrix.ones(4, 4), K22)
        assert emb is not None and verify_embedding(ZeroOneMatrix.ones(4, 4), K22, emb)

    def test_zero_host(self):
        assert embed_xmonotone_balanced(ZeroOneMatrix([0] * 4, 4), K22) is None

    def test_wrong_certificate_stops_at_the_gate(self, monkeypatch):
        # A walk that handed back a column map off the host.
        monkeypatch.setattr(cycles, "_find_copy", lambda m, a, bands: Embedding((1, 3), (1, 5)))
        with pytest.raises(AssertionError) as err:
            embed_xmonotone_balanced(ZeroOneMatrix.ones(4, 4), K22)
        assert str(err.value) == "certificate failed verification: col map value 5 outside 1..4"

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="^pattern is not a cycle$"):
            embed_xmonotone_balanced(ZeroOneMatrix.ones(4, 4), ZeroOneMatrix.ones(1, 2))
        with pytest.raises(PreconditionError, match="^pattern is not x-monotone$"):
            embed_xmonotone_balanced(ZeroOneMatrix.ones(4, 4), NON_MONOTONE_8_CYCLE)
        with pytest.raises(
            PreconditionError, match="^host is not 2-balanced: 2 does not divide row count 5$"
        ):
            embed_xmonotone_balanced(ZeroOneMatrix.ones(5, 4), K22)
        unbalanced = ZeroOneMatrix.parse("11\n11\n00\n00")
        with pytest.raises(
            PreconditionError,
            match=r"^host is not 2-balanced: column 1 has unequal band counts \(2, 0\)$",
        ):
            embed_xmonotone_balanced(unbalanced, K22)

    def test_above_threshold_always_embeds(self, rng):
        hits = 0
        while hits < 60:
            n = 2 * (rng.below(9) + 2)
            m_cols = 17 + rng.below(8)
            host = balanced_host(rng, n, m_cols, 2, 0.85)
            if host.weight <= 4 * math.sqrt(m_cols) * n:
                continue
            emb = embed_xmonotone_balanced(host, K22)
            assert emb is not None and verify_embedding(host, K22, emb)
            band = n // 2
            assert all((j - 1) * band < emb.row_map[j - 1] <= j * band for j in (1, 2))
            hits += 1

    def test_six_cycle_patterns_proper(self, rng):
        for a in SIX_CYCLES_3X3:
            host = ZeroOneMatrix.ones(9, 6)
            emb = embed_xmonotone_balanced(host, a)
            assert emb is not None and verify_embedding(host, a, emb)
            assert all((j - 1) * 3 < emb.row_map[j - 1] <= j * 3 for j in (1, 2, 3))

    def test_longer_xmonotone_cycles(self, rng):
        from patex.classify import _x_monotone_core

        mats = [m for m in enumerate_cycles(8) if _x_monotone_core(m)]
        host = ZeroOneMatrix.ones(12, 9)
        for a in mats[:10]:
            emb = embed_xmonotone_balanced(host, a)
            assert emb is not None and verify_embedding(host, a, emb)

    def test_zero_column_pattern(self):
        a = ZeroOneMatrix.parse("101\n101")
        host = ZeroOneMatrix.ones(4, 5)
        emb = embed_xmonotone_balanced(host, a)
        assert emb is not None and verify_embedding(host, a, emb)

    def test_least_proper_certificate(self, rng):
        """The first (rows, cols) of a banded enumeration: rows from the
        product of the bands, columns from increasing column subsets."""
        from patex.classify import _x_monotone_core

        patterns = [K22] + [
            m for length in (6, 8) for m in enumerate_cycles(length) if _x_monotone_core(m)
        ]
        patterns += [ZeroOneMatrix.parse(t) for t in ("101\n101", "11\n00\n11", "0110\n0110")]
        found = 0
        for a in patterns:
            for _ in range(8):
                band = 1 + rng.below(4)
                cols = a.cols + rng.below(11 - a.cols)
                host = balanced_host(rng, a.rows * band, cols, a.rows, 0.0)
                bands = [range((j - 1) * band + 1, j * band + 1) for j in range(1, a.rows + 1)]
                expected = oracle_embedding(host, a, bands)
                assert embed_xmonotone_balanced(host, a) == expected
                found += expected is not None
        assert 0 < found < 8 * len(patterns)

    def test_zero_row_pattern(self):
        a = ZeroOneMatrix.parse("11\n00\n11")
        host = ZeroOneMatrix.ones(6, 4)
        emb = embed_xmonotone_balanced(host, a)
        assert emb is not None and verify_embedding(host, a, emb)
        assert 3 <= emb.row_map[1] <= 4  # empty row still lands in its band


class TestDichotomy:
    def test_dense_concentration(self):
        n, k = 16, 4
        masks = [(1 << n) - 1] * 4 + [0] * 12
        host = ZeroOneMatrix(masks, n)
        res = dense_or_balanced(host, 2, 2, k, 1.0)
        assert res.branch == "dense"
        assert res.weight_precondition_held and res.invariant_holds
        assert res.matrix.rows == res.matrix.cols == n // k
        assert res.weight == res.matrix.weight

    def test_balanced_two_bands(self):
        n, k = 16, 4
        masks = []
        for i in range(n):
            band = i // 4 + 1
            masks.append((1 << n) - 1 if band in (1, 3) else 0)
        host = ZeroOneMatrix(masks, n)
        res = dense_or_balanced(host, 2, 2, k, 1.0)
        assert res.branch == "balanced"
        assert res.invariant_holds and balance_violation(res.matrix, 2) is None
        assert res.details["bands"] == [1, 3]

    def test_precondition_flagging(self, rng):
        host = random_matrix(rng, 16, 16, 0.05)
        c = 2.0 * max(1.0, host.weight / 16**1.5)
        res = dense_or_balanced(host, 2, 2, 4, c)
        assert not res.weight_precondition_held

    @pytest.mark.parametrize("host, c", [
        (ZeroOneMatrix.parse("10\n00"), 0.353553390594),
        (ZeroOneMatrix([1] + [0] * 5, 6), 0.068041381745),
    ])
    def test_precondition_decided_squared(self, host, c):
        # w = 1 against c n^(3/2), which is 1.0000000000020541 and about
        # 1.000000000001 here: w^2 < c^2 n^3 exactly, with c read as written.
        assert host.weight**2 < Fraction(str(c)) ** 2 * host.rows**3
        assert not dense_or_balanced(host, 1, 1, 2, c=c).weight_precondition_held

    @pytest.mark.parametrize("c", [1.0, 1 + 2**-52])
    def test_light_cut_decided_squared(self, c):
        # A column of weight 2 in a 16 x 16 host is light exactly when
        # 4 * 2^2 < c^2 * 16, that is when c > 1.
        host = ZeroOneMatrix([(1 << 16) - 1] * 2 + [0] * 14, 16)
        res = dense_or_balanced(host, 2, 2, 2, c)
        assert res.details["survivingColumns"] == (16 if c == 1 else 0)

    @pytest.mark.parametrize("c", [1.0, 1 + 2**-52])
    def test_dense_invariant_decided_squared(self, c):
        # 16 ones in the 4 x 4 block against 2c (n/k)^(3/2) = 16c: a tie at
        # c = 1, and a miss just above it, which a float slack let through.
        host = ZeroOneMatrix([0b1111] * 4 + [0] * 4, 8)
        res = dense_or_balanced(host, 2, 2, 2, c)
        assert (res.branch, res.weight) == ("dense", 16)
        assert res.invariant_holds is (c == 1)

    def test_balanced_branch_is_dominated_by_host(self, rng):
        for _ in range(10):
            host = random_matrix(rng, 16, 16, 0.6)
            res = dense_or_balanced(host, 2, 2, 4, 0.1)
            if res.branch != "balanced":
                continue
            for li, i in enumerate(res.row_indices):
                for lj, j in enumerate(res.col_indices):
                    if res.matrix.entry(li + 1, lj + 1):
                        assert host.entry(i, j) == 1

    def test_balanced_branch_truncation_rule(self, rng):
        """Per column and picked band, the balanced matrix keeps the topmost
        1-entries of the host restriction, as many as the column's smallest
        count over the picked bands."""
        truncated = 0
        for n in (16, 24, 32):
            for (r, k) in ((2, 2), (2, 4), (3, 4)):
                for _ in range(4):
                    host = random_matrix(rng, n, n, 0.3 + 0.5 * rng.random())
                    res = dense_or_balanced(host, r, 2, k, 0.1)
                    assert res.branch == "balanced"
                    sub = host.select(res.row_indices, res.col_indices)
                    band = sub.rows // r
                    grid = [[0] * sub.cols for _ in range(sub.rows)]
                    for j in range(1, sub.cols + 1):
                        per_band = [
                            [i for i in range(b * band + 1, (b + 1) * band + 1) if sub.entry(i, j)]
                            for b in range(r)
                        ]
                        keep = min(len(ones) for ones in per_band)
                        for ones in per_band:
                            for i in ones[:keep]:
                                grid[i - 1][j - 1] = 1
                    assert res.matrix == ZeroOneMatrix.parse("\n".join("".join(map(str, row)) for row in grid))
                    assert res.weight == res.matrix.weight
                    truncated += res.matrix != sub
        assert truncated > 0

    def test_no_heavy_column_takes_the_dense_rule(self, rng):
        """With every column below c*sqrt(n)/2 ones, the dense rule picks
        band 1 and pads with the first n/k columns."""
        seen = 0
        for n in (4, 8, 12, 16, 24):
            for k in (k for k in range(1, n + 1) if n % k == 0):
                host = random_matrix(rng, n, n, rng.random())
                c = 2.0 * (max(host.col_weight(j) for j in range(1, n + 1)) + 1) / math.sqrt(n)
                res = dense_or_balanced(host, 1 + rng.below(3), 2, k, c)
                first = tuple(range(1, n // k + 1))
                assert res.branch == "dense"
                assert res.matrix == host.submatrix(1, n // k, 1, n // k)
                assert res.row_indices == res.col_indices == first
                assert res.weight == res.matrix.weight
                assert res.details["survivingColumns"] == 0
                assert res.details["band"] == 1
                seen += 1
        assert seen > 20

    def test_divisibility(self):
        with pytest.raises(DivisibilityError):
            dense_or_balanced(ZeroOneMatrix.ones(10, 10), 2, 2, 4, 1.0)

    def test_rejects_non_square_host(self):
        with pytest.raises(PreconditionError, match="^dichotomy needs a square host$"):
            dense_or_balanced(ZeroOneMatrix.ones(4, 6), 2, 2, 2, 1.0)

    @pytest.mark.parametrize("r_meta, s_meta", [(0, 2), (2, 0)])
    def test_rejects_non_positive_pattern_dimensions(self, r_meta, s_meta):
        with pytest.raises(DomainError, match="^pattern dimensions must be positive$"):
            dense_or_balanced(ZeroOneMatrix.ones(4, 4), r_meta, s_meta, 2, 1.0)

    @pytest.mark.parametrize("c", [*NO_FLOAT, -math.inf])
    def test_rejects_non_finite_c(self, c):
        with pytest.raises(DomainError, match="c must be finite"):
            dense_or_balanced(ZeroOneMatrix.ones(4, 4), 2, 2, 2, c)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_rejects_c_at_most_zero(self, c):
        # with c <= 0 the weight precondition holds for every host, so the
        # report would read like a counterexample to the dichotomy lemma
        with pytest.raises(DomainError, match="c must be finite and positive"):
            dense_or_balanced(ZeroOneMatrix.ones(4, 4), 2, 2, 2, c)


class TestCycleDriver:
    def test_all_ones_embeds_quickly(self):
        host = ZeroOneMatrix.ones(16, 16)
        trace = cycle_driver(host, K22, 4, 1.0)
        assert trace.stop_reason == "embedded"
        assert len(trace.levels) <= 2
        assert verify_embedding(host, K22, trace.embedding)

    def test_free_host_never_embeds(self):
        host = deletion_lower_bound(16, K22, 21).witness
        trace = cycle_driver(host, K22, 4, host.weight / 16**1.5)
        assert trace.embedding is None
        assert trace.stop_reason in ("balanced-embed-failed", "divisibility", "host-too-small", "depth-reached")
        assert_levels_recount(host, trace)

    @pytest.mark.parametrize(
        "n, lo, hi, depth, reason",
        [
            (16, 5, 8, None, "host-too-small"),
            (16, 5, 8, 1, "depth-reached"),
            (12, 4, 6, None, "divisibility"),
        ],
    )
    def test_dense_descent_stops(self, n, lo, hi, depth, reason):
        # Rows lo..hi, all ones, fill the second of four bands: the dense
        # branch keeps that band and the first n/4 columns.
        host = ZeroOneMatrix([(1 << n) - 1 if lo <= i <= hi else 0 for i in range(1, n + 1)], n)
        trace = cycle_driver(host, K22, 4, host.weight / n**1.5, depth)
        assert trace.stop_reason == reason and trace.embedding is None
        assert [lv.branch for lv in trace.levels] == ["dense", "exhausted"]
        assert trace.levels[1].row_range == (lo, hi)
        assert trace.levels[1].col_range == (1, n // 4)
        assert_levels_recount(host, trace)

    def test_dense_then_balanced_embeds(self):
        host = ZeroOneMatrix([(1 << 16) - 1] * 16 + [0] * 16, 32)
        trace = cycle_driver(host, K22, 2, host.weight / 32**1.5)
        assert trace.stop_reason == "embedded"
        assert [lv.branch for lv in trace.levels] == ["dense", "balanced"]
        assert verify_embedding(host, K22, trace.embedding)
        assert_levels_recount(host, trace)

    def test_weight_thresholds_recorded(self):
        host = ZeroOneMatrix.ones(16, 16)
        trace = cycle_driver(host, K22, 4, 1.0)
        lvl = trace.levels[0]
        assert lvl.checks["weightThreshold"] == pytest.approx(64.0)
        assert lvl.checks["weightHolds"]

    def test_weight_holds_decided_squared(self):
        # Level 0: w = 1 against c 2^(3/2) = 1.0000000000020541, a miss
        # exactly; the dichotomy's precondition reads c the same way.
        trace = cycle_driver(ZeroOneMatrix.parse("10\n00"), ZeroOneMatrix.ones(2, 2), 2, 0.353553390594)
        checks = trace.levels[0].checks
        assert checks["weightHolds"] is False
        assert checks["weightHolds"] == checks.get("preconditionHeld", False)

    def test_fraction_c_reports_as_its_float(self):
        docs = [
            json.dumps(cycle_driver(ZeroOneMatrix.ones(6, 6), SIX_CYCLES_3X3[0], 2, c, depth=1).to_json_dict())
            for c in (Fraction(1, 2), 0.5)
        ]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("k", [0, 1])
    def test_rejects_k_below_two(self, k):
        with pytest.raises(DomainError, match="k must be at least 2"):
            cycle_driver(ZeroOneMatrix.ones(4, 4), K22, k, 1.0)

    @pytest.mark.parametrize("c", NO_FLOAT)
    def test_rejects_non_finite_c(self, c):
        # depth 0 stops before the first dichotomy, so the driver checks c itself
        with pytest.raises(DomainError, match="c must be finite"):
            cycle_driver(ZeroOneMatrix.ones(4, 4), K22, 2, c, depth=0)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_rejects_c_at_most_zero(self, c):
        with pytest.raises(DomainError, match="c must be finite and positive"):
            cycle_driver(ZeroOneMatrix.ones(4, 4), K22, 2, c, depth=0)

    def test_rejects_non_square_host(self):
        with pytest.raises(PreconditionError, match="^driver needs a square host$"):
            cycle_driver(ZeroOneMatrix.ones(4, 6), K22, 2, 1.0)

    @pytest.mark.parametrize("depth", [None, 0])
    def test_rejects_non_cycle_patterns(self, depth):
        # checked up front: at depth 0 the embedder never runs
        with pytest.raises(PreconditionError, match="^pattern is not x-monotone$"):
            cycle_driver(ZeroOneMatrix.ones(8, 8), NON_MONOTONE_8_CYCLE, 2, 1.0, depth)
        with pytest.raises(PreconditionError, match="^pattern is not a cycle$"):
            cycle_driver(ZeroOneMatrix.ones(8, 8), ZeroOneMatrix.ones(1, 2), 2, 1.0, depth)

    def test_rejects_negative_depth(self):
        with pytest.raises(DomainError, match="depth must be at least 0, got -1"):
            cycle_driver(ZeroOneMatrix.ones(4, 4), K22, 2, 1.0, depth=-1)
        assert cycle_driver(ZeroOneMatrix.ones(4, 4), K22, 2, 1.0, depth=0).stop_reason == "depth-reached"


class TestEnumerate:
    def test_length_four_forced(self):
        mats = enumerate_cycles(4)
        assert mats == [K22]

    def test_length_six_matches_fixture_set(self):
        assert set(enumerate_cycles(6)) == set(SIX_CYCLES_3X3)

    def test_length_eight_frozen_count(self):
        assert len(enumerate_cycles(8)) == 72

    def test_completeness_against_filter_oracle(self):
        # every side x side matrix with two 1-entries in each row and each
        # column whose bipartite graph is connected, i.e. one cycle
        for side in (2, 3, 4):
            pairs = [mask for mask in range(1 << side) if mask.bit_count() == 2]
            want = []
            for masks in product(pairs, repeat=side):
                m = ZeroOneMatrix(masks, side)
                _, vertices, components, degree = graph_oracle(m)
                if vertices == 2 * side and len(components) == 1 and set(degree.values()) == {2}:
                    want.append(m)
            assert sorted(want, key=lambda m: m.row_strings()) == enumerate_cycles(2 * side)

    @pytest.mark.parametrize("side, count", [(2, 1), (3, 6), (4, 72), (5, 1440)])
    def test_closed_form_count(self, side, count):
        # side! (side-1)! / 2 labelled Hamiltonian cycles of K_{side,side}
        assert count == math.factorial(side) * math.factorial(side - 1) // 2
        assert len(enumerate_cycles(2 * side)) == count

    def test_lexicographic_order(self):
        mats = enumerate_cycles(6)
        keys = [m.row_strings() for m in mats]
        assert keys == sorted(keys)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            enumerate_cycles(2)
        with pytest.raises(DomainError):
            enumerate_cycles(7)
