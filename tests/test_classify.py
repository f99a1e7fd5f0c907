from itertools import combinations

import pytest

from conftest import (
    COLUMN_2_PARTITE,
    DOUBLY_2_PARTITE,
    IDENTITY2,
    K22,
    ROW_2_PARTITE,
    SIX_CYCLES_3X3,
    graph_oracle,
    oracle_winding,
    random_matrix,
)
from patex.classify import (
    _cycle_tour,
    _x_monotone_core,
    is_acyclic,
    is_cycle,
    is_permutation,
    is_x_monotone,
    min_column_parts,
    min_row_parts,
    partite_profile,
    winding_profile,
)
from patex.cycles import enumerate_cycles
from patex.errors import UnsupportedError
from patex.matrix import ZeroOneMatrix


def brute_min_parts(a, axis_cols=True):
    """Minimum interval partition by trying every cut set, smallest first."""
    m = a if axis_cols else a.transpose()

    def valid(cuts):
        bounds = [0] + list(cuts) + [m.cols]
        for lo, hi in zip(bounds, bounds[1:]):
            for i in range(m.rows):
                ones = sum(1 for j in range(lo, hi) if (m.row_masks[i] >> j) & 1)
                if ones > 1:
                    return False
        return True

    for t in range(1, m.cols + 1):
        for cuts in combinations(range(1, m.cols), t - 1):
            if valid(cuts):
                return t
    return m.cols


def all_patterns(rows, cols):
    full = (1 << cols) - 1
    for bits in range(1 << (rows * cols)):
        yield ZeroOneMatrix([(bits >> (i * cols)) & full for i in range(rows)], cols)


class TestPartiteProfiles:
    def test_canonical_trio(self):
        assert min_column_parts(COLUMN_2_PARTITE) == (2, (2,))
        assert min_row_parts(ROW_2_PARTITE) == (2, (2,))
        assert partite_profile(DOUBLY_2_PARTITE).profile == (2, 2)

    def test_identity_and_flat(self):
        ident3 = ZeroOneMatrix.parse("100\n010\n001")
        assert min_column_parts(ident3)[0] == 1
        assert min_row_parts(ident3)[0] == 1
        assert min_column_parts(ZeroOneMatrix.ones(1, 3))[0] == 3
        assert min_row_parts(ZeroOneMatrix.ones(3, 1))[0] == 3

    def test_greedy_matches_brute_force(self, rng):
        for _ in range(300):
            a = random_matrix(rng, rng.below(4) + 1, rng.below(6) + 1, 0.45)
            assert min_column_parts(a)[0] == brute_min_parts(a, True)
            assert min_row_parts(a)[0] == brute_min_parts(a, False)

    def test_duality_with_transpose(self, rng):
        for _ in range(100):
            a = random_matrix(rng, rng.below(5) + 1, rng.below(5) + 1, 0.5)
            assert min_row_parts(a) == min_column_parts(a.transpose())

    def test_cuts_realize_the_minimum(self, rng):
        for _ in range(100):
            a = random_matrix(rng, rng.below(4) + 1, rng.below(6) + 1, 0.4)
            t, cuts = min_column_parts(a)
            bounds = [0] + list(cuts) + [a.cols]
            assert len(bounds) - 1 == t
            for lo, hi in zip(bounds, bounds[1:]):
                for i in range(a.rows):
                    assert sum(1 for j in range(lo, hi) if (a.row_masks[i] >> j) & 1) <= 1


class TestGraphShape:
    def test_permutation(self):
        assert is_permutation(IDENTITY2)
        assert not is_permutation(ZeroOneMatrix.ones(1, 2))
        assert not is_permutation(COLUMN_2_PARTITE)

    def test_acyclic(self):
        assert is_acyclic(ZeroOneMatrix.ones(1, 2))
        assert not is_acyclic(K22)
        assert not is_acyclic(DOUBLY_2_PARTITE)

    def test_permutations_are_acyclic(self, rng):
        import itertools

        for perm in itertools.permutations(range(3)):
            m = ZeroOneMatrix([1 << perm[i] for i in range(3)], 3)
            assert is_permutation(m) and is_acyclic(m)

    def test_cycle(self):
        assert is_cycle(K22)
        assert all(is_cycle(m) for m in SIX_CYCLES_3X3)
        assert not is_cycle(DOUBLY_2_PARTITE)  # two disjoint 4-cycles
        assert not is_cycle(ZeroOneMatrix.ones(1, 2))
        assert not is_cycle(ZeroOneMatrix.parse("11\n11\n00"))  # an empty row
        assert not is_cycle(ZeroOneMatrix.parse("110\n110"))  # an empty column

    @pytest.mark.parametrize("rows, cols", [(r, c) for r in range(1, 5) for c in range(1, 5) if r * c <= 12])
    def test_graph_predicates_match_the_oracle_exhaustively(self, rows, cols):
        for m in all_patterns(rows, cols):
            edges, vertices, components, degree = graph_oracle(m)
            assert is_acyclic(m) == (edges == vertices - len(components))
            one_cycle = edges > 0 and len(components) == 1 and set(degree.values()) == {2}
            tour = _cycle_tour(m)
            assert (tour is not None) == one_cycle
            assert is_cycle(m) == (one_cycle and vertices == m.rows + m.cols)
            if tour is None:
                continue
            assert len(tour) == m.weight and sorted(tour) == sorted(m.one_entries())
            assert tour[0] == min(m.one_entries())
            for k, (p, q) in enumerate(zip(tour, tour[1:] + tour[:1])):
                shared = k % 2  # even steps stay in a row, odd steps in a column
                assert p[shared] == q[shared] and p[1 - shared] != q[1 - shared]

    def test_cycle_weight_is_twice_line_count(self):
        for m in enumerate_cycles(6) + enumerate_cycles(8):
            assert m.weight == 2 * m.rows == 2 * m.cols

    def test_cycle_tour_visits_every_entry_once(self):
        for m in SIX_CYCLES_3X3:
            tour = _cycle_tour(m)
            assert sorted(tour) == sorted(m.one_entries())

    @pytest.mark.parametrize(
        "text",
        [
            "111\n110\n001",  # row 1 holds three ones
            "110\n101\n101",  # every row holds two, column 1 three
        ],
    )
    def test_cycle_tour_rejects_a_line_without_two_ones(self, text):
        assert _cycle_tour(ZeroOneMatrix.parse(text)) is None

    @pytest.mark.parametrize("text", ["1100\n1100\n0011\n0011", "11000\n11000\n00000\n00101\n00101"])
    def test_cycle_tour_rejects_two_disjoint_cycles(self, text):
        assert _cycle_tour(ZeroOneMatrix.parse(text)) is None

    def test_cycle_tour_rejects_the_all_zero_pattern(self):
        assert _cycle_tour(ZeroOneMatrix([0] * 2, 2)) is None


class TestXMonotone:
    def test_fixtures(self):
        assert is_x_monotone(K22)
        assert all(is_x_monotone(m) for m in SIX_CYCLES_3X3)

    def test_rejects_non_cycle(self):
        with pytest.raises(UnsupportedError):
            is_x_monotone(ZeroOneMatrix.ones(1, 2))

    def test_straddle_oracle_on_length8(self):
        def straddle_ok(a):
            pairs = []
            for i in range(1, a.rows + 1):
                cols = [j for j in range(1, a.cols + 1) if a.entry(i, j)]
                pairs.append((cols[0], cols[1]))
            return all(sum(1 for c1, c2 in pairs if c1 <= g < c2) <= 2 for g in range(1, a.cols))

        mats = enumerate_cycles(8)
        flags = [is_x_monotone(m) for m in mats]
        assert flags == [straddle_ok(m) for m in mats]
        assert any(flags) and not all(flags)  # both kinds exist at length 8

    def test_core_skips_a_row_without_a_segment(self):
        # An all-zero row is no horizontal segment and crosses no vertical line.
        assert _x_monotone_core(ZeroOneMatrix.parse("110\n000\n011\n101"))
        bent = next(m for m in enumerate_cycles(8) if not is_x_monotone(m))
        assert not _x_monotone_core(ZeroOneMatrix.parse("\n".join(["0" * bent.cols, *bent.row_strings()])))


class TestWinding:
    def test_square_cycle_positive(self):
        prof = winding_profile(K22)
        assert prof.faces == ((1,),)
        assert winding_profile(K22).positive

    def test_json_form(self):
        assert winding_profile(K22).to_json_dict() == {"row0": 1, "col0": 1, "faces": [[1]]}

    def test_reversal_negates(self):
        for m in SIX_CYCLES_3X3 + (K22,):
            prof = winding_profile(m)
            rev = tuple(reversed(_cycle_tour(m)))
            for i, row in enumerate(prof.faces):
                for j, v in enumerate(row):
                    y, x = prof.row0 + i + 0.5, prof.col0 + j + 0.5
                    assert oracle_winding(rev, y, x) == -v

    def test_matches_angle_summation_oracle(self):
        for m in SIX_CYCLES_3X3 + (K22,) + tuple(enumerate_cycles(8)[:20]):
            tour = _cycle_tour(m)
            prof = winding_profile(m)
            for i in range(len(prof.faces)):
                for j in range(len(prof.faces[0])):
                    y, x = prof.row0 + i + 0.5, prof.col0 + j + 0.5
                    assert prof.faces[i][j] == oracle_winding(tour, y, x)

    def test_ray_balance_and_vertical_ray_agreement(self):
        for m in tuple(enumerate_cycles(8)[:20]) + SIX_CYCLES_3X3:
            tour = _cycle_tour(m)
            n = len(tour)
            vsegs = []
            hsegs = []
            for idx in range(n):
                (r1, c1), (r2, c2) = tour[idx], tour[(idx + 1) % n]
                if c1 == c2:
                    vsegs.append((c1, r1, r2))
                else:
                    hsegs.append((r1, c1, c2))
            # a full horizontal line crosses the closed curve equally up and down
            for i in range(0, m.rows):
                y = i + 0.5
                total = sum(
                    (1 if r2 > r1 else -1)
                    for (c, r1, r2) in vsegs
                    if min(r1, r2) <= i < max(r1, r2)
                )
                assert total == 0
            # winding via downward vertical rays matches the horizontal-ray value
            prof = winding_profile(m)
            for i in range(len(prof.faces)):
                for j in range(len(prof.faces[0])):
                    y, x = prof.row0 + i, prof.col0 + j
                    w_v = sum(
                        (1 if c2 < c1 else -1)
                        for (r, c1, c2) in hsegs
                        if r > y and min(c1, c2) <= x < max(c1, c2)
                    )
                    assert w_v == prof.faces[i][j]

    def test_mixed_sign_cycle_exists(self):
        hits = [m for m in enumerate_cycles(8) if not winding_profile(m).positive]
        assert hits, "some length-8 cycle should have faces of both signs"
        sample = hits[0]
        values = winding_profile(sample).values()
        assert min(values) < 0 < max(values)
        tour = _cycle_tour(sample)
        prof = winding_profile(sample)
        for i in range(len(prof.faces)):
            for j in range(len(prof.faces[0])):
                assert prof.faces[i][j] == oracle_winding(tour, prof.row0 + i + 0.5, prof.col0 + j + 0.5)

    def test_doubly_2_partite_cycles_are_positive(self):
        for length in (4, 6, 8):
            for m in enumerate_cycles(length):
                p = partite_profile(m).profile
                if p[0] <= 2 and p[1] <= 2:
                    assert winding_profile(m).positive

    def test_rejects_non_cycle(self):
        with pytest.raises(UnsupportedError):
            winding_profile(ZeroOneMatrix.ones(1, 2))
