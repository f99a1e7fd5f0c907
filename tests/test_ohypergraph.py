import math
from fractions import Fraction
from itertools import combinations, product

import pytest

import patex.ohypergraph as ohypergraph
from conftest import COLUMN_2_PARTITE, random_matrix
from patex.errors import DivisibilityError, DomainError, InputError
from patex.matrix import ZeroOneMatrix
from patex.ohypergraph import (
    _within_three_sigma,
    avoidance_threshold,
    build_column_hypergraph,
    cut_hits,
    cut_probability,
    find_ordered_complete_t_partite,
    heavy_label_classes,
)
from patex.rng import SplitMix64


class TestBuild:
    def test_all_ones_2x2(self):
        phi = build_column_hypergraph(ZeroOneMatrix.ones(2, 2), 2, 2)
        assert phi == {(1, 2): frozenset({1, 2})}

    def test_single_row(self):
        phi = build_column_hypergraph(ZeroOneMatrix.parse("101"), 2, 1)
        assert phi == {(1, 3): frozenset({1})}

    def test_width_guard(self):
        with pytest.raises(DomainError, match="^t must be positive$"):
            build_column_hypergraph(ZeroOneMatrix.ones(2, 2), 0, 1)

    def test_fixture_phi(self):
        phi = build_column_hypergraph(COLUMN_2_PARTITE, 2, 2)
        assert phi[(1, 4)] == frozenset({1, 2})
        assert phi[(2, 4)] == frozenset({1})
        assert phi[(2, 3)] == frozenset({2})

    def test_phi_soundness_rederivable(self, rng):
        for _ in range(50):
            m = random_matrix(rng, 8, 8, 0.4)
            for e, blocks in build_column_hypergraph(m, 2, 4).items():
                for b in range(1, 5):
                    witness = any(
                        all(m.entry(i, j) for j in e)
                        for i in range((b - 1) * 2 + 1, b * 2 + 1)
                    )
                    assert witness == (b in blocks)

    def test_divisibility(self):
        with pytest.raises(DivisibilityError):
            build_column_hypergraph(ZeroOneMatrix.ones(4, 4), 2, 3)


def completion_map(edges):
    """Each (t-1)-prefix of an edge set mapped to the bitmask of the last
    vertices that complete it."""
    out = {}
    for e in edges:
        out[e[:-1]] = out.get(e[:-1], 0) | 1 << e[-1]
    return out


def expand(completions):
    """The edge set of a completion map."""
    return frozenset(
        p + (v,) for p, mask in completions.items() for v in range(mask.bit_length()) if mask >> v & 1
    )


class TestHeavyLabelClasses:
    @staticmethod
    def grouped(m, t, k, r):
        """Heavy classes derived from the full hypergraph: an edge is heavy
        with at least r blocks, labeled by the r smallest."""
        out = {}
        for e, blocks in build_column_hypergraph(m, t, k).items():
            if len(blocks) >= r:
                out.setdefault(tuple(sorted(blocks)[:r]), set()).add(e)
        return {label: frozenset(edges) for label, edges in out.items()}

    def test_matches_full_hypergraph_grouping(self):
        # t runs past cols + 1, where no t-set of columns exists; k = 8 gives
        # bands of one and two rows on the 8- and 16-row hosts; r runs to k + 1.
        rng = SplitMix64(0x4EA7)
        for rows, cols, p in ((8, 8, 0.4), (8, 10, 0.6), (16, 9, 0.3), (4, 7, 0.8)):
            for _ in range(3):
                m = random_matrix(rng, rows, cols, p)
                ks = (1, 2, 4, 8) if rows % 8 == 0 else (1, 2, 4)
                for t in (1, 2, 3, cols + 1, cols + 2):
                    for k in ks:
                        for r in range(1, k + 2):
                            got = heavy_label_classes(m, t, k, r)
                            assert all(all(c.values()) for c in got.values())
                            got = {label: expand(c) for label, c in got.items()}
                            assert got == self.grouped(m, t, k, r)
                            if r > k or t > cols:
                                assert got == {}

    @pytest.mark.parametrize(
        "seed, n, p, t, k, r",
        [
            pytest.param(0x128, 128, 0.1, 2, 4, 2, id="2"),
            pytest.param(0x128, 128, 0.1, 2, 4, 3, id="3"),
            # The dense 64 x 64 blocks of the driver's slowest steps.
            pytest.param(0x99, 64, 0.3, 3, 4, 3, id="dense-t3-k4-r3"),
        ]
        + [
            # Thin bands: four rows each, so most of a leaf's bands are empty.
            pytest.param(0x16, 64, p, t, 16, r, id=f"thin-p{p}-t{t}-k16-r{r}")
            for p in (0.1, 0.3)
            for t in (2, 3)
            for r in (2, 3, 4)
        ],
    )
    def test_matches_grouping_at_benchmark_scale(self, seed, n, p, t, k, r):
        m = random_matrix(SplitMix64(seed), n, n, p)
        got = {label: expand(c) for label, c in heavy_label_classes(m, t, k, r).items()}
        assert got == self.grouped(m, t, k, r)
        # At p = 0.1 no column triple has witness rows in three of the bands.
        assert got or (p, t) == (0.1, 3) and r > 2

    def test_labels_are_first_r_blocks(self):
        m = ZeroOneMatrix.ones(8, 2)
        assert heavy_label_classes(m, 2, 8, 3) == {(1, 2, 3): {(1,): 1 << 2}}
        assert heavy_label_classes(m, 2, 8, 9) == {}

    def test_errors(self):
        with pytest.raises(DivisibilityError):
            heavy_label_classes(ZeroOneMatrix.ones(4, 4), 2, 3, 2)
        with pytest.raises(DomainError):
            heavy_label_classes(ZeroOneMatrix.ones(4, 4), 0, 2, 2)


class TestClassifyEdge:
    def test_light_heavy_tiebreak(self):
        """Edge (1, 2) of ones(8, 2) lies in all 8 blocks: heavy up to r = 8,
        labeled by its r smallest blocks, and light at r = 9."""
        m = ZeroOneMatrix.ones(8, 2)
        assert heavy_label_classes(m, 2, 8, 2) == {(1, 2): {(1,): 1 << 2}}
        assert heavy_label_classes(m, 2, 8, 8) == {tuple(range(1, 9)): {(1,): 1 << 2}}
        assert heavy_label_classes(m, 2, 8, 9) == {}


class TestCutProbability:
    def test_extreme_pair(self):
        assert cut_probability((1, 7), 7) == Fraction(6, 7)

    def test_pinned_examples(self):
        assert cut_probability((3, 7), 10) == Fraction(2, 5)
        assert cut_probability((1, 5, 9), 10) == Fraction(4, 25)

    def test_validation(self):
        with pytest.raises(InputError):
            cut_probability((7, 3), 10)
        with pytest.raises(InputError):
            cut_probability((3, 11), 10)


class ScriptedDraws:
    """Stands in for the generator: below(n) returns the given cut points,
    less one, in order."""

    def __init__(self, points):
        self.points = list(points)

    def below(self, n):
        point = self.points.pop(0)
        assert 1 <= point <= n
        return point - 1


class TestCuts:
    def test_single_edge_two_cuts(self):
        assert cut_hits((1, 2), 2, 1, ScriptedDraws([1])) == 1
        assert cut_hits((1, 2), 2, 1, ScriptedDraws([2])) == 0

    def test_degenerate_cut_cuts_nothing(self):
        for e in combinations(range(1, 7), 3):
            assert cut_hits(e, 6, 1, ScriptedDraws([4, 2])) == 0
        assert cut_hits((2, 3, 5), 6, 1, ScriptedDraws([2, 4])) == 1

    @pytest.mark.parametrize("e, n", [((3, 9), 12), ((2, 5, 7), 10)])
    def test_stream_pinned(self, e, n):
        """t-1 draws per trial, in order, none skipped after a miss."""
        rng, hand = SplitMix64(2024), SplitMix64(2024)
        trials = 3000
        expected = 0
        for _ in range(trials):
            points = [hand.below(n) + 1 for _ in range(len(e) - 1)]
            expected += all(e[j] <= points[j] < e[j + 1] for j in range(len(e) - 1))
        assert cut_hits(e, n, trials, rng) == expected
        assert rng.state == hand.state

    def test_one_vertex_edge_and_no_trials(self):
        rng = SplitMix64(9)
        assert cut_hits((4,), 7, 25, rng) == 25
        assert cut_hits((2, 5), 7, 0, rng) == 0
        assert rng.state == SplitMix64(9).state

    def test_bad_edge_rejected(self):
        for e in ((7, 3), (3, 11), (2, 2)):
            with pytest.raises(InputError):
                cut_hits(e, 10, 5, SplitMix64(1))

    def test_exhaustive_ratio_matches_probability(self):
        for n, t in ((12, 2), (12, 3), (8, 3)):
            rng = SplitMix64(n * 31 + t)
            for _ in range(4):
                verts = set()
                while len(verts) < t:
                    verts.add(rng.below(n) + 1)
                e = tuple(sorted(verts))
                # Cut points i_1..i_{t-1} cut e when x_j <= i_j < x_{j+1}.
                hits = sum(
                    1
                    for pts in product(range(1, n + 1), repeat=t - 1)
                    if all(e[j] <= pts[j] < e[j + 1] for j in range(t - 1))
                )
                assert Fraction(hits, n ** (t - 1)) == cut_probability(e, n)

    @pytest.mark.parametrize("m", [4, 7, 20, 999])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_three_sigma_ties(self, m, sign):
        # p = 1/2 over m^2 trials: sigma = 1/(2m), so h = (m^2 +- 3m)/2 hits
        # lie exactly three sigma out, and one more hit further lies outside
        # (m >= 4 keeps every count within 0..m^2).
        half, trials = Fraction(1, 2), m * m
        h = (trials + sign * 3 * m) // 2
        assert _within_three_sigma(h, trials, half)
        assert not _within_three_sigma(h + sign, trials, half)
        assert _within_three_sigma(h - sign, trials, half)

    def test_monte_carlo_within_tolerance(self):
        rng = SplitMix64(424242)
        e, n = (3, 9), 12
        p = float(cut_probability(e, n))
        trials = 20000
        hits = cut_hits(e, n, trials, rng)
        tol = 3 * (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) <= tol


def oracle_t_partite(n, edges, sizes):
    """Full enumeration over every ordered choice of disjoint parts."""

    def rec(idx, lo, parts):
        if idx == len(sizes):
            for tr in product(*parts):
                if tuple(sorted(tr)) not in edges:
                    return None
            return tuple(parts)
        for combo in combinations(range(lo, n + 1), sizes[idx]):
            got = rec(idx + 1, combo[-1] + 1, parts + [combo])
            if got:
                return got
        return None

    return rec(0, 1, [])


class TestTPartiteSearch:
    def test_complete_bipartite(self):
        edges = {(1, 3), (1, 4), (2, 3), (2, 4)}
        assert find_ordered_complete_t_partite(4, (2, 2), completion_map(edges)) == ((1, 2), (3, 4))

    def test_empty(self):
        assert find_ordered_complete_t_partite(4, (2, 2), {}) is None

    @staticmethod
    def check_against_oracle(rng, t, n, shapes, instances):
        """The search against the oracle on random t-uniform edge sets over
        1..n, from sparse to dense, for each part-size vector in shapes;
        both found and absent answers must occur."""
        answers = set()
        for _ in range(instances):
            density = 0.05 + 0.8 * rng.random()
            edges = frozenset(
                e for e in combinations(range(1, n + 1), t) if rng.bernoulli(density)
            )
            for sizes in shapes:
                found = find_ordered_complete_t_partite(n, sizes, completion_map(edges))
                assert found == oracle_t_partite(n, edges, sizes)
                answers.add(found is None)
                if found:
                    for tr in product(*found):
                        assert tuple(sorted(tr)) in edges
                    assert all(max(a) < min(b) for a, b in zip(found, found[1:]))
        assert answers == {True, False}

    # The last part-size vector of each call sums past n; for t >= 2 the
    # later parts alone need more than n + 1 columns, so the first part's
    # range would end below its start.
    def test_agrees_with_oracle_on_random_instances(self, rng):
        self.check_against_oracle(rng, 1, 8, ((1,), (3,), (9,)), 60)
        self.check_against_oracle(rng, 2, 8, ((1, 1), (2, 2), (1, 3), (1, 10)), 60)
        self.check_against_oracle(rng, 4, 7, ((1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1), (1, 3, 3, 3)), 60)

    def test_three_uniform(self, rng):
        self.check_against_oracle(rng, 3, 7, ((1, 2, 1), (2, 1, 2), (1, 4, 5)), 40)

    @pytest.mark.parametrize("cols, t, s", [(24, 4, 2), (32, 4, 2), (40, 3, 3)])
    def test_one_edge_host_tries_no_part(self, monkeypatch, cols, t, s):
        # Only row 1, columns 1..4, holds 1s, so the one t-edge starts at
        # column 1 and the first part, of s >= 2 columns, has one candidate.
        # A search without the prefix cut tries thousands of part choices.
        m = ZeroOneMatrix([0b1111] + [0] * (cols - 1), cols)
        completions = heavy_label_classes(m, t, 1, 1)[(1,)]
        tries = []

        def counted(pool, r):
            for part in combinations(pool, r):
                tries.append(part)
                yield part

        monkeypatch.setattr(ohypergraph, "combinations", counted)
        assert find_ordered_complete_t_partite(cols, [s] * t, completions) is None
        assert tries == []

    def test_size_vector_validation(self):
        completions = completion_map({(1, 2)})
        for sizes in ((1, 0), (2, -1), ()):
            with pytest.raises(DomainError):
                find_ordered_complete_t_partite(4, sizes, completions)


class TestAvoidanceThreshold:
    def test_pinned_value(self):
        assert avoidance_threshold(16, 2, 2).threshold == pytest.approx(256.0)

    def test_s1_exponent(self):
        at = avoidance_threshold(9, 2, 1)
        assert at.delta == pytest.approx(0.5)
        assert at.threshold == pytest.approx(2 * 9**1.5)

    def test_delta_decreasing_in_s(self):
        deltas = [avoidance_threshold(100, 3, s).delta for s in (1, 2, 3, 4)]
        assert deltas == sorted(deltas, reverse=True)

    def test_json_form(self):
        at = avoidance_threshold(16, 2, 2)
        assert at.to_json_dict() == {"n": 16, "t": 2, "s": 2, "delta": 0.25, "gamma": 0.25, "threshold": at.threshold}

    def test_threshold_past_the_float_range_is_inf(self):
        assert avoidance_threshold(10**300, 2, 1).threshold == math.inf

    def test_gamma_companion(self):
        at = avoidance_threshold(10, 3, 2)
        assert at.gamma == pytest.approx(2 / 12)

    def test_domain(self):
        with pytest.raises(DomainError):
            avoidance_threshold(0, 2, 2)
