from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import COLUMN_2_PARTITE, random_matrix
from patex.errors import DivisibilityError, DomainError, InputError
from patex.matrix import ZeroOneMatrix
from patex.ohypergraph import (
    OrderedHypergraph,
    TCut,
    avoidance_threshold,
    build_column_hypergraph,
    classify_edge,
    cut_cuts_edge,
    cut_probability,
    edges_cut,
    find_ordered_complete_t_partite,
    heavy_label_classes,
    random_t_cut,
)
from patex.rng import SplitMix64


class TestBuild:
    def test_all_ones_2x2(self):
        graph, labels = build_column_hypergraph(ZeroOneMatrix.ones(2, 2), 2, 2)
        assert graph.edges == frozenset({(1, 2)})
        assert labels.phi[(1, 2)] == frozenset({1, 2})

    def test_single_row(self):
        graph, labels = build_column_hypergraph(ZeroOneMatrix.from_rows([[1, 0, 1]]), 2, 1)
        assert graph.edges == frozenset({(1, 3)})
        assert labels.phi[(1, 3)] == frozenset({1})

    def test_fixture_phi(self):
        graph, labels = build_column_hypergraph(COLUMN_2_PARTITE, 2, 2)
        assert labels.phi[(1, 4)] == frozenset({1, 2})
        assert labels.phi[(2, 4)] == frozenset({1})
        assert labels.phi[(2, 3)] == frozenset({2})

    def test_phi_soundness_rederivable(self, rng):
        for _ in range(50):
            m = random_matrix(rng, 8, 8, 0.4)
            graph, labels = build_column_hypergraph(m, 2, 4)
            for e, blocks in labels.phi.items():
                for b in range(1, 5):
                    witness = any(
                        all(m.entry(i, j) for j in e)
                        for i in range((b - 1) * 2 + 1, b * 2 + 1)
                    )
                    assert witness == (b in blocks)

    def test_divisibility(self):
        with pytest.raises(DivisibilityError):
            build_column_hypergraph(ZeroOneMatrix.ones(4, 4), 2, 3)


class TestValidation:
    @pytest.mark.parametrize(
        "edge",
        [(1,), (1, 2, 3), (2, 2), (0, 2), (1, 5), (3, 1), (-1, 2)],
    )
    def test_malformed_edge_rejected(self, edge):
        with pytest.raises(InputError):
            OrderedHypergraph(n=4, t=2, edges=frozenset({(1, 2), edge}))

    def test_well_formed_edges_accepted(self):
        h = OrderedHypergraph(n=4, t=3, edges=frozenset({(1, 2, 3), (1, 3, 4), (2, 3, 4)}))
        assert len(h.edges) == 3


class TestHeavyLabelClasses:
    @staticmethod
    def grouped(m, t, k, r):
        """Heavy classes derived from the full hypergraph."""
        _, labels = build_column_hypergraph(m, t, k)
        out = {}
        for e in labels.phi:
            cls = classify_edge(labels, e, r)
            if cls.kind == "heavy":
                out.setdefault(cls.label, set()).add(e)
        return {label: frozenset(edges) for label, edges in out.items()}

    def test_matches_full_hypergraph_grouping(self):
        rng = SplitMix64(0x4EA7)
        for rows, cols, p in ((8, 8, 0.4), (8, 10, 0.6), (16, 9, 0.3), (4, 7, 0.8)):
            for _ in range(3):
                m = random_matrix(rng, rows, cols, p)
                for t in (1, 2, 3):
                    for k in (1, 2, 4):
                        for r in range(1, 6):
                            got = heavy_label_classes(m, t, k, r)
                            assert got == self.grouped(m, t, k, r)
                            if r > k:
                                assert got == {}

    def test_labels_are_first_r_blocks(self):
        m = ZeroOneMatrix.ones(8, 2)
        assert heavy_label_classes(m, 2, 8, 3) == {(1, 2, 3): frozenset({(1, 2)})}
        assert heavy_label_classes(m, 2, 8, 9) == {}

    def test_errors(self):
        with pytest.raises(DivisibilityError):
            heavy_label_classes(ZeroOneMatrix.ones(4, 4), 2, 3, 2)
        with pytest.raises(DomainError):
            heavy_label_classes(ZeroOneMatrix.ones(4, 4), 0, 2, 2)


class TestClassifyEdge:
    def test_light_heavy_tiebreak(self):
        graph, labels = build_column_hypergraph(ZeroOneMatrix.ones(8, 2), 2, 8)
        full = classify_edge(labels, (1, 2), 2)
        assert full.kind == "heavy" and full.label == (1, 2)
        assert classify_edge(labels, (1, 2), 9).kind == "light"
        assert classify_edge(labels, (1, 2), 8).label == tuple(range(1, 9))

    def test_unknown_edge(self):
        graph, labels = build_column_hypergraph(ZeroOneMatrix.ones(2, 2), 2, 2)
        with pytest.raises(InputError):
            classify_edge(labels, (1, 3), 2)


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


class TestCuts:
    def test_single_edge_two_cuts(self):
        h = OrderedHypergraph(n=2, t=2, edges=frozenset({(1, 2)}))
        assert edges_cut(h, TCut(n=2, t=2, points=(1,))) == ((1, 2),)
        assert edges_cut(h, TCut(n=2, t=2, points=(2,))) == ()

    def test_exhaustive_ratio_matches_probability(self):
        for n, t in ((12, 2), (12, 3), (8, 3)):
            rng = SplitMix64(n * 31 + t)
            for _ in range(4):
                verts = set()
                while len(verts) < t:
                    verts.add(rng.below(n) + 1)
                e = tuple(sorted(verts))
                hits = sum(
                    1
                    for pts in product(range(1, n + 1), repeat=t - 1)
                    if cut_cuts_edge(TCut(n=n, t=t, points=pts), e)
                )
                assert Fraction(hits, n ** (t - 1)) == cut_probability(e, n)

    def test_seeded_determinism(self):
        a = [random_t_cut(10, 3, SplitMix64(5)).points for _ in range(1)]
        cuts1 = [random_t_cut(10, 3, SplitMix64(77)).points for _ in range(5)]
        r = SplitMix64(77)
        cuts2 = [random_t_cut(10, 3, r).points for _ in range(5)]
        r2 = SplitMix64(77)
        cuts3 = [random_t_cut(10, 3, r2).points for _ in range(5)]
        assert cuts2 == cuts3

    def test_monte_carlo_within_tolerance(self):
        rng = SplitMix64(424242)
        e, n = (3, 9), 12
        p = float(cut_probability(e, n))
        trials = 20000
        hits = sum(1 for _ in range(trials) if cut_cuts_edge(random_t_cut(n, 2, rng), e))
        tol = 3 * (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) <= tol

    def test_domain_error(self):
        with pytest.raises(DomainError):
            random_t_cut(1, 3, SplitMix64(1))

    def test_degenerate_cut_cuts_nothing(self):
        h = OrderedHypergraph(n=6, t=3, edges=frozenset({(1, 3, 5)}))
        assert edges_cut(h, TCut(n=6, t=3, points=(4, 2))) == ()

    def test_parts_of_proper_cut(self):
        cut = TCut(n=6, t=3, points=(2, 4))
        assert cut.parts() == ((1, 2), (3, 4), (5, 6))


def oracle_t_partite(h, sizes):
    """Full enumeration over every ordered choice of disjoint parts."""
    verts = range(1, h.n + 1)

    def rec(idx, lo, parts):
        if idx == len(sizes):
            for tr in product(*parts):
                if tuple(sorted(tr)) not in h.edges:
                    return None
            return tuple(parts)
        for combo in combinations(range(lo, h.n + 1), sizes[idx]):
            got = rec(idx + 1, combo[-1] + 1, parts + [combo])
            if got:
                return got
        return None

    return rec(0, 1, [])


class TestTPartiteSearch:
    def test_complete_bipartite(self):
        h = OrderedHypergraph(n=4, t=2, edges=frozenset({(1, 3), (1, 4), (2, 3), (2, 4)}))
        assert find_ordered_complete_t_partite(h, 2) == ((1, 2), (3, 4))

    def test_empty(self):
        h = OrderedHypergraph(n=4, t=2, edges=frozenset())
        assert find_ordered_complete_t_partite(h, 2) is None

    def test_agrees_with_oracle_on_random_instances(self, rng):
        for _ in range(60):
            n = 8
            density = 0.35 + 0.45 * rng.random()
            edges = frozenset(
                e for e in combinations(range(1, n + 1), 2) if rng.bernoulli(density)
            )
            h = OrderedHypergraph(n=n, t=2, edges=edges)
            for s in (1, 2):
                found = find_ordered_complete_t_partite(h, s)
                oracle = oracle_t_partite(h, (s,) * 2)
                assert (found is None) == (oracle is None)
                if found:
                    for tr in product(*found):
                        assert tuple(sorted(tr)) in edges
                    assert max(found[0]) < min(found[1])

    def test_three_uniform(self, rng):
        for _ in range(20):
            n = 7
            edges = frozenset(
                e for e in combinations(range(1, n + 1), 3) if rng.bernoulli(0.6)
            )
            h = OrderedHypergraph(n=n, t=3, edges=edges)
            found = find_ordered_complete_t_partite(h, (1, 2, 1))
            oracle = oracle_t_partite(h, (1, 2, 1))
            assert (found is None) == (oracle is None)

    def test_size_vector_validation(self):
        h = OrderedHypergraph(n=4, t=2, edges=frozenset({(1, 2)}))
        with pytest.raises(DomainError):
            find_ordered_complete_t_partite(h, (1, 2, 1))


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

    def test_gamma_companion(self):
        at = avoidance_threshold(10, 3, 2)
        assert at.gamma == pytest.approx(2 / 12)

    def test_domain(self):
        with pytest.raises(DomainError):
            avoidance_threshold(0, 2, 2)
