import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import patex.increment as increment
from conftest import (
    BOUNDED,
    COLUMN_2_PARTITE,
    DOUBLY_2_PARTITE,
    K22,
    NO_FLOAT,
    SIX_CYCLES_3X3,
    oracle_count_copies,
    oracle_embedding,
    plant,
    random_matrix,
)
from patex.classify import min_column_parts, min_row_parts
from patex.count import _Count, _count_copies, _stepping_holds, count_copies
from patex.errors import DivisibilityError, DomainError, InputError, PreconditionError
from patex.increment import (
    _part_sizes,
    density_increment_step,
    lambda_schedule,
    make_constants,
    run_driver,
    symmetric_increment_step,
)
from patex.count import stepping_bound
from patex.matrix import Embedding, ZeroOneMatrix, verify_embedding
from patex.rng import SplitMix64
from patex.search import deletion_lower_bound


class TestConstants:
    def test_pinned_values(self):
        pc = make_constants(2, 2, 2, 2, 1.0)
        assert pc.k == 16
        assert pc.delta == 0.25
        assert pc.c == 2.0**-6
        assert list(pc.to_json_dict()) == [
            "t", "r", "s", "u", "epsilon", "k", "delta", "c",
            "log10_k", "log10_C0", "log10_Cprime", "log10_C",
        ]

    def test_defining_inequalities(self):
        for args in ((2, 2, 2, 2, 1.0), (2, 3, 2, 2, 1.0), (3, 2, 2, 3, 1.0)):
            pc = make_constants(*args)
            base = Fraction(4 * args[1] ** (args[0] - 1) * args[0] ** args[0], math.factorial(args[0]))
            assert pc.k - 1 < base <= pc.k  # eps = 1, so k = ceil(base)
            comb = math.comb(pc.k, args[1])
            # C0^delta >= 8 t^t binom(k, r), C' = 8 binom(k, r) C0^(t-delta)
            # within a relative 1e-9, and C >= max(C', 4 binom(ru, u)), in log10.
            assert pc.log10_C0 * pc.delta >= math.log10(8 * args[0] ** args[0] * comb * (1 - 1e-9))
            assert pc.log10_Cprime == pytest.approx(
                math.log10(8 * comb) + (args[0] - pc.delta) * pc.log10_C0, abs=math.log10(1 + 1e-9)
            )
            assert pc.log10_C >= pc.log10_Cprime
            assert pc.log10_C >= math.log10(4 * math.comb(args[1] * args[3], args[3]))

    def test_oversized_constants_reported_in_logs(self):
        pc = make_constants(2, 2, 2, 2, 0.06)  # 1/eps not an integer, k beyond float
        assert pc.k is None and pc.log10_k > 15
        assert pc.log10_C > 300

    @pytest.mark.parametrize(
        "epsilon, k",
        [
            (0.7, 53),  # 16^(10/7) = 52.50...
            # 16^(1/eps) > 1, though its float is 1.0.
            (1e17, 2),
            (1e300, 2),
            # 1.0/eps rounds to 3.0, but as written 1/eps = 10^16/3333333333333333
            # is above 3, so 16^(1/eps) is above 4096.
            (0.3333333333333333, 4097),
        ],
    )
    def test_float_exponent_materializes_below_the_cap(self, epsilon, k):
        # 1/eps is not an integer, and k is below 10^15.
        assert make_constants(2, 2, 2, 2, epsilon).k == k

    def test_integral_exponent_materializes_exactly(self):
        pc = make_constants(2, 2, 2, 2, 0.05)  # 1/eps = 20, exact rational power
        assert pc.k == 16**20
        assert pc.log10_C > 300

    def test_tiny_epsilon_reports_k_in_logs(self):
        # 1/eps = 10^4 is integral, but 16^10000 has 12,042 digits: more
        # than str() of an int takes by default, so k stays a log10.
        pc = make_constants(2, 2, 2, 2, 1e-4)
        assert pc.k is None
        assert pc.log10_k == pytest.approx(1e4 * math.log10(16))
        host = random_matrix(SplitMix64(5), 16, 16, 0.5)
        trace = run_driver(host, K22, "thm21", k=2, epsilon=1e-4, depth=1)
        doc = json.loads(json.dumps(trace.to_json_dict()))
        assert doc["constants"]["k"] is None

    def test_k_below_r_takes_binom_k_r_as_one(self):
        # k = ceil(24^(1/100)) = 2 < r = 3: binom(k, r) = 0 has no log10, and
        # the constants take it as 0, as if binom(k, r) were 1.
        pc = make_constants(2, 3, 2, 2, 100.0)
        assert pc.k == 2 and math.comb(pc.k, 3) == 0
        assert pc.log10_C0 == 4 * math.log10(32)  # (log10(8 t^t) + 0) / delta
        assert pc.log10_Cprime == math.log10(8) + (2 - 0.25) * pc.log10_C0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_constants(1, 2, 2, 2, 1.0)
        with pytest.raises(DomainError):
            make_constants(2, 2, 2, 2, 0.0)

    @pytest.mark.parametrize("r, s, u", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_size_guard(self, r, s, u):
        with pytest.raises(DomainError, match="^r, s, u must be positive$"):
            make_constants(2, r, s, u, 1.0)

    @pytest.mark.parametrize("epsilon", NO_FLOAT)
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(DomainError, match="^epsilon must be finite and positive, got"):
            make_constants(2, 2, 2, 2, epsilon)

    @pytest.mark.parametrize(
        "epsilon, size",
        [
            (Fraction(10**5000), "a 16610-bit numerator over a 1-bit denominator"),
            (Fraction(1, 10**5000), "a 1-bit numerator over a 16610-bit denominator"),
        ],
    )
    def test_rejected_epsilon_past_the_digit_limit_is_given_by_its_size(self, epsilon, size):
        # str() of an int past 4,300 digits raises ValueError
        with pytest.raises(DomainError, match=f"^epsilon must be finite and positive, got {size}$"):
            make_constants(2, 2, 2, 2, epsilon)


class TestLambdaSchedule:
    def test_start_value(self):
        sched = lambda_schedule(2, 40, 1.0)
        assert sched.value(2) == 1.0
        assert sched.value(3) == pytest.approx(1 - 1 / 6 + sched.epsilon0)
        assert sched.value(41) == 0.0

    def test_closed_form_and_tail(self):
        # The recurrence, run in Fractions, against the exact closed form.
        sched = lambda_schedule(3, 60, 0.7)
        assert sched.epsilon0 == Fraction(7, 900)
        lam = 1 - Fraction(1, 8) + sched.epsilon0
        for u in range(4, 61):
            assert sched.value(u) == lam == sched.epsilon0 + Fraction(3, 2 * (u - 1)) + Fraction(3, 2 * u)
            lam -= Fraction(3, (u - 1) * (u + 1))
        assert sched.value(60) == sched.epsilon0 + Fraction(3, 118) + Fraction(3, 120)
        assert sched.value(61) == 0

    def test_strictly_decreasing(self):
        sched = lambda_schedule(2, 100, 1.0)
        vals = [sched.value(u) for u in range(2, 102)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_type_rule(self):
        # A level's width is its last type; the schedule ends at i = z.
        sched = lambda_schedule(2, 40, 1.0)
        z = Fraction(5)
        assert sched.types_of(0, z) == (2,)
        for i in (Fraction(1, 2), 1, 2, 4):
            u = sched.types_of(i, z)[-1]
            assert z * sched.value(u + 1) < z - i <= z * sched.value(u)
        jumps = [z - z * sched.value(u) for u in range(3, 41)]
        assert jumps == sorted(jumps)

    def test_jump_levels_have_two_types(self):
        sched = lambda_schedule(2, 40, 1.0)
        z = Fraction(10)
        for u in range(3, 41):
            assert sched.types_of(z - z * sched.value(u), z) == (u - 1, u)

    def test_domain_error(self):
        for _ in range(2):  # an error is never cached
            with pytest.raises(DomainError):
                lambda_schedule(2, 3, 1.0)

    def test_guard_messages(self):
        with pytest.raises(DomainError, match="^t must be positive$"):
            lambda_schedule(0, 5, 1.0)
        sched = lambda_schedule(2, 5, 1.0)
        with pytest.raises(InputError, match=r"^u=1 outside 2\.\.6$"):
            sched.value(1)
        with pytest.raises(InputError, match=r"^u=7 outside 2\.\.6$"):
            sched.value(7)

    @pytest.mark.parametrize("epsilon", NO_FLOAT)
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(DomainError, match="^epsilon must be finite and positive, got"):
            lambda_schedule(2, 40, epsilon)

    def test_epsilon_too_large_for_the_schedule(self):
        # From eps = 5t^2/(t+1) on, lambda_{t+1} = 1 - 1/(2(t+1)) + eps/(10t^2)
        # is at least lambda_t = 1, and the schedule is not decreasing.
        with pytest.raises(DomainError, match="^epsilon too large for the schedule"):
            lambda_schedule(1, 100, 2.5)
        assert lambda_schedule(1, 100, 2.4).value(2) < 1
        with pytest.raises(DomainError, match="^epsilon too large for the schedule"):
            lambda_schedule(2, 100, 8.0)
        with pytest.raises(DomainError, match="^epsilon too large for the schedule"):
            run_driver(ZeroOneMatrix.ones(4, 4), COLUMN_2_PARTITE, "thm11", k=2, epsilon=8)

    def test_lookups_match_defining_inequalities(self):
        # The driver's z is log_k n0: a Fraction when it is rational, and a
        # float otherwise, which the scan reads at its exact value.
        for t, eps, U in ((2, 1.0, 40), (3, 2.0, 60)):
            sched = lambda_schedule(t, U, eps)
            lam = [sched.value(u) for u in range(t, U + 2)]
            zs = {increment._log(n, k) for k in (2, 3, 4, 5, 16) for n in range(2, 65)}
            for z in sorted(zs | {Fraction(j) for j in range(1, 9)}):
                zlam = [Fraction(z) * v for v in lam]  # z*lambda_u for u = t..U+1
                levels = list(range(math.ceil(z) + 2))
                if isinstance(z, Fraction):  # exact ties on the jumps
                    levels += [z - v for v in zlam[1:-1]]
                for i in levels:
                    rem = Fraction(z) - i
                    typed, types = [], []
                    for u in range(t, U + 1):
                        if rem > 0 and zlam[u + 1 - t] < rem <= zlam[u - t]:
                            typed.append(u)
                        if zlam[u + 1 - t] <= rem <= zlam[u - t]:
                            types.append(u)
                    assert sched.types_of(i, z) == tuple(types), (t, z, i)
                    if Fraction(i).denominator == 1:  # a level the driver gives a width
                        assert typed == (types[-1:] if i < z else []), (t, z, i)

    @pytest.mark.parametrize("t, U, eps", [(2, 40, 1.0), (3, 12, 0.5)])
    def test_type_of_matches_a_linear_scan(self, t, U, eps):
        # the width rule, u by u: at most one u has
        # z*lambda_{u+1} < z - i <= z*lambda_u, and on an integer level
        # 0 <= i < z it is the last type; no u has it elsewhere
        sched = lambda_schedule(t, U, eps)
        for z in [Fraction(q, 8) for q in range(81)] + [Fraction(29, 4), increment._log(10, 3)]:
            zq = Fraction(z)  # a float z at its exact value
            zlam = {u: zq * sched.value(u) for u in range(t, U + 2)}
            levels = [Fraction(k, 4) for k in range(-4, 4 * math.ceil(z) + 6)]
            levels += [zq - zlam[u] for u in range(t + 1, U + 1)]
            for i in levels:
                rem = zq - i
                want = [u for u in range(t, U + 1) if rem > 0 and zlam[u + 1] < rem <= zlam[u]]
                assert len(want) <= 1
                if i.denominator == 1:
                    assert want == (list(sched.types_of(i, z)[-1:]) if i < z else []), (z, i)
                elif want:  # a jump or a level between integers
                    assert want == list(sched.types_of(i, z)[-1:]), (z, i)

    @BOUNDED
    @given(
        t_eps=st.integers(1, 5).flatmap(
            # eps below 5t^2/(t+1), where the schedule decreases
            lambda t: st.tuples(
                st.just(t),
                st.fractions(Fraction(1, 1000), Fraction(-(-5000 * t * t // (t + 1)) - 1, 1000), max_denominator=1000),
            )
        ),
        U_extra=st.integers(2, 60),
        z=st.fractions(Fraction(1, 50), 30, max_denominator=50),
        level=st.one_of(
            st.fractions(-1, 31, max_denominator=12),
            st.integers(0, 70).map(lambda u: ("jump", u)),
        ),
    )
    def test_types_of_matches_a_fraction_scan(self, t_eps, U_extra, z, level):
        # types_of against its defining inequalities z - z*lambda_u <= i <=
        # z - z*lambda_{u+1}, scanned u by u in Fractions, with exact ties
        # built in by putting i on a jump z - z*lambda_u.
        t, eps = t_eps
        U = t + U_extra
        sched = lambda_schedule(t, U, eps)
        lam = [sched.value(u) for u in range(t, U + 2)]
        i = z - z * lam[min(level[1], U + 1 - t)] if isinstance(level, tuple) else level
        want = tuple(
            u for u in range(t, U + 1) if z - z * lam[u - t] <= i <= z - z * lam[u + 1 - t]
        )
        assert sched.types_of(i, z) == want

    @BOUNDED
    @given(
        eps=st.fractions(Fraction(1, 10**6), 3, max_denominator=10**6),
        x=st.fractions(0, 1, max_denominator=10**9),
    )
    def test_types_of_on_a_long_schedule(self, eps, x):
        # U up to 4*10^8: the types satisfy the defining inequalities and
        # their neighbours do not, which settles them since 1 - lambda_u
        # increases on t+1..U+1.
        t = 2
        U = math.ceil(100 * t**3 / eps)
        sched = lambda_schedule(t, U, eps)
        bound = lambda u: 1 - sched.value(u)  # noqa: E731
        types = sched.types_of(x, 1)
        assert types and len(types) <= 2
        assert all(bound(u) <= x <= bound(u + 1) for u in types)
        lo, hi = types[0] - 1, types[-1] + 1
        assert lo < t or not bound(lo) <= x <= bound(lo + 1)
        assert hi > U or not bound(hi) <= x <= bound(hi + 1)


class TestLog:
    @BOUNDED
    @given(g=st.integers(2, 30), a=st.integers(0, 40), b=st.integers(1, 8))
    def test_common_powers_give_the_exact_ratio(self, g, a, b):
        log = increment._log(g**a, g**b)
        assert isinstance(log, Fraction) and log == Fraction(a, b)

    @BOUNDED
    @given(n=st.integers(1, 256), k=st.integers(2, 256))
    def test_rational_exactly_when_a_power_relation_holds(self, n, k):
        # For n, k <= 256, n^b = k^a needs no exponent above 8.
        ratios = [Fraction(a, b) for a in range(9) for b in range(1, 9) if n**b == k**a]
        log = increment._log(n, k)
        if ratios:
            assert isinstance(log, Fraction) and log == ratios[0]
        else:
            assert isinstance(log, float) and log == math.log(n) / math.log(k)

    @pytest.mark.parametrize("n, k", [(10, 3), (2, 3), (12, 8), (6, 4), (3125, 2)])
    def test_irrational_logs_are_floats(self, n, k):
        assert increment._log(n, k) == math.log(n) / math.log(k)
        assert isinstance(increment._log(n, k), float)

    @BOUNDED
    @given(g=st.integers(2, 30), a=st.integers(0, 40), c=st.integers(0, 40), b=st.integers(1, 8))
    def test_fractions_of_common_powers_give_the_exact_ratio(self, g, a, c, b):
        log = increment._log(Fraction(g**a, g**c), g**b)
        assert isinstance(log, Fraction) and log == Fraction(a - c, b)

    @pytest.mark.parametrize("g", [2**60 + 3, 10**400 + 1])
    def test_roots_past_the_float_range(self, g):
        # k = g^2 past 2^53, or past every float: k's least root is found
        # in integers.
        log = increment._log(g**3, g**2)
        assert isinstance(log, Fraction) and log == Fraction(3, 2)

    @pytest.mark.parametrize("x, k", [(Fraction(2, 3), 6), (Fraction(8, 3), 2), (Fraction(1, 10), 3)])
    def test_other_fractions_give_floats(self, x, k):
        # no power of k, though 2 * 3 = 6 and 8 = 2^3 are
        log = increment._log(x, k)
        assert isinstance(log, float)
        assert log == (math.log(x.numerator) - math.log(x.denominator)) / math.log(k)


class TestPartSizes:
    @pytest.mark.parametrize(
        "cuts, width, parts, sizes",
        [
            ((2,), 4, 2, (2, 2)),
            ((), 3, 3, (1, 1, 1)),
            ((3,), 5, 4, (1, 1, 1, 2)),
            ((1, 2), 5, 4, (1, 1, 1, 2)),
            ((), 1, 1, (1,)),
        ],
    )
    def test_sizes_refined_leftmost_first(self, cuts, width, parts, sizes):
        assert _part_sizes(cuts, width, parts) == sizes

    def test_too_many_parts(self):
        with pytest.raises(PreconditionError, match="cannot split 2 positions into 3 nonempty intervals"):
            _part_sizes((), 2, 3)


class TestDensityStep:
    def test_concentrated_weight_densifies_block_one(self):
        m = ZeroOneMatrix([255, 255] + [0] * 6, 8)
        step = density_increment_step(m, K22, 2, 4)
        assert step.kind == "densified" and step.block == 1
        assert step.count == step.total == step.narrow_total
        assert step.guarantee_met

    def test_planted_instance_embeds(self):
        rng = SplitMix64(0xBEEF)
        for i in range(30):
            a = (K22, COLUMN_2_PARTITE, SIX_CYCLES_3X3[0])[i % 3]
            host = plant(rng, a, 4, 3, 12, (0.0, 0.08)[i % 2])
            step = density_increment_step(host, a, min_column_parts(a)[0], 4)
            assert step.kind == "embedded"
            assert verify_embedding(host, a, step.embedding)

    def test_certificate_rows_are_first_covering_rows(self):
        """Pattern row a lands on the first row of block label[a] with a 1 in
        the image of each of row a's 1-columns."""
        rng = SplitMix64(0x5EED)
        embedded = 0
        for a in (K22, COLUMN_2_PARTITE, *SIX_CYCLES_3X3):
            for _ in range(8):
                host = random_matrix(rng, 24, 24, 0.3)
                step = density_increment_step(host, a, min_column_parts(a)[0], 4)
                if step.kind != "embedded":
                    continue
                embedded += 1
                emb, band = step.embedding, host.rows // 4
                for i in range(1, a.rows + 1):
                    ones = [j for j in range(1, a.cols + 1) if a.entry(i, j)]
                    block = step.label[i - 1]
                    first = next(
                        h
                        for h in range((block - 1) * band + 1, block * band + 1)
                        if all(host.entry(h, emb.col_map[j - 1]) for j in ones)
                    )
                    assert emb.row_map[i - 1] == first
        assert embedded >= 20

    def test_pigeonhole_floor_always(self, rng):
        for _ in range(40):
            m = random_matrix(rng, 8, 8, 0.5)
            step = density_increment_step(m, K22, 2, 4)
            if step.kind != "densified":
                continue
            assert step.count * 4 >= step.narrow_total

    def test_densified_count_matches_recount(self, rng):
        for _ in range(20):
            m = random_matrix(rng, 8, 8, 0.35)
            step = density_increment_step(m, K22, 2, 4)
            if step.kind != "densified":
                continue
            lo, hi = step.row_range
            assert count_copies(m.submatrix(lo, hi, 1, m.cols), 2, 2).count == step.count

    def test_divisibility_error(self):
        with pytest.raises(DivisibilityError):
            density_increment_step(ZeroOneMatrix.ones(6, 6), K22, 2, 4)

    def test_width_guard(self):
        with pytest.raises(DomainError, match="^u must be positive$"):
            density_increment_step(ZeroOneMatrix.ones(4, 4), K22, 0, 2)


class TestSymmetricStep:
    def test_all_ones_embeds(self):
        step = symmetric_increment_step(ZeroOneMatrix.ones(8, 8), K22, 4)
        assert step.kind == "embedded"

    def test_grid_concentration(self):
        masks = [3, 3] + [0] * 6  # all weight in grid block (1, 1)
        m = ZeroOneMatrix(masks, 8)
        step = symmetric_increment_step(m, K22, 4)
        assert step.kind == "densified"
        assert step.block == (1, 1)
        assert step.guarantee_met

    def test_composed_guarantee_recompute(self, rng):
        r, s = K22.rows, K22.cols
        for _ in range(15):
            m = random_matrix(rng, 8, 8, 0.3)
            step = symmetric_increment_step(m, K22, 4)
            if step.kind != "densified":
                continue
            lhs = step.count * 16 * (r * s) ** 1 * 2**4 * 16
            rhs = math.factorial(2) ** 2 * step.total
            assert step.guarantee_met == (lhs >= rhs)

    def test_transposed_certificate(self):
        # The horizontal pass finds no heavy edge; the vertical pass, on the
        # transpose of the top band, embeds, and its certificate is turned back.
        m = ZeroOneMatrix.parse("1111\n1111\n0000\n0000")
        step = symmetric_increment_step(m, K22, 2)
        assert step.kind == "embedded" and len(step.heavy) == 2
        assert step.heavy[0].edges == 0
        emb = step.embedding
        assert (emb.row_map, emb.col_map) == ((1, 2), (1, 3))
        assert oracle_embedding(m.select(emb.row_map, emb.col_map), K22) == Embedding((1, 2), (1, 2))

    def test_refinement_error_precedes_the_first_pass(self):
        # The first pass would embed 1 1 1 in the all-ones host, but the
        # one-row pattern cannot be split into t = 3 row parts.
        with pytest.raises(PreconditionError, match="cannot split 1 positions into 3 nonempty intervals"):
            symmetric_increment_step(ZeroOneMatrix.ones(4, 4), ZeroOneMatrix.ones(1, 3), 2)

    def test_requires_both_divisible(self):
        with pytest.raises(DivisibilityError):
            symmetric_increment_step(ZeroOneMatrix.ones(8, 6), K22, 4)

    @pytest.mark.parametrize("k", [0, -2])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(DivisibilityError, match=f"^{k} must divide both dimensions 8x8$"):
            symmetric_increment_step(ZeroOneMatrix.ones(8, 8), K22, k)


def _table_counts(table):
    """A stand-in for the driver's `_count_copies`: (rows, width) -> count,
    or -> (count, band counts) for a walk with the bands."""

    def count(m, u, t, k=1):
        value = table[m.rows, u]
        if not isinstance(value, tuple):
            return value
        walked = _Count(value[0])
        walked.bands = value[1]
        return walked

    return count


def _iroot(x, q):
    """floor(x^(1/q)) for an integer x >= 0, by bisection."""
    lo, hi = 0, 1 << (x.bit_length() // q + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**q <= x else (lo, mid - 1)
    return lo


class TestDrivers:
    def test_all_ones_embeds_at_level_zero(self):
        trace = run_driver(ZeroOneMatrix.ones(16, 16), K22, "thm21", k=4)
        assert trace.stop_reason == "embedded"
        assert trace.levels[0].branch == "embedded"
        assert verify_embedding(ZeroOneMatrix.ones(16, 16), K22, trace.embedding)

    def test_one_part_pattern_runs_without_constants(self):
        # The identity 10/01 is one column part (t = 1): the proof constants
        # need t >= 2, so the trace has none and no level holds the
        # increment-threshold checks; the t-partite search has one part.
        host, a = ZeroOneMatrix.ones(8, 8), ZeroOneMatrix.parse("10\n01")
        assert min_column_parts(a)[0] == 1
        trace = run_driver(host, a, "thm21", k=2)
        assert trace.stop_reason == "embedded"
        assert verify_embedding(host, a, trace.embedding)
        assert trace.constants is None
        doc = json.loads(json.dumps(trace.to_json_dict()))
        assert doc["constants"] is None
        assert not [key for level in doc["levels"] for key in level["checks"] if key.startswith("increment")]

    def test_wrong_certificate_stops_at_the_gate(self, monkeypatch):
        # A step whose walk handed back a non-increasing row map.
        monkeypatch.setattr(increment, "_find_copy", lambda m, a, bands: Embedding((1, 1), (1, 2)))
        want = "certificate failed verification: row map not strictly increasing at value 1"
        for mode in ("thm21", "thm12"):
            with pytest.raises(AssertionError) as err:
                run_driver(ZeroOneMatrix.ones(16, 16), K22, mode, k=4)
            assert str(err.value) == want

    def test_free_host_trace_is_sound(self):
        host = deletion_lower_bound(16, K22, 7).witness
        trace = run_driver(host, K22, "thm21", k=4, depth=2)
        assert trace.embedding is None
        for level in trace.levels:
            lo, hi = level.row_range
            clo, chi = level.col_range
            sub = host.submatrix(lo, hi, clo, chi)
            assert sub.weight == level.weight
            assert count_copies(sub, level.u, 2).count == level.count
        for prev, cur in zip(trace.levels, trace.levels[1:]):
            assert prev.row_range[0] <= cur.row_range[0] <= cur.row_range[1] <= prev.row_range[1]

    def test_level_shapes_thm21(self):
        host = deletion_lower_bound(16, K22, 3).witness
        trace = run_driver(host, K22, "thm21", k=2, depth=3)
        for level in trace.levels:
            lo, hi = level.row_range
            assert hi - lo + 1 == 16 // 2**level.level
            assert level.col_range == (1, 16)

    def test_level_shapes_thm12(self):
        host = deletion_lower_bound(16, K22, 11).witness
        trace = run_driver(host, K22, "thm12", k=2, depth=2)
        for level in trace.levels:
            assert level.row_range[1] - level.row_range[0] == level.col_range[1] - level.col_range[0]
            assert level.row_range[1] - level.row_range[0] + 1 == 16 // 2**level.level

    def test_thm12_requires_square(self):
        with pytest.raises(PreconditionError):
            run_driver(ZeroOneMatrix.ones(8, 16), K22, "thm12", k=2)

    @pytest.mark.parametrize("mode", ["thm21", "thm12", "thm11"])
    @pytest.mark.parametrize("epsilon", NO_FLOAT)
    def test_rejects_non_finite_epsilon(self, mode, epsilon):
        with pytest.raises(DomainError, match="^epsilon must be finite and positive, got"):
            run_driver(ZeroOneMatrix.ones(8, 8), K22, mode, k=2, epsilon=epsilon)

    @pytest.mark.parametrize("mode", ["thm21", "thm12", "thm11"])
    def test_rejects_negative_depth(self, mode):
        with pytest.raises(DomainError, match="depth must be at least 0, got -1"):
            run_driver(ZeroOneMatrix.ones(8, 8), K22, mode, k=2, depth=-1)
        trace = run_driver(ZeroOneMatrix.ones(8, 8), K22, mode, k=2, depth=0)
        assert trace.stop_reason == "depth-reached"

    @pytest.mark.parametrize("mode", ["thm21", "thm12", "thm11"])
    @pytest.mark.parametrize("u", [0, -1])
    def test_rejects_non_positive_u(self, mode, u):
        # A one-column pattern has t = 1, so make_constants never sees u.
        column = ZeroOneMatrix.parse("1\n1")
        with pytest.raises(DomainError, match=f"u must be positive, got {u}"):
            run_driver(ZeroOneMatrix.ones(8, 8), column, mode, k=2, u=u, depth=0)

    def test_thm11_rejects_u(self):
        # The schedule picks every level's width, so a u would only reach
        # the constants and name a width no level counts at.
        host = deletion_lower_bound(16, K22, 5).witness
        with pytest.raises(DomainError, match="thm11 chooses the width per level; u is not accepted"):
            run_driver(host, K22, "thm11", k=2, u=5, depth=1)

    def test_thm11_needs_two_column_parts(self):
        identity = ZeroOneMatrix.parse("10\n01")
        assert min_column_parts(identity)[0] == 1
        with pytest.raises(
            PreconditionError, match="^schedule driver needs a column partition with t >= 2$"
        ):
            run_driver(ZeroOneMatrix.ones(8, 8), identity, "thm11", k=2)

    def test_thm11_runs_a_long_schedule(self):
        # t = 2, epsilon = 1e-4: U = 100 t^3 / epsilon = 8,000,000, and no
        # level builds the schedule.
        host = random_matrix(SplitMix64(5), 16, 16, 0.3)
        trace = run_driver(host, COLUMN_2_PARTITE, "thm11", k=2, epsilon=1e-4)
        assert trace.params["U"] == 8_000_000
        sched = lambda_schedule(2, 8_000_000, 1e-4)
        for level in trace.levels:
            u = level.u
            assert level.checks["types"][-1] == u
            assert 1 - sched.value(u) <= Fraction(level.level, 4) < 1 - sched.value(u + 1)
            assert level.checks["lambda"] == float(sched.value(u))

    def test_rejects_unknown_mode(self):
        with pytest.raises(InputError, match="^unknown driver mode 'thm99'$"):
            run_driver(ZeroOneMatrix.ones(8, 8), K22, "thm99", k=2)

    @pytest.mark.parametrize("mode", ["thm21", "thm12", "thm11"])
    def test_rejects_k_below_two(self, mode):
        with pytest.raises(DomainError, match="^k must be at least 2$"):
            run_driver(ZeroOneMatrix.ones(8, 8), K22, mode, k=1)

    def test_thm11_schedule_driver(self):
        host = deletion_lower_bound(16, K22, 5).witness
        trace = run_driver(host, K22, "thm11", k=4, epsilon=1.0, depth=2)
        assert trace.params["U"] == 800
        for level in trace.levels:
            assert level.u >= 2
            assert "lambda" in level.checks

    def test_chain_checks_recorded(self):
        host = deletion_lower_bound(16, K22, 13).witness
        trace = run_driver(host, K22, "thm21", k=4, depth=1)
        lvl0 = trace.levels[0]
        assert "chainLowerBound" in lvl0.checks and lvl0.checks["chainHolds"]
        assert "supersaturationLowerBound" in lvl0.checks

    def test_divisibility_stop(self):
        trace = run_driver(ZeroOneMatrix.ones(12, 12), COLUMN_2_PARTITE, "thm21", k=8)
        assert trace.stop_reason == "divisibility"
        assert [lv.branch for lv in trace.levels] == ["exhausted"]

    def test_schedule_exhausted_stop(self):
        # z = log_16 16 = 1: level 0 densifies into one row, and the
        # schedule ends at level 1 = z.
        host = ZeroOneMatrix([(1 << 16) - 1] * 2 + [0] * 14, 16)
        trace = run_driver(host, COLUMN_2_PARTITE, "thm11", k=16)
        assert trace.stop_reason == "schedule-exhausted"
        assert [lv.branch for lv in trace.levels] == ["densified"]

    def test_integer_jump_level_takes_the_last_type(self):
        # t = 3, eps = 1.5, z = log_2 8 = 3: level 2 sits exactly on the
        # jump z - z*lambda_10 = 2, so it has types 9 and 10 and width 10.
        # With k = 2 < r = 3 rows no heavy edge exists and every level densifies.
        trace = run_driver(ZeroOneMatrix.ones(1024, 8), ZeroOneMatrix.ones(3, 3), "thm11", k=2, epsilon=1.5)
        assert [lv.checks["types"] for lv in trace.levels] == [[3], [5], [9, 10]]
        assert [lv.u for lv in trace.levels] == [3, 5, 10]
        assert trace.stop_reason == "schedule-exhausted"

    def test_checkpoint_on_an_exact_power(self):
        # z = log_5 125 is 3, but the ratio of float logs is
        # 3.0000000000000004, which put the checkpoint ceil((1 - 1/3) z) at 3.
        trace = run_driver(ZeroOneMatrix([0] * 25, 125), ZeroOneMatrix.parse("111"), "thm21", k=5, depth=0)
        assert trace.levels[0].checks["contradictionCheckpointLevel"] == 2
        # z is e on every exact power n0 = k^e, and the factor 1 - 1/3 is
        # exact too: the float product ceil(0.6666666666666667 * 9) is 7.
        for k in range(2, 17):
            for e in range(1, 13):
                if k**e <= 4096:
                    trace = run_driver(ZeroOneMatrix([0], k**e), ZeroOneMatrix.parse("111"), "thm21", k=k)
                    want = -(-2 * e // 3)
                    assert trace.levels[0].checks["contradictionCheckpointLevel"] == want, (k, e)
        trace = run_driver(ZeroOneMatrix([0], 512), ZeroOneMatrix.parse("111"), "thm21", k=2, depth=0)
        assert trace.levels[0].checks["contradictionCheckpointLevel"] == 6

    def test_rows_below_eps_power_on_an_exact_power(self):
        # 5 rows against 3125^(1/5) = 5: not below, though the float power
        # 3125 ** 0.2 is 5.000000000000001.
        trace = run_driver(ZeroOneMatrix([0] * 5, 3125), ZeroOneMatrix.parse("11111"), "thm21", k=5, depth=0)
        assert trace.levels[0].checks["rowsBelowEpsPower"] is False

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_rows_below_eps_power_off_an_exact_power(self, k):
        # 5 < 3125^(1/5) does not involve k: log_3125 5 = 1/5 exactly, for
        # every k, though 3125 is a power of 5 only.
        trace = run_driver(ZeroOneMatrix([0] * 5, 3125), ZeroOneMatrix.parse("11111"), "thm21", k=k, depth=0)
        assert trace.levels[0].checks["rowsBelowEpsPower"] is False

    def test_checkpoint_off_an_exact_power(self):
        # z = log_4 512 = 9/2, so ceil((1 - 1/3) 9/2) = 3; the float route gave 4.
        trace = run_driver(ZeroOneMatrix([0], 512), ZeroOneMatrix.parse("111"), "thm21", k=4, depth=0)
        assert trace.levels[0].checks["contradictionCheckpointLevel"] == 3

    def test_thm11_tie_on_an_exact_power(self):
        # t = 2, eps = 2, z = 4: level 2 has i/z = 1/2 = 1 - lambda_5 exactly,
        # so it is a jump level with types 4 and 5.
        host = random_matrix(SplitMix64(0), 16, 16, 0.3)
        trace = run_driver(host, COLUMN_2_PARTITE, "thm11", k=2, epsilon=2.0)
        assert [lv.checks["types"] for lv in trace.levels] == [[2], [3], [4, 5]]
        assert [lv.u for lv in trace.levels] == [2, 3, 5]

    def test_thm11_tie_off_an_exact_power(self):
        # z = log_25 125 = 3/2: level 1 has i/z = 2/3 = 1 - lambda_10 for
        # t = 3, eps = 3/2, so its types are 9 and 10 and its width is 10.
        host = ZeroOneMatrix([(1 << 125) - 1] * 25 + [0] * 600, 125)
        trace = run_driver(host, ZeroOneMatrix.ones(3, 3), "thm11", k=25, epsilon=1.5)
        assert [lv.checks["types"] for lv in trace.levels] == [[3], [9, 10]]
        assert [lv.u for lv in trace.levels] == [3, 10]

    @pytest.mark.parametrize("epsilon", [1.0, 0.5, 0.6])
    @pytest.mark.parametrize("text", ["111", "11111"])
    def test_rows_below_eps_power_sweep(self, text, epsilon):
        # rows < n0^(epsilon/t) with epsilon = p/q, in integers
        a = ZeroOneMatrix.parse(text)
        t = min_column_parts(a)[0]
        p, q = Fraction(str(epsilon)).as_integer_ratio()
        for k in range(2, 17):
            for e in range(1, 13):
                n0 = k**e
                if n0 > 4096:
                    break
                for rows in (k**j for j in range(e + 1)):
                    host = ZeroOneMatrix([0] * rows, n0)
                    trace = run_driver(host, a, "thm21", k=k, epsilon=epsilon, depth=0)
                    want = rows ** (t * q) < n0**p
                    assert trace.levels[0].checks["rowsBelowEpsPower"] is want, (k, e, rows)

    @pytest.mark.parametrize("n0, epsilon, want", [(32, 0.6, 4), (1024, 0.6, 8), (1024, 0.3, 9)])
    def test_checkpoint_reads_epsilon_as_written(self, n0, epsilon, want):
        # The double nearest 0.6 lies below 3/5, and its exact ratio would
        # put ceil((1 - 0.2) * 5) = 4 at 5; the decimal 0.6 gives 4.
        host = ZeroOneMatrix([0], n0)
        trace = run_driver(host, ZeroOneMatrix.parse("111"), "thm21", k=2, epsilon=epsilon, depth=0)
        assert trace.levels[0].checks["contradictionCheckpointLevel"] == want

    def test_wide_pattern_supersaturation(self):
        # t = 10: w^100 overflows a float, the exact bound does not.
        host = random_matrix(SplitMix64(3), 64, 64, 0.35)
        trace = run_driver(host, ZeroOneMatrix.ones(1, 10), "thm21", k=2, depth=0)
        checks = trace.levels[0].checks
        exact = Fraction(host.weight**100, 10**110 * 64**180)
        assert checks["supersaturationLowerBound"] == float(exact) == pytest.approx(7.488e-120, rel=1e-3)
        assert checks["supersaturationHolds"] == (trace.levels[0].count >= exact)

    @pytest.mark.parametrize("mode", ["thm21", "thm12"])
    @pytest.mark.parametrize("epsilon", [400.0, 1030.0, 1e300])
    def test_large_epsilon_chain(self, mode, epsilon):
        host = random_matrix(SplitMix64(5), 16, 16, 0.5)
        trace = run_driver(host, DOUBLY_2_PARTITE, mode, k=2, epsilon=epsilon)
        rate = (2 if mode == "thm12" else 1) + epsilon
        n_base = trace.levels[0].count
        assert len(trace.levels) >= 3
        for i, level in enumerate(trace.levels):
            chain = level.checks["chainLowerBound"]
            if chain > 0:
                assert level.checks["chainHolds"] == (level.count >= chain)
            else:
                # The float underflowed; the true bound lies in (0, 5e-324).
                assert level.checks["chainHolds"] == (level.count > 0)
            if rate * i < 1024:
                assert chain == n_base / 2 ** (rate * i)
            elif rate * i < 4096:
                # Past the float range of 2**(rate*i), whose exponent is an
                # integer here.
                exact = Fraction(n_base, 2 ** int(rate * i))
                assert chain == pytest.approx(float(exact), rel=1e-9)
            else:
                assert chain == 0.0
            if mode == "thm21":  # at most 16 rows, below 16^(epsilon/2)
                assert level.checks["rowsBelowEpsPower"] is True

    def test_underflowed_chain_bound_needs_a_copy(self):
        host = random_matrix(SplitMix64(5), 16, 16, 0.5)
        trace = run_driver(host, DOUBLY_2_PARTITE, "thm21", k=2, epsilon=400)
        assert [lv.count for lv in trace.levels] == [856, 231, 80, 21, 0]
        assert [lv.checks["chainLowerBound"] for lv in trace.levels[3:]] == [0.0, 0.0]
        # 856 / 2^1203 and 856 / 2^1604 are positive: 21 copies meet the
        # first, no copies miss the second.
        assert [lv.checks["chainHolds"] for lv in trace.levels] == [True, True, True, True, False]

    def test_chain_holds_on_a_count_past_two_to_the_53(self):
        # The bound at level 0 is the level's own count, which float() rounds up.
        trace = run_driver(ZeroOneMatrix.ones(88, 88), COLUMN_2_PARTITE, "thm21", k=2, u=12, depth=0)
        assert trace.levels[0].count == math.comb(88, 12) * math.comb(88, 2) == 786163583391089904
        assert trace.levels[0].checks["chainHolds"] is True

    def test_chain_tie(self, monkeypatch):
        # 11 copies at level 1 meet n_base / 31^(1 + 9) = 11 * 31^10 / 31^10 exactly.
        table = {(31, 2): (11 * 31**10, (11,) + (0,) * 30)}
        monkeypatch.setattr(increment, "_count_copies", _table_counts(table))
        trace = run_driver(ZeroOneMatrix([0] * 31, 4), COLUMN_2_PARTITE, "thm21", k=31, epsilon=9.0, depth=1)
        assert [lv.count for lv in trace.levels] == [11 * 31**10, 11]
        assert [lv.checks["chainHolds"] for lv in trace.levels] == [True, True]

    def test_stepping_tie(self, monkeypatch):
        # N = 44100 = 210^2 copies of K_{2,2} handed down give the bound
        # N^(3/2) * 105^(-2/2) / 2 = 44100 exactly, which 44100 copies of
        # K_{3,2} meet; the displayed float lies above it.
        table = {(2, 2): (10**6, (44100, 0)), (1, 3): 44100}
        monkeypatch.setattr(increment, "_count_copies", _table_counts(table))
        trace = run_driver(ZeroOneMatrix([0] * 2, 105), COLUMN_2_PARTITE, "thm11", k=2, epsilon=1.0)
        assert trace.levels[1].checks["jump"] == {
            "fromWidth": 2,
            "toWidth": 3,
            "steppingApplicable": True,
            "steppingBound": 44100.00000000001,
            "steppingHolds": True,
        }

    @BOUNDED
    @given(
        k=st.integers(2, 5),
        depth=st.integers(1, 2),
        p=st.integers(1, 20),
        q=st.integers(1, 20),
        counts=st.lists(st.integers(0, 10**6), min_size=2, max_size=2),
        nudge=st.integers(-1, 1),
    )
    def test_chain_against_an_integer_oracle(self, k, depth, p, q, counts, nudge):
        # thm21 with counts from a table: level i holds when
        # count^q * k^((q + p) i) >= n_base^q for eps = p/q. n_base is put
        # on the last level's bound, or next to it, so a tie comes whenever
        # q divides (q + p) * depth.
        eps = Fraction(p, q)
        last = counts[depth - 1]
        n_base = max(1, _iroot(last**q * k ** ((q + p) * depth), q) + nudge)
        table = {(k**depth, 2): (n_base, (counts[0],) * k), (1, 2): counts[1]}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(increment, "_count_copies", _table_counts(table))
            trace = run_driver(ZeroOneMatrix([0] * k**depth, 4), COLUMN_2_PARTITE, "thm21", k=k, epsilon=eps, depth=depth)
        assert trace.levels[0].count == n_base
        for lv in trace.levels:
            want = lv.count**q * k ** ((q + p) * lv.level) >= n_base**q
            assert lv.checks["chainHolds"] is want, (lv.level, lv.count)

    @BOUNDED
    @given(
        n=st.integers(6, 133),
        g=st.one_of(st.integers(1, 600), st.integers(1, 4).map(lambda j: ("tie", j))),
        nudge=st.integers(-1, 1),
    )
    # two of the ties whose float bound lies above the integer
    @example(n=91, g=("tie", 3), nudge=0)
    @example(n=117, g=("tie", 1), nudge=0)
    def test_stepping_against_a_fraction_oracle(self, n, g, nudge):
        # thm11 steps from width u = 2 to 3 at level 1 on n0 = n columns,
        # with N = g^2 copies handed down: the bound N^(3/2) n^(-2/2) / 2 is
        # g^3 / (2n), which a g that 2n divides makes an integer; actual is
        # put on it or next to it.
        if isinstance(g, tuple):
            g = 2 * n * g[1]
        actual = max(0, g**3 // (2 * n) + nudge)
        table = {(2, 2): (g * g, (g * g, 0)), (1, 3): actual}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(increment, "_count_copies", _table_counts(table))
            trace = run_driver(ZeroOneMatrix([0] * 2, n), COLUMN_2_PARTITE, "thm11", k=2, epsilon=1.0)
        jump = trace.levels[1].checks["jump"]
        applicable = g * g >= n * (n - 1)
        assert (jump["fromWidth"], jump["toWidth"], jump["steppingApplicable"]) == (2, 3, applicable)
        assert jump["steppingHolds"] is (not applicable or actual >= Fraction(g**3, 2 * n))
        assert _stepping_holds(g * g, actual, n, 2, 2) is (actual >= Fraction(g**3, 2 * n))

    @pytest.mark.parametrize("epsilon", [400.0, 1e300])
    def test_large_epsilon_schedule_error_names_epsilon(self, epsilon):
        # epsilon as reports write it: its float (1e+300), not the exact
        # integer the driver reads it as
        host = random_matrix(SplitMix64(5), 16, 16, 0.5)
        written = re.escape(repr(epsilon))
        with pytest.raises(DomainError, match=f"^epsilon too large for the schedule: {written} is not below"):
            run_driver(host, DOUBLY_2_PARTITE, "thm11", k=2, epsilon=epsilon)
        with pytest.raises(DomainError, match="^epsilon too large for the schedule: 20/3 is not below"):
            run_driver(host, DOUBLY_2_PARTITE, "thm11", k=2, epsilon=Fraction(20, 3))

    def test_fraction_epsilon_reports_as_its_float(self):
        host = random_matrix(SplitMix64(5), 16, 16, 0.5)
        docs = [
            json.dumps(run_driver(host, DOUBLY_2_PARTITE, "thm21", k=2, epsilon=eps).to_json_dict())
            for eps in (Fraction(1), 1.0)
        ]
        assert docs[0] == docs[1]

    def test_fraction_epsilon_without_a_decimal_float_reports_as_p_over_q(self):
        # 1/3 puts the checkpoint at level 5 and its float 0.3333333333333333
        # at level 6, so the report writes 1/3 itself, and a run from the
        # written value reproduces it
        def report(epsilon):
            trace = run_driver(ZeroOneMatrix([0], 64), ZeroOneMatrix.parse("11"), "thm21", k=2, epsilon=epsilon, depth=0)
            return trace.to_json_dict()

        doc = report(Fraction(1, 3))
        assert doc["params"]["epsilon"] == doc["constants"]["epsilon"] == "1/3"
        assert doc["levels"][0]["checks"]["contradictionCheckpointLevel"] == 5
        assert report(Fraction(doc["params"]["epsilon"])) == doc
        assert report(0.3333333333333333)["levels"][0]["checks"]["contradictionCheckpointLevel"] == 6

    @pytest.mark.parametrize("mode", ["thm21", "thm12"])
    def test_trace_reruns_from_its_own_params(self, mode):
        # u = 3 is not the default width t = 2, so a report that left u out
        # would not say how it was made
        host = random_matrix(SplitMix64(5), 16, 16, 0.5)
        doc = run_driver(host, K22, mode, k=2, u=3).to_json_dict()
        params = json.loads(json.dumps(doc))["params"]
        assert params["u"] == 3
        assert run_driver(host, K22, **params).to_json_dict() == doc
        assert run_driver(host, K22, mode, k=2).to_json_dict()["levels"] != doc["levels"]

    def test_trace_json_roundtrip(self):
        host = deletion_lower_bound(16, K22, 2).witness
        trace = run_driver(host, K22, "thm21", k=4, depth=1)
        doc = trace.to_json_dict()
        import json

        parsed = json.loads(json.dumps(doc, sort_keys=True))
        assert parsed["mode"] == "thm21"
        assert len(parsed["levels"]) == len(trace.levels)


class TestCountsOnce:
    """The driver counts each level once and hands its count to the step as
    the step's total, and a densified block's count becomes the next level's
    count: every one of them must still equal an independent recount."""

    @pytest.mark.parametrize("mode", ["thm21", "thm12", "thm11"])
    def test_level_and_step_counts_match_recount(self, mode, monkeypatch):
        steps = []
        for name in ("_horizontal_step", "symmetric_increment_step"):
            original = getattr(increment, name)

            def record(m, a, *args, _original=original, _name=name):
                res = _original(m, a, *args)
                steps.append((_name, m, a, args, res))
                return res

            monkeypatch.setattr(increment, name, record)
        rng = SplitMix64(0xC0DE)
        for a in (K22, COLUMN_2_PARTITE, SIX_CYCLES_3X3[0]):
            t = min_column_parts(a)[0]
            if mode == "thm12":
                t = max(t, min_row_parts(a)[0])
            for p in (0.1, 0.2, 0.3, 0.45):
                host = random_matrix(rng, 16, 16, p)
                trace = run_driver(host, a, mode, k=2)
                for level in trace.levels:
                    lo, hi = level.row_range
                    clo, chi = level.col_range
                    sub = host.submatrix(lo, hi, clo, chi)
                    assert level.count == oracle_count_copies(sub, level.u, t)
        densified = 0
        for name, m, a, args, res in steps:
            if res.kind != "densified":
                continue
            densified += 1
            if name == "_horizontal_step":
                u, t = args[0], len(args[2])
                block = m.submatrix(res.row_range[0], res.row_range[1], 1, m.cols)
            else:
                t = max(min_column_parts(a)[0], min_row_parts(a)[0])
                u = t
                block = m.submatrix(*res.row_range, *res.col_range)
            assert res.count == oracle_count_copies(block, u, t)
            assert res.total == oracle_count_copies(m, u, t)
        assert densified >= 3

    def test_jump_checks_match_recount(self):
        # A level whose schedule width grew records the stepping-up check:
        # the bound from the block's K_{from,t} count, held against its
        # K_{from+1,t} count, also when the width skips past from + 1.
        rng = SplitMix64(0x5717)
        runs = [
            (a, random_matrix(rng, n, n, 0.5), k, epsilon)
            for a in (COLUMN_2_PARTITE, DOUBLY_2_PARTITE)
            for n, k, epsilon in ((16, 2, 1.0), (16, 4, 3.0), (32, 2, 3.0))
        ]
        # Five rows leave k = 4 blocks no heavy edge. Level 1 jumps from
        # width 2 to 4, and its K_{3,2} count meets the bound that its
        # K_{4,2} count misses.
        runs.append((ZeroOneMatrix.ones(5, 2), random_matrix(SplitMix64(11), 32, 32, 0.6), 4, 1.0))
        seen = set()
        for a, host, k, epsilon in runs:
            t = min_column_parts(a)[0]
            trace = run_driver(host, a, "thm11", k=k, epsilon=epsilon)
            lam = lambda_schedule(t, trace.params["U"], epsilon).value
            z = math.log2(host.cols) / math.log2(k)  # exact: both are powers of 2
            for i, level in enumerate(trace.levels):
                # the width rule, u by u, and the level's last type
                rem = z - i
                assert [u for u in range(t, trace.params["U"] + 1) if z * lam(u + 1) < rem <= z * lam(u)] == [level.u]
                assert level.u == level.checks["types"][-1]
            assert "jump" not in trace.levels[0].checks
            for prev, level in zip(trace.levels, trace.levels[1:]):
                if level.u == prev.u:
                    assert "jump" not in level.checks
                    continue
                sub = host.submatrix(*level.row_range, *level.col_range)
                low = prev.u
                n_copies = oracle_count_copies(sub, low, t)
                sb = stepping_bound(n_copies, host.cols, low, t)

                def meets(actual):  # actual >= N^((low+1)/low) n^(-t/low) / 2
                    return (2 * actual) ** low * host.cols**t >= n_copies ** (low + 1)

                holds = not sb.applicable or meets(oracle_count_copies(sub, low + 1, t))
                assert level.checks["jump"] == {
                    "fromWidth": low,
                    "toWidth": level.u,
                    "steppingApplicable": sb.applicable,
                    "steppingBound": sb.bound,
                    "steppingHolds": holds,
                }
                seen.add((level.u == low + 1, holds and not meets(level.count)))
        assert {(True, False), (False, False), (False, True)} <= seen

    @pytest.mark.parametrize("u, k", [(2, 2), (2, 4), (3, 2), (4, 4)])
    def test_walked_total_gives_the_same_step(self, u, k):
        # A total from the banded walk carries its bands' counts, which the
        # step uses; a plain total makes the step count each band itself.
        # With k = 2 < r = 4 no heavy edge exists and every step densifies.
        rng = SplitMix64(0xBA2D)
        t, cuts = min_column_parts(COLUMN_2_PARTITE)
        sizes = _part_sizes(cuts, COLUMN_2_PARTITE.cols, t)
        for p in (0.2, 0.4, 0.6):
            host = random_matrix(rng, 16, 16, p)
            walked = _count_copies(host, u, t, k)
            step = increment._horizontal_step(host, COLUMN_2_PARTITE, u, k, sizes, walked)
            plain = increment._horizontal_step(host, COLUMN_2_PARTITE, u, k, sizes, int(walked))
            assert step == plain
            if step.kind == "densified":
                assert type(step.total) is int and type(step.count) is int

    @pytest.mark.parametrize("mode", ["thm21", "thm12"])
    def test_level_counts_with_width_other_than_t(self, mode):
        # A densified grid step counted K_{t,t} in its block, so that count
        # may stand in for the next level's only when the level width u is t.
        rng = SplitMix64(0xC0DE)
        for a, u in ((DOUBLY_2_PARTITE, 3), (COLUMN_2_PARTITE, 2), (SIX_CYCLES_3X3[0], 2)):
            t = min_column_parts(a)[0]
            if mode == "thm12":
                t = max(t, min_row_parts(a)[0])
            for p in (0.2, 0.3, 0.45):
                host = random_matrix(rng, 16, 16, p)
                trace = run_driver(host, a, mode, k=2, u=u)
                for level in trace.levels:
                    sub = host.submatrix(*level.row_range, *level.col_range)
                    assert level.u == u and "jump" not in level.checks
                    assert level.count == oracle_count_copies(sub, u, t)

    def test_heavy_search_recorded(self):
        # Heavy edges need witness rows in r = 4 distinct blocks: with k = 2
        # none exist, so the driver densifies without examining a class.
        rng = SplitMix64(0x5EA)
        host = random_matrix(rng, 64, 64, 0.3)
        trace = run_driver(host, COLUMN_2_PARTITE, "thm21", k=2)
        stepped = [lv for lv in trace.levels if lv.branch != "exhausted"]
        assert stepped
        for level in stepped:
            (search,) = level.checks["heavySearch"]
            assert search == {
                "heavyPossible": False,
                "heavyEdges": 0,
                "labelClasses": 0,
                "labelClassesExamined": 0,
            }
        trace = run_driver(host, COLUMN_2_PARTITE, "thm21", k=4)
        (search,) = trace.levels[0].checks["heavySearch"]
        assert search["heavyPossible"] and search["heavyEdges"] > 0
        assert 1 <= search["labelClassesExamined"] <= search["labelClasses"]
        assert trace.levels[0].branch == "embedded"

    def test_dense_six_cycle_trace_pinned(self):
        # A dense 64 x 64 host at k = 4: t = 3 and r = 3, so all four 3-of-4
        # labels occur and the first class in order embeds. The whole trace
        # is pinned byte for byte in the CLI corpus, as the case
        # `increment random64.pat six-cycle-a.pat --mode thm21 --k 4`.
        host = random_matrix(SplitMix64(0x99), 64, 64, 0.3)
        trace = run_driver(host, SIX_CYCLES_3X3[0], "thm21", k=4)
        (search,) = trace.levels[0].checks["heavySearch"]
        assert search == {
            "heavyPossible": True,
            "heavyEdges": 4594,
            "labelClasses": 4,
            "labelClassesExamined": 1,
        }


class TestLevelChecks:
    """A level's checks follow from its recorded numbers and the run's fixed
    values alone, which is what lets a report be re-checked level by level."""

    @pytest.mark.parametrize("mode", ["thm21", "thm12", "thm11"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recomputed_from_each_levels_numbers(self, mode, seed):
        grid = mode == "thm12"
        jumps = 0
        for n, a, epsilon in ((16, K22, 1.0), (32, DOUBLY_2_PARTITE, 0.6), (64, COLUMN_2_PARTITE, 1.0)):
            host = random_matrix(SplitMix64(seed), n, n, 0.5)
            trace = run_driver(host, a, mode, k=2, epsilon=epsilon)
            t = max(min_column_parts(a)[0], min_row_parts(a)[0] if grid else 0)
            eps = Fraction(str(epsilon))
            z = increment._log(n, 2)
            run = dict(
                k=2, t=t, n0=n, r0=2 if grid else 1, eps=eps, constants=trace.constants,
                checkpoint=None if grid else math.ceil((1 - eps / t) * z),
            )
            n_base = trace.levels[0].count
            for lv, above in zip(trace.levels, [None, *trace.levels]):
                (r1, r2), (c1, c2) = lv.row_range, lv.col_range
                jump = None
                if mode == "thm11" and above is not None and lv.u > above.u:
                    # the count handed down and the next width's, recounted
                    block = host.submatrix(r1, r2, c1, c2)
                    counts = [count_copies(block, w, t).count for w in (above.u, above.u + 1)]
                    jump = (above.u, *counts)
                    jumps += 1
                level = (lv.count, n_base, r2 - r1 + 1, c2 - c1 + 1, lv.weight, lv.level, lv.u, jump)
                recorded = {key: v for key, v in lv.checks.items() if key not in ("heavySearch", "lambda", "types")}
                assert increment._level_checks(*level, **run) == recorded, (n, lv.level)
        if mode == "thm11":
            assert jumps > 0


class TestJsonSafe:
    def test_non_finite_floats_become_strings_at_any_depth(self):
        inf, nan = float("inf"), float("nan")
        doc = {"a": inf, "b": [1, -inf, {"c": (nan, 2.5)}], "d": {"e": [[inf]], "f": "inf"}}
        safe = increment._json_safe(doc)
        assert safe == {"a": "inf", "b": [1, "-inf", {"c": ["nan", 2.5]}], "d": {"e": [["inf"]], "f": "inf"}}
        assert json.loads(json.dumps(safe, allow_nan=False)) == safe
