import math

import pytest

import patex.increment as increment
from conftest import COLUMN_2_PARTITE, K22, SIX_CYCLES_3X3, oracle_count_copies, random_matrix
from patex.classify import min_column_parts, min_row_parts
from patex.count import count_copies
from patex.errors import DivisibilityError, DomainError, PreconditionError
from patex.increment import (
    density_increment_step,
    lambda_schedule,
    make_constants,
    run_driver,
    symmetric_increment_step,
)
from patex.matrix import ZeroOneMatrix, verify_embedding
from patex.rng import SplitMix64
from patex.search import deletion_lower_bound


def plant(rng, a, k, band, cols, noise):
    host = random_matrix(rng, k * band, cols, noise)
    chosen = set()
    while len(chosen) < a.cols:
        chosen.add(rng.below(cols) + 1)
    mask = 0
    for c in chosen:
        mask |= 1 << (c - 1)
    masks = list(host.row_masks)
    for block in range(1, a.rows + 1):
        masks[(block - 1) * band + rng.below(band)] |= mask
    return ZeroOneMatrix(masks, cols)


class TestConstants:
    def test_pinned_values(self):
        pc = make_constants(2, 2, 2, 2, 1.0)
        assert pc.k == 16
        assert pc.delta == 0.25
        assert pc.c == 2.0**-6

    def test_defining_inequalities(self):
        for args in ((2, 2, 2, 2, 1.0), (2, 3, 2, 2, 1.0), (3, 2, 2, 3, 1.0)):
            pc = make_constants(*args)
            base = 4 * args[1] ** (args[0] - 1) * args[0] ** args[0] / math.factorial(args[0])
            assert pc.k >= base ** (1.0 / args[4]) - 1e-9
            comb = math.comb(pc.k, args[1])
            assert pc.C0 ** pc.delta >= 8 * args[0] ** args[0] * comb * (1 - 1e-9)
            assert pc.Cprime == pytest.approx(8 * comb * pc.C0 ** (args[0] - pc.delta), rel=1e-9)
            assert pc.C >= pc.Cprime and pc.C >= 4 * math.comb(args[1] * args[3], args[3])

    def test_oversized_constants_reported_in_logs(self):
        pc = make_constants(2, 2, 2, 2, 0.06)  # 1/eps not an integer, k beyond float
        assert pc.k is None and pc.log10_k > 15
        assert math.isinf(pc.C) and pc.log10_C > 300

    def test_integral_exponent_materializes_exactly(self):
        pc = make_constants(2, 2, 2, 2, 0.05)  # 1/eps = 20, exact rational power
        assert pc.k == 16**20
        assert math.isinf(pc.C) and pc.log10_C > 300

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_constants(1, 2, 2, 2, 1.0)
        with pytest.raises(DomainError):
            make_constants(2, 2, 2, 2, 0.0)


class TestLambdaSchedule:
    def test_start_value(self):
        sched = lambda_schedule(2, 40, 1.0)
        assert sched.value(2) == 1.0
        assert sched.value(3) == pytest.approx(1 - 1 / 6 + sched.epsilon0)
        assert sched.value(41) == 0.0

    def test_closed_form_and_tail(self):
        sched = lambda_schedule(3, 60, 0.7)
        for u in range(4, 61):
            assert sched.value(u) == pytest.approx(sched.closed_form(u), abs=1e-12)
        assert sched.value(60) == pytest.approx(sched.epsilon0 + 3 / 118 + 3 / 120)

    def test_strictly_decreasing(self):
        sched = lambda_schedule(2, 100, 1.0)
        vals = [sched.value(u) for u in range(2, 102)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_type_rule(self):
        sched = lambda_schedule(2, 40, 1.0)
        z = 5.0
        assert sched.type_of(0.0, z) == 2
        assert sched.type_of(z, z) is None
        for i in (0.5, 1.0, 2.0, 4.0):
            u = sched.type_of(i, z)
            assert z * sched.value(u + 1) < z - i <= z * sched.value(u)
        jumps = sched.jump_levels(z)
        assert all(jumps[i][0] <= jumps[i + 1][0] for i in range(len(jumps) - 1))

    def test_jump_levels_have_two_types(self):
        sched = lambda_schedule(2, 40, 1.0)
        z = 10.0
        level, u = sched.jump_levels(z)[0]
        assert set(sched.types_of(level, z)) == {u - 1, u}

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambda_schedule(2, 3, 1.0)


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

    def test_requires_both_divisible(self):
        with pytest.raises(DivisibilityError):
            symmetric_increment_step(ZeroOneMatrix.ones(8, 6), K22, 4)


class TestDrivers:
    def test_all_ones_embeds_at_level_zero(self):
        trace = run_driver(ZeroOneMatrix.ones(16, 16), K22, "thm21", k=4)
        assert trace.stop_reason == "embedded"
        assert trace.levels[0].branch == "embedded"
        assert verify_embedding(ZeroOneMatrix.ones(16, 16), K22, trace.embedding)

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
                u, t = args[0], args[2]
                block = m.submatrix(res.row_range[0], res.row_range[1], 1, m.cols)
            else:
                t = max(min_column_parts(a)[0], min_row_parts(a)[0])
                u = t
                block = m.submatrix(*res.row_range, *res.col_range)
            assert res.count == oracle_count_copies(block, u, t)
            assert res.total == oracle_count_copies(m, u, t)
        assert densified >= 3

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
                "labelClassCapHit": False,
            }
        trace = run_driver(host, COLUMN_2_PARTITE, "thm21", k=4)
        (search,) = trace.levels[0].checks["heavySearch"]
        assert search["heavyPossible"] and search["heavyEdges"] > 0
        assert 1 <= search["labelClassesExamined"] <= search["labelClasses"]
        assert trace.levels[0].branch == "embedded"

    def test_label_class_cap_hit_recorded(self):
        rng = SplitMix64(0xCA9)
        host = random_matrix(rng, 16, 16, 0.3)
        trace = run_driver(host, SIX_CYCLES_3X3[0], "thm12", k=2, label_class_cap=0, depth=1)
        searches = trace.levels[0].checks["heavySearch"]
        assert len(searches) == 2  # rows, then columns of the chosen band
        for search in searches:
            assert search["labelClassesExamined"] == 0
            assert search["labelClassCapHit"] == (search["labelClasses"] > 0)
