import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import BOUNDED, COLUMN_2_PARTITE, K22, oracle_count_copies, random_matrix
from patex.count import (
    _count_copies,
    _stepping_holds,
    count_copies,
    stepping_bound,
    supersat_bound,
)
from patex.errors import DomainError
from patex.matrix import ZeroOneMatrix


class TestCountCopies:
    def test_all_ones(self):
        assert count_copies(ZeroOneMatrix.ones(4, 4), 2, 2).count == 36

    def test_fixture_single_copy(self):
        assert count_copies(COLUMN_2_PARTITE, 2, 2).count == 1

    def test_all_zero(self):
        assert count_copies(ZeroOneMatrix([0] * 4, 4), 2, 2).count == 0

    def test_matches_enumeration_oracle(self, rng):
        # u, t up to 4 reach the interior levels of the depth-first count,
        # and shapes down to 1 x 1 give draws with u > rows or t > cols.
        oversized = 0
        for _ in range(200):
            m = random_matrix(rng, rng.below(6) + 1, rng.below(6) + 1, 0.6)
            u = rng.below(4) + 1
            t = rng.below(4) + 1
            oversized += u > m.rows or t > m.cols
            assert count_copies(m, u, t).count == oracle_count_copies(m, u, t)
        assert oversized > 0

    def test_axis_symmetry_via_transpose(self, rng):
        for _ in range(100):
            m = random_matrix(rng, rng.below(6) + 2, rng.below(6) + 2, 0.55)
            assert count_copies(m, 2, 2).count == count_copies(m.transpose(), 2, 2).count
            assert count_copies(m, 2, 3).count == count_copies(m.transpose(), 3, 2).count

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            count_copies(K22, 0, 1)


@st.composite
def banded_hosts(draw) -> tuple[ZeroOneMatrix, int]:
    """A host of up to 12 rows in k = 1..4 equal bands, with 1-3 rows per
    band and 1-3 columns or 1-2 rows per band and 1-6 columns, so that
    both axes are the cheaper one for some widths."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rows, cols = k * draw(st.integers(1, 3)), draw(st.integers(1, 3))
    else:
        rows, cols = k * draw(st.integers(1, 2)), draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return ZeroOneMatrix(masks, cols), k


@BOUNDED
@given(banded_hosts(), st.integers(1, 4), st.integers(1, 4))
@example((ZeroOneMatrix([0] * 8, 3), 4), 2, 2)  # all zero
@example((ZeroOneMatrix.ones(12, 3), 4), 2, 2)  # columns are cheaper
@example((ZeroOneMatrix.ones(12, 3), 3), 2, 1)  # columns, one column per set
@example((ZeroOneMatrix.ones(4, 6), 2), 2, 2)  # rows are cheaper
@example((ZeroOneMatrix.ones(4, 6), 4), 1, 3)  # rows, one row per set
@example((ZeroOneMatrix.ones(2, 6), 2), 3, 2)  # u > rows
@example((ZeroOneMatrix.ones(6, 2), 3), 2, 3)  # t > cols
def test_banded_count_matches_oracle(host, u, t):
    # One walk gives the total and every band's count, on both axes.
    m, k = host
    count = _count_copies(m, u, t, k)
    assert count == oracle_count_copies(m, u, t)
    h = m.rows // k
    bands = [
        oracle_count_copies(m.submatrix(lo, lo + h - 1, 1, m.cols), u, t)
        for lo in range(1, m.rows + 1, h)
    ]
    assert list(getattr(count, "bands", (count,))) == bands


class TestSupersatBound:
    def test_bound_past_the_float_range_is_inf(self):
        # w^717 / (717^717 n^716) with w = n^2 = 1950^2 is 1950^718 / 717^717,
        # about 10^314.8
        sb = supersat_bound(1950**2, 1950, 1, 717)
        assert sb.bound == math.inf and sb.exact > 10**314
        # float(10**400) overflows, and so does t u n^(2 - 1/u) = 10^400
        assert supersat_bound(1, 10**400, 1, 1).threshold == math.inf

    def test_inapplicable_below_threshold(self):
        sb = supersat_bound(16, 4, 2, 2)
        assert not sb.applicable and sb.threshold == 32.0
        assert sb.to_json_dict() == {"applicable": False, "threshold": 32.0, "bound": 4.0}

    def test_inapplicable_on_the_threshold(self):
        # w = 6 * 46656^(11/6) = 6^12 exactly: not above the threshold
        sb = supersat_bound(46656**2, 46656, 6, 1)
        assert 46656**2 == 6**12 and not sb.applicable

    @BOUNDED
    @given(u=st.integers(1, 6), t=st.integers(1, 6), extra=st.integers(1, 30), nudge=st.integers(-1, 1))
    def test_applicable_against_an_integer_oracle(self, u, t, extra, nudge):
        # n = m^u makes the threshold t*u*n^(2-1/u) the integer t*u*m^(2u-1);
        # w is put on it or next to it, and m > tu keeps w <= n^2.
        m = t * u + extra
        n, threshold = m**u, t * u * m ** (2 * u - 1)
        w = threshold + nudge
        assert w <= n * n
        assert supersat_bound(w, n, u, t).applicable is (w > threshold)

    def test_pinned_value(self):
        sb = supersat_bound(5000, 100, 2, 2)
        assert sb.applicable
        assert sb.bound == pytest.approx(97656.25)
        assert sb.exact == Fraction(5000**4, 2**4 * 2**2 * 100**4)

    def test_bound_holds_on_random_dense_hosts(self, rng):
        checked = 0
        while checked < 60:
            n = 25 + rng.below(16)
            m = random_matrix(rng, n, n, 0.9)
            sb = supersat_bound(m.weight, n, 2, 2)
            if not sb.applicable:
                continue
            assert Fraction(count_copies(m, 2, 2).count) >= sb.exact
            checked += 1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            supersat_bound(5, 0, 2, 2)

    def test_width_guard(self):
        with pytest.raises(DomainError, match="^u and t must be positive$"):
            supersat_bound(5, 4, 0, 2)


class TestSteppingBound:
    def test_boundary_applicability(self):
        thr = 2 * math.comb(8, 2)
        assert stepping_bound(thr, 8, 2, 2).applicable
        assert not stepping_bound(thr - 1, 8, 2, 2).applicable
        assert stepping_bound(0, 8, 2, 2).to_json_dict() == {"applicable": False, "threshold": thr, "bound": 0.0}

    def test_repaired_form_holds_on_random_hosts(self, rng):
        # with the 1/(u+1)^2 factor restored and the matching threshold
        # (2(u+1)^2)^(u/(u+1)) * binom(n,t), the bound is sound; both are
        # raised to integer powers: N^(u+1) >= (2(u+1)^2)^u binom(n,t)^(u+1)
        # and (2 (u+1)^2 actual)^u n^t >= N^(u+1)
        checked = 0
        while checked < 80:
            u = 2 if checked % 2 == 0 else 3
            n = 8
            m = random_matrix(rng, n, n, 0.55 + 0.4 * rng.random())
            n_copies = count_copies(m, u, 2).count
            if n_copies ** (u + 1) < (2 * (u + 1) ** 2) ** u * math.comb(n, 2) ** (u + 1):
                continue
            actual = count_copies(m, u + 1, 2).count
            assert (2 * (u + 1) ** 2 * actual) ** u * n**2 >= n_copies ** (u + 1)
            assert _stepping_holds(n_copies, (u + 1) ** 2 * actual, n, u, 2)
            checked += 1

    def test_stated_constant_fails_at_width_three(self):
        # The closed form omits a 1/(u+1)^2 correction its derivation needs;
        # the all-ones host shows the stated bound overshooting at u = 3.
        m = ZeroOneMatrix.ones(8, 8)
        n_copies = count_copies(m, 3, 2).count
        sb = stepping_bound(n_copies, 8, 3, 2)
        actual = count_copies(m, 4, 2).count
        assert sb.applicable
        assert actual == 1960 and sb.bound > actual
        # the stated bound fails and the corrected constant holds, in integers
        assert (2 * actual) ** 3 * 8**2 < n_copies**4 <= (2 * 16 * actual) ** 3 * 8**2
        assert not _stepping_holds(n_copies, actual, 8, 3, 2)
        assert _stepping_holds(n_copies, 16 * actual, 8, 3, 2)

    @pytest.mark.parametrize("n_copies", [10**12 - 1, 10**12, 10**12 + 1, 10**15])
    @pytest.mark.parametrize("n, u, t", [(8, 2, 2), (64, 3, 2), (1000, 1, 3)])
    def test_log_space_branch_matches_the_float_formula(self, n_copies, n, u, t):
        formula = 0.5 * float(n_copies) ** ((u + 1) / u) * float(n) ** (-t / u)
        assert stepping_bound(n_copies, n, u, t).bound == pytest.approx(formula, rel=1e-9)

    def test_bound_past_the_float_range_is_inf(self):
        # (10^400)^(3/2) / 20 is past the float range, in logs as well
        assert stepping_bound(10**400, 10, 2, 2).bound == math.inf

    def test_log_space_branch_past_the_float_range(self):
        # float(10**400) overflows; 0.5 * (10**400)**(3/2) / 10**300 does not
        bound = stepping_bound(10**400, 10**300, 2, 2).bound
        assert math.isfinite(bound) and bound == pytest.approx(5e299, rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            stepping_bound(10, -1, 2, 2)

    def test_width_guard(self):
        with pytest.raises(DomainError, match="^u and t must be positive$"):
            stepping_bound(10, 4, 2, 0)
