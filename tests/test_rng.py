"""The SplitMix64 stream: `below`'s guards and rejection bound, and
`bernoulli_mask`'s lane draws against one `bernoulli` call per draw (the
draws, their order and the final state). `random_matrix`, which draws its
rows through `bernoulli_mask`, is tested in test_matrix.py."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BOUNDED, bernoulli_calls
from patex.rng import GAMMA, MASK64, SplitMix64, _lanes


class TestSplitMix64:
    @pytest.mark.parametrize("steps", [1, 2, 3, 5])
    def test_weyl_sum_wrapping_inside_a_lane(self, steps):
        # the seed is within `steps` gammas of 2^64, so the Weyl sum
        # passes 2^64 within the first few lanes
        for seed in ((-steps * GAMMA) & MASK64, (-steps * GAMMA - 1) & MASK64, (-steps * GAMMA + 1) & MASK64):
            for cols in (1, steps, 64, 130):
                got_rng, want_rng = SplitMix64(seed), SplitMix64(seed)
                assert got_rng.bernoulli_mask(cols, 0.5) == bernoulli_calls(want_rng, cols, 0.5)
                assert got_rng.state == want_rng.state

    @staticmethod
    def state_for_output(z):
        """The Weyl state whose output is z: each finalizer step is a
        bijection of 64-bit words."""
        z ^= z >> 31 ^ z >> 62
        z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
        z ^= z >> 27 ^ z >> 54
        z = z * pow(0xBF58476D1CE4B9FB, -1, 1 << 64) & MASK64
        return z ^ z >> 30 ^ z >> 60

    @pytest.mark.parametrize(
        "z, p",
        [(MASK64, 1.0), ((12345 << 11) - 1, 12345 / 2**53), (12345 << 11, 12345 / 2**53)],
    )
    def test_draws_at_the_limit(self, z, p):
        # the lane's comparison value 2^64 + limit - 1 - z is exactly 2^64
        # (a hit) or 2^64 - 1 (a miss); any stray bit or borrow from the
        # lane below flips it
        state = self.state_for_output(z)
        assert SplitMix64((state - GAMMA) & MASK64).next_u64() == z
        for k in range(3):
            seed = (state - (k + 1) * GAMMA) & MASK64
            got_rng, want_rng = SplitMix64(seed), SplitMix64(seed)
            assert got_rng.bernoulli_mask(4, p) == bernoulli_calls(want_rng, 4, p)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_below_needs_a_positive_bound(self, bound):
        with pytest.raises(ValueError, match=r"^below\(\) needs a positive bound$"):
            SplitMix64(11).below(bound)

    @pytest.mark.parametrize("bound", [2**64 + 1, 2**65])
    def test_below_needs_a_bound_of_at_most_2_to_the_64(self, bound):
        # past 2^64 the rejection limit is 0 and no draw would be accepted
        with pytest.raises(ValueError, match=r"^below\(\) needs a bound of at most 2\^64$"):
            SplitMix64(11).below(bound)

    def test_below_2_to_the_64_is_the_raw_draw(self):
        rng, twin = SplitMix64(11), SplitMix64(11)
        assert [rng.below(2**64) for _ in range(3)] == [twin.next_u64() for _ in range(3)]

    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_count_draws_nothing(self, count):
        rng = SplitMix64(11)
        for p in (0.0, 0.5, 1.0):
            assert rng.bernoulli_mask(count, p) == 0
            assert rng.state == SplitMix64(11).state

    def test_count_past_the_int_string_digit_limit(self):
        # the lane bits are read back through a base-2 string of 5000 digits
        got_rng, want_rng = SplitMix64(3), SplitMix64(3)
        assert got_rng.bernoulli_mask(5000, 0.3) == bernoulli_calls(want_rng, 5000, 0.3)
        assert got_rng.state == want_rng.state

    def test_counts_beyond_the_lane_cache(self):
        size = _lanes.cache_info().maxsize
        counts = list(range(1, size + 4)) + [1, 2, 3]
        got_rng, want_rng = SplitMix64(5), SplitMix64(5)
        for count in counts:
            assert got_rng.bernoulli_mask(count, 0.4) == bernoulli_calls(want_rng, count, 0.4)
        assert got_rng.state == want_rng.state

    @BOUNDED
    @given(
        st.integers(0, MASK64),
        st.integers(-2, 300),
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(0, 1)),
    )
    def test_bernoulli_mask_matches_bernoulli_calls(self, seed, count, p):
        got_rng, want_rng = SplitMix64(seed), SplitMix64(seed)
        want = bernoulli_calls(want_rng, count, p)
        assert got_rng.bernoulli_mask(count, p) == want
        assert got_rng.state == want_rng.state
