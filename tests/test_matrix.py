import hashlib
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BOUNDED, COLUMN_2_PARTITE, K22, SIX_CYCLES_3X3, oracle_embedding, random_matrix
from patex import matrix
from patex.errors import FormatError, InputError
from patex.matrix import (
    Embedding,
    ZeroOneMatrix,
    _has_component,
    canonical_key,
    certified,
    embedding_violation,
    find_embedding,
    verify_embedding,
)
from patex.rng import GAMMA, MASK64, SplitMix64, _lanes
from patex.search import deletion_lower_bound


class TestParse:
    def test_identity_parse(self):
        m = ZeroOneMatrix.parse("11\n11")
        assert (m.rows, m.cols, m.weight) == (2, 2, 4)

    def test_fixture_weight(self):
        assert COLUMN_2_PARTITE.weight == 8
        assert COLUMN_2_PARTITE.row_strings() == ("0101", "1001", "1001", "0110")

    def test_comments_blanks_whitespace(self):
        m = ZeroOneMatrix.parse("# header\n\n0 1\n1 0\n")
        assert m.row_strings() == ("01", "10")

    def test_ragged_rejected(self):
        with pytest.raises(FormatError):
            ZeroOneMatrix.parse("01\n011")

    def test_bad_chars_rejected(self):
        with pytest.raises(FormatError):
            ZeroOneMatrix.parse("01\n0x")

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            ZeroOneMatrix.parse("# nothing\n\n")

    def test_json_roundtrip(self):
        doc = COLUMN_2_PARTITE.to_json_dict()
        assert ZeroOneMatrix.from_json_dict(doc) == COLUMN_2_PARTITE

    def test_text_roundtrip(self):
        assert ZeroOneMatrix.parse("\n".join(COLUMN_2_PARTITE.row_strings())) == COLUMN_2_PARTITE

    # int(s, 2) accepts the first four, so the character check must see them.
    @pytest.mark.parametrize("row", ["1_0", "0b1", "+1", "-1", " "])
    def test_rows_int_would_accept_rejected(self, row):
        with pytest.raises(FormatError):
            ZeroOneMatrix.parse(row)
        with pytest.raises(FormatError):
            ZeroOneMatrix.from_json_dict({"rows": 1, "cols": len(row), "data": [row]})

    def test_whitespace_inside_rows(self):
        want = ZeroOneMatrix.parse("101\n011")
        assert ZeroOneMatrix.parse("1 0 1\n0\t1 1") == want
        assert ZeroOneMatrix.from_json_dict({"rows": 2, "cols": 3, "data": ["1 0 1", "011"]}) == want

    def test_non_string_json_row_rejected(self):
        with pytest.raises(FormatError):
            ZeroOneMatrix.from_json_dict({"rows": 1, "cols": 1, "data": [1]})

    def test_non_string_json_row_after_a_text_row_rejected(self):
        # every row is checked to be a string before any is read
        with pytest.raises(FormatError, match="^matrix document rows must be strings$"):
            ZeroOneMatrix.from_json_dict({"rows": 2, "cols": 2, "data": ["0 1", 5]})

    def test_json_without_data_rows_rejected(self):
        with pytest.raises(FormatError, match="^pattern has no data lines$"):
            ZeroOneMatrix.from_json_dict({"rows": 0, "cols": 2, "data": []})

    @pytest.mark.parametrize(
        "masks, cols",
        [([], 2), ([1], 0), ([1, 2], -1)],
    )
    def test_constructor_rejects_empty_shapes(self, masks, cols):
        with pytest.raises(FormatError, match="^matrix needs at least one row and one column$"):
            ZeroOneMatrix(masks, cols)

    @pytest.mark.parametrize("masks", [[0b100], [1, -1]])
    def test_constructor_rejects_masks_outside_the_columns(self, masks):
        with pytest.raises(FormatError, match="^row mask exceeds the declared column count$"):
            ZeroOneMatrix(masks, 2)

    def test_json_missing_key_rejected(self):
        with pytest.raises(FormatError, match="^bad matrix document: 'data'$"):
            ZeroOneMatrix.from_json_dict({"rows": 1, "cols": 2})

    def test_json_row_count_mismatch_rejected(self):
        with pytest.raises(FormatError, match="^matrix document row count mismatch$"):
            ZeroOneMatrix.from_json_dict({"rows": 2, "cols": 2, "data": ["11"]})

    def test_embedding_json_missing_key_rejected(self):
        with pytest.raises(FormatError, match="^bad embedding document: 'colMap'$"):
            Embedding.from_json_dict({"rowMap": [1]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"rows": 2, "cols": 2, "data": ["01", "# a comment"]},
            {"rows": 2, "cols": 2, "data": ["01", ""]},
            {"rows": 2, "cols": 3, "data": ["01", "10"]},
        ],
        ids=["comment-row", "blank-row", "wrong-cols"],
    )
    def test_json_dimension_mismatch_rejected(self, doc):
        # the text parser skips comment and blank rows, so the row count
        # only fails after parsing
        with pytest.raises(FormatError, match="^matrix document dimension mismatch$"):
            ZeroOneMatrix.from_json_dict(doc)

    def test_hash_and_repr(self):
        copy = ZeroOneMatrix.parse("\n".join(COLUMN_2_PARTITE.row_strings()))
        assert copy is not COLUMN_2_PARTITE
        assert hash(copy) == hash(COLUMN_2_PARTITE)
        assert len({copy, COLUMN_2_PARTITE, K22}) == 2
        assert repr(COLUMN_2_PARTITE) == "ZeroOneMatrix(4x4, weight=8)"

    def test_embedding_json_roundtrip_and_shift(self):
        e = Embedding(row_map=(1, 3), col_map=(2, 4))
        doc = e.to_json_dict()
        assert doc == {"rowMap": [1, 3], "colMap": [2, 4]}
        assert Embedding.from_json_dict(doc) == e
        assert e.shifted(2, 5) == Embedding(row_map=(3, 5), col_map=(7, 9))


class TestRandomStream:
    """random_matrix draws each row in 128-bit lanes of one int; its entries
    and the generator's final state must stay those of one rng.bernoulli
    call per entry, row by row and left to right, since every seeded output
    depends on them."""

    @staticmethod
    def reference(rng, rows, cols, p):
        masks = []
        for _ in range(rows):
            m = 0
            for j in range(cols):
                if rng.bernoulli(p):
                    m |= 1 << j
            masks.append(m)
        return masks

    @pytest.mark.parametrize("p", [0, 1e-12, 0.05, 0.5, 1.0, 1.5, math.nan, -0.5, math.inf])
    def test_matches_bernoulli_calls(self, p):
        for seed in (0, 7, 0x5EED):
            for rows in range(1, 10):
                # small widths, then widths around and past 64 and 128 bits
                for cols in (*range(1, 14), 63, 64, 65, 127, 128, 129, 200):
                    got_rng, want_rng = SplitMix64(seed + rows), SplitMix64(seed + rows)
                    got = random_matrix(got_rng, rows, cols, p)
                    assert list(got.row_masks) == self.reference(want_rng, rows, cols, p)
                    assert got_rng.state == want_rng.state

    @pytest.mark.parametrize("steps", [1, 2, 3, 5])
    def test_weyl_sum_wrapping_inside_a_lane(self, steps):
        # the seed is within `steps` gammas of 2^64, so the Weyl sum
        # passes 2^64 within the first few lanes
        for seed in ((-steps * GAMMA) & MASK64, (-steps * GAMMA - 1) & MASK64, (-steps * GAMMA + 1) & MASK64):
            for cols in (1, steps, 64, 130):
                got_rng, want_rng = SplitMix64(seed), SplitMix64(seed)
                assert got_rng.bernoulli_mask(cols, 0.5) == self.reference(want_rng, 1, cols, 0.5)[0]
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
            assert got_rng.bernoulli_mask(4, p) == self.reference(want_rng, 1, 4, p)[0]

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
        assert got_rng.bernoulli_mask(5000, 0.3) == self.reference(want_rng, 1, 5000, 0.3)[0]
        assert got_rng.state == want_rng.state

    def test_counts_beyond_the_lane_cache(self):
        size = _lanes.cache_info().maxsize
        counts = list(range(1, size + 4)) + [1, 2, 3]
        got_rng, want_rng = SplitMix64(5), SplitMix64(5)
        for count in counts:
            assert got_rng.bernoulli_mask(count, 0.4) == self.reference(want_rng, 1, count, 0.4)[0]
        assert got_rng.state == want_rng.state

    @BOUNDED
    @given(
        st.integers(0, MASK64),
        st.integers(-2, 300),
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(0, 1)),
    )
    def test_bernoulli_mask_matches_bernoulli_calls(self, seed, count, p):
        got_rng, want_rng = SplitMix64(seed), SplitMix64(seed)
        want = self.reference(want_rng, 1, count, p)[0]
        assert got_rng.bernoulli_mask(count, p) == want
        assert got_rng.state == want_rng.state

    @pytest.mark.parametrize(
        "n, digest",
        [
            (64, "bc651be3db7e2e90bec725ceb81aaf21eb7aab01fc315e0b2270d29f19c81a5c"),
            (128, "fe19b41ef0bacdf0b1abae63a55773bf49e69cce584c5c756baf22524374ada8"),
        ],
    )
    def test_square_matrices_unchanged(self, n, digest):
        # taken from the per-draw loop that the lane draw replaced
        rng = SplitMix64(1)
        m = random_matrix(rng, n, n, 0.3)
        assert hashlib.sha256("\n".join(m.row_strings()).encode()).hexdigest() == digest
        assert rng.state == (1 + n * n * GAMMA) & MASK64

    def test_threshold_equal_to_the_draw(self):
        # A draw equal to p is not below it; the next float above p is.
        x = SplitMix64(3).next_u64() >> 11
        exact = x / float(1 << 53)
        assert random_matrix(SplitMix64(3), 1, 1, exact).row_masks == (0,)
        assert random_matrix(SplitMix64(3), 1, 1, math.nextafter(exact, 1.0)).row_masks == (1,)

    def test_deletion_records_unchanged(self):
        docs = [
            deletion_lower_bound(n, a, seed).to_json_dict()
            for a in (K22, COLUMN_2_PARTITE, SIX_CYCLES_3X3[0])
            for n in (5, 8, 13)
            for seed in (1, 2, 3)
        ]
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        # Taken from the per-entry rng.bernoulli loop that random_matrix
        # replaced; any change to the stream or the order of draws moves it.
        assert digest == "1c165038d6b8f375c61389e36693f0e836e89deaa8bdda226d3f6518abac4608"


class TestCanonicalKey:
    def test_equal_matrices_equal_keys(self):
        assert canonical_key(ZeroOneMatrix.parse("11\n11")) == canonical_key(ZeroOneMatrix.ones(2, 2))

    def test_single_entry_change_distinct(self):
        a = ZeroOneMatrix.ones(2, 2)
        b = a.with_entry(1, 1, 0)
        assert canonical_key(a) != canonical_key(b)

    def test_keys_name_existing_cache_files(self):
        # Cache files are named by these strings: a change orphans every file.
        assert canonical_key(ZeroOneMatrix.parse("11\n11")) == "2x2-9af01f7cf52bd66abdc11fcceeef37b79be75c9f"
        assert canonical_key(ZeroOneMatrix.parse("101\n010\n110")) == "3x3-d57806a24b5031e246fadda4da44ee911aef44d7"

    def test_key_roundtrips_through_serialization(self):
        m = COLUMN_2_PARTITE
        assert canonical_key(ZeroOneMatrix.from_json_dict(m.to_json_dict())) == canonical_key(m)


class TestContainment:
    def test_single_entry(self):
        m = ZeroOneMatrix.parse("01\n00")
        e = find_embedding(m, ZeroOneMatrix.parse("1"))
        assert e == Embedding(row_map=(1,), col_map=(2,))

    def test_identity_not_in_antidiagonal(self):
        anti = ZeroOneMatrix.parse("01\n10")
        ident = ZeroOneMatrix.parse("10\n01")
        assert find_embedding(anti, ident) is None

    def test_fixture_embedding(self):
        e = find_embedding(COLUMN_2_PARTITE, K22)
        assert e.row_map == (2, 3) and e.col_map == (1, 4)
        assert verify_embedding(COLUMN_2_PARTITE, K22, e)

    def test_reflexivity(self, rng):
        for _ in range(50):
            m = random_matrix(rng, rng.below(4) + 1, rng.below(4) + 1, 0.5)
            e = find_embedding(m, m)
            assert e is not None
            assert e.row_map == tuple(range(1, m.rows + 1))
            assert e.col_map == tuple(range(1, m.cols + 1))

    def test_oracle_equivalence_sweep(self, rng):
        for _ in range(800):
            host = random_matrix(rng, rng.below(5) + 1, rng.below(5) + 1, (rng.below(9) + 1) / 10)
            pat = random_matrix(rng, rng.below(3) + 1, rng.below(3) + 1, (rng.below(9) + 1) / 10)
            emb = find_embedding(host, pat)
            assert (emb is not None) == (oracle_embedding(host, pat) is not None)
            if emb is not None:
                assert verify_embedding(host, pat, emb)

    def test_monotone_under_entry_addition(self, rng):
        for _ in range(100):
            host = random_matrix(rng, 4, 4, 0.4)
            pat = random_matrix(rng, 2, 2, 0.7)
            if find_embedding(host, pat) is None:
                continue
            i, j = rng.below(4) + 1, rng.below(4) + 1
            assert find_embedding(host.with_entry(i, j, 1), pat) is not None

    def test_zero_pattern_lines_constrain_dimensions_only(self):
        pat = ZeroOneMatrix.parse("00\n11")
        assert find_embedding(ZeroOneMatrix.parse("11"), pat) is None
        host = ZeroOneMatrix.parse("00\n11")
        assert find_embedding(host, pat) is not None

    def test_lexicographically_least_certificate(self):
        host = ZeroOneMatrix.parse("11\n11\n11")
        e = find_embedding(host, K22)
        assert e.row_map == (1, 2) and e.col_map == (1, 2)


def component_sizes(m: ZeroOneMatrix) -> list[tuple[int, int]]:
    """(rows, columns) of each component of the 1-entries' bipartite graph
    with an edge, by flood fill from each unvisited nonzero row."""
    sizes, done = [], set()
    for start in range(m.rows):
        if start in done or not m.row_masks[start]:
            continue
        rows, cols, grew = {start}, m.row_masks[start], True
        while grew:
            grew = False
            for i, mask in enumerate(m.row_masks):
                if i not in rows and mask & cols:
                    rows.add(i)
                    cols |= mask
                    grew = True
        done |= rows
        sizes.append((len(rows), cols.bit_count()))
    return sizes


class TestComponentLemma:
    # Connected with a zero row: r' = 2 nonzero rows, s' = 3 columns.
    PATH = ZeroOneMatrix.parse("110\n000\n011")

    def test_component_of_exactly_the_nonzero_size_fits(self):
        host = ZeroOneMatrix.parse("1100\n0000\n0110\n0001")
        assert _has_component(host.row_masks, 2, 3)
        assert not _has_component(host.row_masks, 2, 4)
        assert find_embedding(host, self.PATH) == Embedding((1, 2, 3), (1, 2, 3))

    def test_one_row_fewer_does_not_fit(self, monkeypatch):
        # two components of one row and three columns each
        host = ZeroOneMatrix.parse("1110000\n0000000\n0000111")
        assert _has_component(host.row_masks, 1, 3)
        assert not _has_component(host.row_masks, 2, 3)
        # the zero row does not count, so the answer comes without the walk
        monkeypatch.setattr(matrix, "_find_copy", None)
        assert find_embedding(host, self.PATH) is None
        monkeypatch.undo()
        assert oracle_embedding(host, self.PATH) is None

    def test_a_row_joins_every_older_component_it_meets(self):
        host = ZeroOneMatrix.parse("1000\n0010\n0001\n1010")
        assert _has_component(host.row_masks, 3, 2)
        assert not _has_component(host.row_masks, 3, 3)
        assert not _has_component(host.row_masks, 4, 1)

    def test_disconnected_pattern_skips_the_test(self):
        # I2's two 1-entries are two components; so are the host's
        ident = ZeroOneMatrix.parse("10\n01")
        assert not _has_component(ident.row_masks, 2, 2)
        assert find_embedding(ZeroOneMatrix.parse("100\n000\n001"), ident) == Embedding((1, 3), (1, 3))

    def test_weight_zero_pattern_skips_the_test(self):
        assert find_embedding(ZeroOneMatrix([0] * 3, 2), ZeroOneMatrix([0] * 2, 2)) == Embedding((1, 2), (1, 2))

    @BOUNDED
    @given(st.data())
    def test_matches_flood_fill(self, data):
        cols = data.draw(st.integers(1, 7))
        m = ZeroOneMatrix(data.draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=1, max_size=7)), cols)
        sizes = component_sizes(m)
        for need_rows in range(1, m.rows + 2):
            for need_cols in range(1, m.cols + 2):
                fits = any(r >= need_rows and c >= need_cols for r, c in sizes)
                assert _has_component(m.row_masks, need_rows, need_cols) == fits, (need_rows, need_cols)

    @pytest.mark.parametrize("pattern, found", [("11\n01", True), ("11\n11\n11", False)])
    def test_reads_no_column_masks(self, pattern, found):
        # the test scans row masks only; col_masks would cache a second copy
        # of every host. The host is 32 diagonal 2x2 blocks of ones.
        host = ZeroOneMatrix([3 << (2 * (i // 2)) for i in range(64)], 64)
        assert (find_embedding(host, ZeroOneMatrix.parse(pattern)) is not None) == found
        assert host._col_masks is None


class TestPatternMemo:
    """The component gate and the touched columns are memoized per distinct
    pattern; what a call answers must not depend on which equal pattern
    object filled the memo."""

    def test_equal_patterns_get_identical_certificates(self, rng):
        for _ in range(150):
            host = random_matrix(rng, 8, 8, 0.3 + 0.4 * rng.random())
            a = random_matrix(rng, 1 + rng.below(3), 1 + rng.below(3), 0.6)
            twin = ZeroOneMatrix(list(a.row_masks), a.cols)
            assert twin is not a and twin == a
            got = find_embedding(host, a)
            assert find_embedding(host, twin) == got
            assert oracle_embedding(host, a) == (None if got is None else (got.row_map, got.col_map))
            # banded: pattern row p in host rows 1 + 8p/r .. 8(p+1)/r
            bands = [(1 + 8 * p // a.rows, 8 * (p + 1) // a.rows) for p in range(a.rows)]
            banded = matrix._find_copy(host, a, bands)
            assert matrix._find_copy(host, twin, bands) == banded
            if banded is not None:
                assert verify_embedding(host, a, banded)
                assert all(lo <= h <= hi for h, (lo, hi) in zip(banded.row_map, bands))

    def test_disconnected_pattern_still_walks(self):
        ident = ZeroOneMatrix.parse("100\n010\n001")
        assert matrix._component_gate(ident.row_masks) is None
        # every component of the host is a single 1-entry
        host = ZeroOneMatrix.parse("1000\n0000\n0010\n0001")
        assert find_embedding(host, ident) == Embedding((1, 3, 4), (1, 3, 4))
        assert find_embedding(host, ZeroOneMatrix.parse("100\n010\n001")) == Embedding((1, 3, 4), (1, 3, 4))

    def test_memos_stay_bounded(self):
        host = ZeroOneMatrix.parse("101010\n010101\n111000")
        for i in range(1, 1100):  # 1,099 distinct 2x6 patterns
            a = ZeroOneMatrix([i & 63, i >> 6], 6)
            assert (find_embedding(host, a) is None) == (oracle_embedding(host, a) is None)
        for memo in (matrix._component_gate, matrix._touched_columns):
            info = memo.cache_info()
            assert info.maxsize == 1024 and info.currsize <= 1024


class TestVerify:
    def test_row_map_not_increasing(self):
        e = Embedding(row_map=(2, 2), col_map=(1, 4))
        assert not verify_embedding(COLUMN_2_PARTITE, K22, e)
        assert "increasing" in embedding_violation(COLUMN_2_PARTITE, K22, e)

    def test_one_entry_on_zero(self):
        e = Embedding(row_map=(1, 2), col_map=(1, 2))
        assert not verify_embedding(COLUMN_2_PARTITE, K22, e)

    def test_out_of_range_is_invalid_not_crash(self):
        e = Embedding(row_map=(1, 9), col_map=(1, 4))
        assert not verify_embedding(COLUMN_2_PARTITE, K22, e)
        assert "outside" in embedding_violation(COLUMN_2_PARTITE, K22, e)

    @pytest.mark.parametrize(
        "rows, cols, want",
        [
            ((1,), (1, 2), "row map has 1 entries, pattern has 2 rows"),
            ((1, 2), (1, 2, 3), "col map has 3 entries, pattern has 2 columns"),
        ],
    )
    def test_map_length_mismatch(self, rows, cols, want):
        e = Embedding(row_map=rows, col_map=cols)
        assert embedding_violation(COLUMN_2_PARTITE, K22, e) == want
        assert not verify_embedding(COLUMN_2_PARTITE, K22, e)

    def test_certified_passes_a_copy_and_quotes_a_violation(self):
        good = find_embedding(COLUMN_2_PARTITE, K22)
        assert certified(COLUMN_2_PARTITE, K22, good) is good
        bad = Embedding(row_map=(1, 2), col_map=(1, 2))
        want = "certificate failed verification: " + embedding_violation(COLUMN_2_PARTITE, K22, bad)
        assert want.endswith("pattern 1-entry (1,1) lands on 0-entry (1,1)")
        with pytest.raises(AssertionError) as err:
            certified(COLUMN_2_PARTITE, K22, bad)
        assert str(err.value) == want


def same_matrix(x, y):
    return (x.rows, x.cols, x.row_masks, x.col_masks, x.weight) == (
        y.rows, y.cols, y.row_masks, y.col_masks, y.weight
    )


class TestSubmatrix:
    def test_horizontal_bands(self):
        assert COLUMN_2_PARTITE.submatrix(1, 2, 1, 4).row_strings() == ("0101", "1001")
        assert COLUMN_2_PARTITE.submatrix(3, 4, 3, 4).row_strings() == ("01", "10")

    def test_bands_reassemble(self, rng):
        m = random_matrix(rng, 6, 6, 0.5)
        bands = [m.submatrix(lo, lo + 1, 1, 6) for lo in (1, 3, 5)]
        assert tuple(s for b in bands for s in b.row_strings()) == m.row_strings()
        left, right = m.submatrix(1, 6, 1, 3), m.submatrix(1, 6, 4, 6)
        glued = [x + y for x, y in zip(left.row_strings(), right.row_strings())]
        assert tuple(glued) == m.row_strings()

    def test_matches_select_on_random_shapes(self, rng):
        for _ in range(200):
            rows, cols = 1 + rng.below(9), 1 + rng.below(70)
            m = random_matrix(rng, rows, cols, rng.random())
            r_lo = 1 + rng.below(rows)
            r_hi = r_lo + rng.below(rows - r_lo + 1)
            c_lo = 1 + rng.below(cols)
            c_hi = c_lo + rng.below(cols - c_lo + 1)
            windows = [
                (r_lo, r_hi, c_lo, c_hi),
                (r_lo, r_lo, c_lo, c_hi),  # single row
                (r_lo, r_hi, c_hi, c_hi),  # single column
                (r_lo, r_hi, 1, cols),  # full width
            ]
            for (a, b, c, d) in windows:
                sub = m.submatrix(a, b, c, d)
                assert same_matrix(sub, m.select(range(a, b + 1), range(c, d + 1)))
            assert same_matrix(m.submatrix(1, rows, 1, cols), m)

    def test_column_masks_of_a_window_of_a_cached_parent(self, rng):
        for _ in range(200):
            rows, cols = 1 + rng.below(70), 1 + rng.below(70)
            m = random_matrix(rng, rows, cols, rng.random())
            r_lo = 1 + rng.below(rows)
            r_hi = r_lo + rng.below(rows - r_lo + 1)
            c_lo = 1 + rng.below(cols)
            c_hi = c_lo + rng.below(cols - c_lo + 1)
            assert m.submatrix(r_lo, r_hi, c_lo, c_hi)._col_masks is None  # still derived lazily
            m.col_masks
            sub = m.submatrix(r_lo, r_hi, c_lo, c_hi)
            assert sub._col_masks is not None  # shifted and masked from the parent's
            fresh = ZeroOneMatrix(sub.row_masks, sub.cols)
            assert same_matrix(sub, fresh)
            t = sub.transpose()
            assert t.row_masks == fresh.col_masks
            assert same_matrix(t.transpose(), fresh)

    def test_bounds_checked(self):
        for bounds in ((0, 2, 1, 4), (1, 5, 1, 4), (1, 2, 0, 4), (1, 2, 1, 5), (2, 1, 1, 4), (1, 2, 3, 2)):
            with pytest.raises(InputError):
                COLUMN_2_PARTITE.submatrix(*bounds)

    @pytest.mark.parametrize(
        "rows, cols, want",
        [
            ([], [1], "empty selection"),
            ([1], [], "empty selection"),
            ([2, 1], [1], "selections must be strictly increasing"),
            ([1], [3, 3], "selections must be strictly increasing"),
            ([0, 1], [1], "selection out of range"),
            ([1, 5], [1], "selection out of range"),
            ([1], [1, 5], "selection out of range"),
        ],
    )
    def test_select_rejects_bad_index_lists(self, rows, cols, want):
        with pytest.raises(InputError, match=f"^{want}$"):
            COLUMN_2_PARTITE.select(rows, cols)

    @pytest.mark.parametrize("i, j", [(0, 1), (5, 1), (1, 0), (1, 5)])
    def test_entry_and_with_entry_out_of_range(self, i, j):
        want = rf"^entry \({i},{j}\) outside 4x4$"
        with pytest.raises(InputError, match=want):
            COLUMN_2_PARTITE.entry(i, j)
        with pytest.raises(InputError, match=want):
            COLUMN_2_PARTITE.with_entry(i, j, 1)


class TestColumnMasks:
    def test_match_entries_for_every_constructor(self, rng):
        m = random_matrix(rng, 5, 7, 0.5)
        built = [
            ZeroOneMatrix([0b101, 0b010, 0b111], 3),
            ZeroOneMatrix([0] * 3, 4),
            ZeroOneMatrix.ones(4, 3),
            ZeroOneMatrix.parse("0110\n1001\n0001"),
            ZeroOneMatrix.from_json_dict(COLUMN_2_PARTITE.to_json_dict()),
            m,
            m.transpose(),
            m.submatrix(2, 4, 3, 7),
            m.select([1, 3, 5], [2, 4, 7]),
            m.with_entry(2, 2, 1),
        ]
        for x in built:
            for j in range(1, x.cols + 1):
                read = sum(x.entry(i, j) << (i - 1) for i in range(1, x.rows + 1))
                assert x.col_masks[j - 1] == read
                assert x.col_weight(j) == read.bit_count()
            assert x.col_masks is x.col_masks  # derived once

    def test_read_only(self):
        with pytest.raises(AttributeError):
            K22.col_masks = (0, 0)
