"""Property tests against enumeration oracles on random hosts up to 6x6 and
patterns up to 3x3 (fragmented hosts and their patterns are larger): the
branch-and-bound's containment detector (its tables against their
definitions on patterns up to 4x4, where a prefix first contains the
pattern, and which single-column rows would complete a copy, and that a row
completing a copy still does under a longer prefix), `find_embedding`, also
on fragmented hosts where its component test can rule a pattern out, and the
banded mode of the containment kernel. Also the text and JSON row formats
against per-character references."""

import functools
import operator
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

import pytest

from conftest import BOUNDED, oracle_embedding
from patex.errors import FormatError
from patex.matrix import ZeroOneMatrix, _find_copy, find_embedding
from patex.search import _Levels


def completes_copy(detector: _Levels, state: int, mask: int) -> bool:
    """exact_ex's containment test: the row completes a copy for some
    choice in the top lane, one that has matched every earlier pattern row."""
    return bool(detector.covers[-1][mask] & state >> detector.top)


def child(detector: _Levels, state: int, mask: int) -> int:
    """exact_ex's child state: the choices the row moves go up one lane."""
    return state + (state & detector.steps[mask]) * detector.start


def lanes(detector: _Levels, state: int, rows: int) -> list[int]:
    return [state >> i * detector.lane & detector.start for i in range(rows)]


@st.composite
def matrices(draw, max_rows: int, max_cols: int, min_rows: int = 1) -> ZeroOneMatrix:
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(1, max_cols))
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return ZeroOneMatrix(masks, cols)


@BOUNDED
@given(matrices(6, 6), matrices(3, 3))
def test_levels_stop_at_the_first_containing_prefix(host, a):
    detector = _Levels(a, host.cols)
    state = detector.start
    for k in range(1, host.rows + 1):
        mask = host.row_masks[k - 1]
        prefix = ZeroOneMatrix(host.row_masks[:k], host.cols)
        contained = oracle_embedding(prefix, a) is not None
        assert completes_copy(detector, state, mask) == contained, f"prefix of {k} rows"
        if contained:
            break
        state = child(detector, state, mask)
        # no carry crossed a lane: every choice sits in exactly one lane
        assert state >> detector.top + detector.lane == 0
        assert sum(lane.bit_count() for lane in lanes(detector, state, a.rows)) == detector.lane
        assert functools.reduce(operator.or_, lanes(detector, state, a.rows)) == detector.start


@BOUNDED
@given(matrices(6, 6), matrices(3, 3))
def test_forbidden_columns_are_those_whose_single_row_completes_a_copy(host, a):
    detector = _Levels(a, host.cols)
    state = detector.start
    for k in range(host.rows + 1):
        prefix = list(host.row_masks[:k])
        expected = sum(
            1 << c
            for c in range(host.cols)
            if oracle_embedding(ZeroOneMatrix(prefix + [1 << c], host.cols), a) is not None
        )
        assert detector.forbidden(state >> detector.top) == expected, f"prefix of {k} rows"
        if k == host.rows or completes_copy(detector, state, host.row_masks[k]):
            break
        state = child(detector, state, host.row_masks[k])


@BOUNDED
@given(matrices(6, 6), matrices(3, 3, min_rows=2))
def test_forbidden_columns_carried_down_match_those_recomputed(host, a):
    # exact_ex's width bound: each row ORs in only the columns of the
    # choices it moves to the top lane
    detector = _Levels(a, host.cols)
    state = detector.start
    carried = 0
    for k, mask in enumerate(host.row_masks, 1):
        newly_ready = (state & detector.steps[mask]) >> detector.top - detector.lane
        if completes_copy(detector, state, mask):
            break
        state = child(detector, state, mask)
        carried |= detector.forbidden(newly_ready)
        expected = sum(
            1 << c
            for c in range(host.cols)
            if oracle_embedding(ZeroOneMatrix(host.row_masks[:k] + (1 << c,), host.cols), a) is not None
        )
        assert carried == detector.forbidden(state >> detector.top) == expected, f"prefix of {k} rows"


def reference_levels(a: ZeroOneMatrix, w: int) -> dict:
    """`_Levels(a, w)`'s tables from their definitions: need_C[i] by a loop
    over the columns of each choice C, covers[i][mask] the choices whose
    need lies inside mask, and steps[mask] = sum of covers[i][mask] << i * lane
    over every pattern row i but the last."""
    choices = list(combinations(range(w), a.cols))
    lane = len(choices)
    covers = []
    for pm in a.row_masks:
        needs = []
        for cols in choices:
            need = 0
            for j, col in enumerate(cols):
                if pm >> j & 1:
                    need |= 1 << col
            needs.append(need)
        covers.append(
            [sum(1 << c for c, need in enumerate(needs) if need & mask == need) for mask in range(1 << w)]
        )
    return {
        "covers": covers,
        "steps": [sum(covers[i][mask] << i * lane for i in range(a.rows - 1)) for mask in range(1 << w)],
        "singles": tuple((1 << c, covers[-1][1 << c]) for c in range(w)),
        "lane": lane,
        "top": (a.rows - 1) * lane,
        "start": (1 << lane) - 1,
    }


@BOUNDED
@given(matrices(4, 4), st.integers(1, 7))
def test_levels_tables_match_their_definitions(a, w):
    # patterns up to 4x4 with zero rows and columns, at widths below the
    # pattern's too (no choice at all)
    detector = _Levels(a, w)
    for name, want in reference_levels(a, w).items():
        assert getattr(detector, name) == want, name


@st.composite
def prefix_extension_instances(draw):
    """A pattern up to 3x3, a host prefix of 0-3 rows, 1-2 extra rows and a
    final row mask, all of one width up to 6."""
    a = draw(matrices(3, 3))
    cols = draw(st.integers(1, 6))
    row = st.integers(0, (1 << cols) - 1)
    prefix = draw(st.lists(row, max_size=3))
    extra = draw(st.lists(row, min_size=1, max_size=2))
    return a, cols, prefix, extra, draw(row)


@BOUNDED
@given(prefix_extension_instances())
def test_a_row_that_completes_a_copy_completes_one_under_a_longer_prefix(instance):
    # the lemma behind exact_ex's row cap: masks rejected before the first
    # admitted one stay rejected in every row below
    a, cols, prefix, extra, mask = instance
    detector = _Levels(a, cols)
    completes = []
    for rows in (prefix, prefix + extra):
        completes.append(oracle_embedding(ZeroOneMatrix(rows + [mask], cols), a) is not None)
        state = detector.start
        for m in rows:
            if completes_copy(detector, state, m):
                break
            state = child(detector, state, m)
        else:
            assert completes_copy(detector, state, mask) == completes[-1]
    if completes[0]:
        assert completes[1]


@BOUNDED
@given(matrices(6, 6), matrices(3, 3))
def test_find_embedding_returns_the_oracle_certificate(host, a):
    assert find_embedding(host, a) == oracle_embedding(host, a)


def with_zero_lines(draw, masks: list, cols: int) -> ZeroOneMatrix:
    """The matrix with up to two all-zero columns and two all-zero rows
    inserted at drawn positions."""
    for pos in draw(st.lists(st.integers(0, cols), max_size=2)):
        low = (1 << pos) - 1
        masks = [(m & low) | ((m & ~low) << 1) for m in masks]
        cols += 1
    for pos in draw(st.lists(st.integers(0, len(masks)), max_size=2)):
        masks.insert(pos, 0)
    return ZeroOneMatrix(masks, cols)


def block_sum(blocks: list, anti: bool) -> tuple[list, int]:
    """Row masks of the blocks placed down the diagonal, each in its own
    rows and columns; with `anti`, the first block takes the last columns."""
    cols = sum(b.cols for b in blocks)
    masks, left = [], 0
    for b in blocks:
        shift = cols - left - b.cols if anti else left
        masks += [m << shift for m in b.row_masks]
        left += b.cols
    return masks, cols


@st.composite
def fragmented_hosts(draw) -> ZeroOneMatrix:
    """Hosts whose graph falls apart: two or three diagonal or anti-diagonal
    blocks up to 3x3, or a permutation matrix up to 6x6, with zero rows and
    columns interleaved."""
    if draw(st.booleans()):
        masks, cols = block_sum(draw(st.lists(matrices(3, 3), min_size=2, max_size=3)), draw(st.booleans()))
    else:
        perm = draw(st.permutations(range(draw(st.integers(1, 6)))))
        masks, cols = [1 << c for c in perm], len(perm)
    return with_zero_lines(draw, masks, cols)


@st.composite
def component_test_patterns(draw) -> ZeroOneMatrix:
    """Patterns up to 3x3 (connected ones among them), connected patterns
    with zero lines, and block sums of two patterns, which are disconnected
    when both have a 1."""
    kind = draw(st.sampled_from(("any", "zero lines", "disconnected")))
    if kind == "any":
        return draw(matrices(3, 3))
    if kind == "zero lines":
        core = draw(st.sampled_from(("1", "11", "1\n1", "11\n11", "11\n01", "110\n011")))
        a = ZeroOneMatrix.parse(core)
        return with_zero_lines(draw, list(a.row_masks), a.cols)
    masks, cols = block_sum([draw(matrices(2, 2)), draw(matrices(2, 2))], draw(st.booleans()))
    return ZeroOneMatrix(masks, cols)


@BOUNDED
@given(fragmented_hosts(), component_test_patterns())
def test_find_embedding_on_fragmented_hosts_returns_the_oracle_certificate(host, a):
    # the component test may only answer "absent" where the oracle does
    assert find_embedding(host, a) == oracle_embedding(host, a)


@st.composite
def banded_instances(draw):
    """A pattern up to 3x3, a host up to 6x6 with at least as many rows, and
    one nonempty 1-based inclusive host-row range per pattern row,
    increasing and disjoint."""
    a = draw(matrices(3, 3))
    rows = draw(st.integers(a.rows, 6))
    cols = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    bands, hi = [], 0
    for p in range(a.rows):
        start = draw(st.integers(hi + 1, rows - (a.rows - p) + 1))
        hi = draw(st.integers(start, rows - (a.rows - p - 1)))
        bands.append((start, hi))
    return ZeroOneMatrix(masks, cols), a, bands


@BOUNDED
@given(banded_instances())
def test_banded_search_returns_the_first_banded_copy(instance):
    host, a, bands = instance
    assert _find_copy(host, a, bands) == oracle_embedding(host, a, [range(lo, hi + 1) for lo, hi in bands])


@BOUNDED
@given(matrices(6, 70))
def test_text_and_json_round_trip(m):
    assert ZeroOneMatrix.parse("\n".join(m.row_strings())) == m
    assert ZeroOneMatrix.from_json_dict(m.to_json_dict()) == m
    for mask, row in zip(m.row_masks, m.row_strings(), strict=True):
        assert row == "".join("1" if mask >> j & 1 else "0" for j in range(m.cols))


def _text_path(doc: dict) -> ZeroOneMatrix:
    """The JSON reader as a text reader: join the rows, parse them as
    pattern text, then check the declared dimensions."""
    m = ZeroOneMatrix.parse("\n".join(doc["data"]))
    if (m.rows, m.cols) != (doc["rows"], doc["cols"]):
        raise FormatError("dimension mismatch")
    return m


@BOUNDED
@given(
    st.lists(st.text(alphabet="0101 #\n_b+-", max_size=5), min_size=1, max_size=4),
    st.integers(0, 5),
)
def test_json_rows_read_as_pattern_text(data, cols):
    doc = {"rows": len(data), "cols": cols, "data": data}
    try:
        want = _text_path(doc)
    except FormatError:
        with pytest.raises(FormatError):
            ZeroOneMatrix.from_json_dict(doc)
    else:
        assert ZeroOneMatrix.from_json_dict(doc) == want
