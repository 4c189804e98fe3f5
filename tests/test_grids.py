"""Tests for 2D block enumeration, entropy, fill ratios, and independence."""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import grids, shatter, words
from shiftlab.errors import (
    CapExceeded,
    DomainError,
    EmptyLanguage,
    NoWitness,
    ShiftLabError,
)

HARD_SQUARE = grids.ShiftSpec2D.hard_square()
FULL2 = grids.ShiftSpec2D.full(2)
ZEROS = grids.ShiftSpec2D.zeros_only()


def hard_square_count_oracle(k1: int, k2: int) -> int:
    """Transfer-matrix row DP: rows are 1-free masks, stacked rows disjoint."""
    rows = [m for m in range(1 << k2) if m & (m << 1) == 0]
    weight = {m: 1 for m in rows}
    for _ in range(k1 - 1):
        nxt = {m: 0 for m in rows}
        for m, w in weight.items():
            for m2 in rows:
                if m & m2 == 0:
                    nxt[m2] += w
        weight = nxt
    return sum(weight.values())


def naive_blocks_oracle(spec: grids.ShiftSpec2D, k1: int, k2: int) -> list:
    """Filter the full symbol cube by scanning every sub-rectangle."""
    out = []
    shapes: dict = {}
    for pat in spec.forbidden:
        shapes.setdefault((len(pat), len(pat[0])), []).append(pat)
    for cells in itertools.product(range(spec.alphabet_size), repeat=k1 * k2):
        rows = tuple(cells[i * k2 : (i + 1) * k2] for i in range(k1))
        bad = False
        for (p, q), pats in shapes.items():
            for i in range(k1 - p + 1):
                for j in range(k2 - q + 1):
                    sub = tuple(rows[i + a][j : j + q] for a in range(p))
                    if sub in pats:
                        bad = True
        if not bad:
            out.append(rows)
    return out


def naive_max(naive: list, symbol: int) -> tuple[int, tuple]:
    """The top symbol count and, by row-major order, the first block reaching it."""
    best = max(sum(row.count(symbol) for row in b) for b in naive)
    return best, min(b for b in naive if sum(row.count(symbol) for row in b) == best)


def naive_is_indep(naive: list, cells, r: int) -> bool:
    restrictions = {tuple(b[i - 1][j - 1] for i, j in cells) for b in naive}
    return len(restrictions) == r ** len(cells)


def assert_engine_matches_naive(spec: grids.ShiftSpec2D, k1: int, k2: int, subsets) -> None:
    """Count, maximum with its lex-first witness, and independence against the naive scan."""
    naive = naive_blocks_oracle(spec, k1, k2)
    assert grids.count_blocks_2d(spec, k1, k2) == len(naive)
    for symbol in range(spec.alphabet_size):
        if not naive:
            with pytest.raises(EmptyLanguage):
                grids.max_symbol_block(spec, k1, k2, symbol)
            continue
        res = grids.max_symbol_block(spec, k1, k2, symbol)
        assert (res.M, res.witness.rows) == naive_max(naive, symbol)
    for cells in subsets:
        ps = grids.GridPositionSet.of(cells)
        assert grids.is_indep_2d(spec, ps, k1, k2) == naive_is_indep(
            naive, cells, spec.alphabet_size
        )


@st.composite
def small_windows(draw):
    """A spec over 2 or 3 symbols with up to three patterns up to 3 rows tall,
    a window the naive scan can afford, and position sets inside it."""
    r = draw(st.sampled_from([2, 3]))
    shapes = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (3, 2), (2, 3)])
    pats = []
    for p1, p2 in draw(st.lists(shapes, max_size=3)):
        cells = draw(st.lists(st.integers(0, r - 1), min_size=p1 * p2, max_size=p1 * p2))
        pats.append([cells[i * p2:(i + 1) * p2] for i in range(p1)])
    spec = grids.ShiftSpec2D.from_patterns(r, pats)
    windows = [(a, b) for a in range(1, 5) for b in range(1, 5) if r ** (a * b) <= 4096]
    k1, k2 = draw(st.sampled_from(windows))
    window = [(i, j) for i in range(1, k1 + 1) for j in range(1, k2 + 1)]
    subsets = draw(st.lists(st.lists(st.sampled_from(window), unique=True, max_size=4), max_size=4))
    return spec, k1, k2, subsets


def random_spec() -> st.SearchStrategy[grids.ShiftSpec2D]:
    pat_1x2 = st.sampled_from(["01", "10", "11"])
    pat_2x1 = st.sampled_from(["01", "10", "11"])
    pat_2x2 = st.sampled_from(["0110", "1001", "1111", "1010"])
    def build(a, b, c, use_a, use_b, use_c):
        pats = []
        if use_a:
            pats.append(grids.pattern_from_rows([a]))
        if use_b:
            pats.append(grids.pattern_from_rows([b[0], b[1]]))
        if use_c:
            pats.append(grids.pattern_from_rows([c[:2], c[2:]]))
        return grids.ShiftSpec2D.from_patterns(2, pats)
    return st.builds(
        build,
        pat_1x2,
        pat_2x1,
        pat_2x2,
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )


class TestCounting:
    def test_hard_square_pinned_counts(self):
        assert grids.count_blocks_2d(HARD_SQUARE, 1, 2) == 3
        assert grids.count_blocks_2d(HARD_SQUARE, 2, 2) == 7
        assert grids.count_blocks_2d(HARD_SQUARE, 5, 5) == 55447

    def test_hard_square_matches_transfer_matrix(self):
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                assert grids.count_blocks_2d(HARD_SQUARE, k1, k2) == (
                    hard_square_count_oracle(k1, k2)
                )

    def test_full_shift_powers(self):
        assert grids.count_blocks_2d(FULL2, 3, 4) == 2 ** 12

    @given(spec=random_spec(), k1=st.integers(1, 3), k2=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_matches_naive_scan(self, spec, k1, k2):
        got = sorted(b.rows for b in grids.blocks_2d(spec, k1, k2))
        assert got == sorted(naive_blocks_oracle(spec, k1, k2))

    @given(spec=random_spec(), k1=st.integers(1, 2), k2=st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_row_stacking_subadditive(self, spec, k1, k2):
        a = grids.count_blocks_2d(spec, k1, k2)
        b = grids.count_blocks_2d(spec, k1 + 1, k2)
        c = grids.count_blocks_2d(spec, 2 * k1 + 1, k2)
        assert c <= a * b

    def test_hard_square_eight_by_eight(self):
        assert grids.count_blocks_2d(HARD_SQUARE, 8, 8) == hard_square_count_oracle(8, 8)
        assert grids.count_blocks_2d(HARD_SQUARE, 8, 8) == 660_647_962_955

    def test_wide_windows_read_by_columns(self):
        # one row of width 18 has 6765 admissible words; a row automaton
        # over them would need 6766 x 6765 table entries
        assert grids.count_blocks_2d(HARD_SQUARE, 1, 18) == 6765
        for k1, k2 in ((2, 16), (3, 12), (12, 3)):
            assert grids.count_blocks_2d(HARD_SQUARE, k1, k2) == hard_square_count_oracle(k1, k2)
        res = grids.max_symbol_block(HARD_SQUARE, 2, 17, 1)
        assert (res.M, res.witness.to_strings()) == (17, ["01" * 8 + "0", "10" * 8 + "1"])
        assert grids.is_indep_2d(HARD_SQUARE, grids.GridPositionSet.checkerboard(), 2, 17)
        spec = grids.ShiftSpec2D.from_patterns(3, [["0", "1"], ["22"]])
        assert grids.count_blocks_2d(spec, 1, 10) == len(words.blocks_1d(
            words.ShiftSpec1D.with_forbidden(3, [(2, 2)]), 10))

    def test_transposed_window_matches_naive_scan(self):
        # wider than tall, a 3x1 pattern turns into a row pattern and a
        # 1x2 pattern into a column one; the witness is still row-major first
        spec = grids.ShiftSpec2D.from_patterns(2, [["1", "0", "1"], ["11"], ["0", "0"]])
        window = [(i, j) for i in range(1, 3) for j in range(1, 7)]
        subsets = [(), ((1, 1), (2, 6)), ((1, 2), (1, 3)), ((2, 1), (1, 4), (2, 5)), window]
        assert_engine_matches_naive(spec, 2, 6, subsets)
        assert_engine_matches_naive(spec, 3, 4, [((1, 1), (3, 4)), ((2, 2), (2, 3), (3, 1))])
        # tied columns sharing a top cell: the first column in sorted order
        # does not lead to the row-major first block
        ties = grids.ShiftSpec2D.from_patterns(2, [["11", "11"], ["01", "11"], ["01", "00"]])
        assert grids.max_symbol_block(ties, 2, 4, 1).witness.to_strings() == ["1011", "1101"]
        assert_engine_matches_naive(ties, 2, 4, [((1, 2), (2, 3))])

    @given(case=small_windows())
    @settings(max_examples=60, deadline=None)
    def test_engine_matches_naive_scan(self, case):
        assert_engine_matches_naive(*case)

    def test_three_row_pattern_over_three_symbols(self):
        # a 3x1 pattern needs a history of two rows; 3^6 blocks per window
        spec = grids.ShiftSpec2D.from_patterns(
            3, [["0", "1", "2"], ["12"], ["2", "2"]]
        )
        window = [(i, j) for i in range(1, 4) for j in range(1, 3)]
        subsets = [(), ((1, 1), (3, 1)), ((1, 2), (2, 1), (3, 2)), window]
        assert_engine_matches_naive(spec, 3, 2, subsets)
        assert grids.count_blocks_2d(spec, 3, 2) < grids.count_blocks_2d(
            grids.ShiftSpec2D.from_patterns(3, [["12"], ["2", "2"]]), 3, 2
        )

    def test_empty_row_alphabet(self):
        # every binary 1x2 row is forbidden: no row of width 2 or more
        spec = grids.ShiftSpec2D.from_patterns(2, [["00"], ["01"], ["10"], ["11"]])
        assert grids.count_blocks_2d(spec, 2, 2) == 0
        assert grids.count_blocks_2d(spec, 2, 1) == 4
        assert grids.entropy_est_2d(spec, 2, 2).fekete_upper == float("-inf")
        assert not grids.is_indep_2d(spec, grids.GridPositionSet.of([]), 2, 2)
        assert not grids.is_indep_2d(spec, grids.GridPositionSet.of([(1, 1)]), 2, 2)
        with pytest.raises(EmptyLanguage):
            grids.max_symbol_block(spec, 2, 2, 1)
        with pytest.raises(EmptyLanguage):
            grids.prefix_regular_block(spec, 2, 2, 1, Fraction(0))
        with pytest.raises(NoWitness):
            grids.indep_witness_2d(spec, 2, 2)

    def test_automaton_cap_names_itself(self, monkeypatch):
        monkeypatch.setenv("SHIFTLAB_CAP", "100")
        fresh = grids.ShiftSpec2D.hard_square()
        # 21 rows of width 6 fit; 22 states of 21 entries do not
        with pytest.raises(CapExceeded, match="SHIFTLAB_CAP = 100"):
            grids.count_blocks_2d(fresh, 6, 6)
        # a 2 x 6 window is read as 6 columns of height 2
        assert grids.count_blocks_2d(fresh, 2, 6) == hard_square_count_oracle(2, 6)

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setenv("SHIFTLAB_CAP", "10")
        fresh = grids.ShiftSpec2D.from_patterns(
            2, [grids.pattern_from_rows(["111"])]
        )
        with pytest.raises(CapExceeded):
            grids.blocks_2d(fresh, 3, 3)


class TestSymbolCounts:
    def test_count_symbol_partition(self):
        for block in grids.blocks_2d(HARD_SQUARE, 2, 3):
            total = sum(
                grids.count_symbol(block, a) for a in range(2)
            )
            assert total == 6

    def test_max_symbol_block_two_by_two(self):
        res = grids.max_symbol_block(HARD_SQUARE, 2, 2, 1)
        assert res.M == 2
        assert res.witness.to_strings() == ["01", "10"]

    def test_max_symbol_block_four_by_four(self):
        assert grids.max_symbol_block(HARD_SQUARE, 4, 4, 1).M == 8

    def test_max_matches_enumeration(self):
        for k1, k2 in ((1, 1), (2, 3), (3, 3)):
            res = grids.max_symbol_block(HARD_SQUARE, k1, k2, 1)
            want, _ = naive_max(naive_blocks_oracle(HARD_SQUARE, k1, k2), 1)
            assert res.M == want

    def test_empty_language_raises(self):
        dead = grids.ShiftSpec2D.from_patterns(
            2, [grids.pattern_from_rows(["0"]), grids.pattern_from_rows(["1"])]
        )
        with pytest.raises(EmptyLanguage):
            grids.max_symbol_block(dead, 2, 2, 1)


class TestFillRatio:
    def test_hard_square_is_one_half(self):
        assert grids.fr_estimate(HARD_SQUARE, 1, 4) == Fraction(1, 2)

    def test_full_shift_is_one(self):
        assert grids.fr_estimate(FULL2, 1, 3) == Fraction(1, 1)

    def test_zeros_is_zero(self):
        assert grids.fr_estimate(ZEROS, 1, 3) == Fraction(0)

    def test_nonincreasing_in_kmax(self):
        vals = [grids.fr_estimate(HARD_SQUARE, 1, k) for k in range(1, 5)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


@st.composite
def series_cases(draw):
    """A spec over 2 or 3 symbols with up to three patterns up to 2 x 2,
    a row width up to 4, a symbol and an orientation."""
    r = draw(st.sampled_from([2, 3]))
    shapes = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)])
    pats = []
    for p1, p2 in draw(st.lists(shapes, max_size=3)):
        cells = draw(st.lists(st.integers(0, r - 1), min_size=p1 * p2, max_size=p1 * p2))
        pats.append([cells[i * p2:(i + 1) * p2] for i in range(p1)])
    spec = grids.ShiftSpec2D.from_patterns(r, pats)
    return spec, draw(st.integers(1, 4)), draw(st.integers(0, r - 1)), draw(st.booleans())


def fr_window_by_window(spec: grids.ShiftSpec2D, symbol: int, kmax: int):
    """The fill ratio from one witness pass per window in row-major order,
    or the (type, text) of the first error that pass raises."""
    try:
        return min(Fraction(grids.max_symbol_block(spec, k1, k2, symbol).M, k1 * k2)
                   for k1 in range(1, kmax + 1) for k2 in range(1, kmax + 1))
    except ShiftLabError as err:
        return type(err), str(err)


class TestSymbolSeries:
    @given(case=series_cases())
    @settings(max_examples=60, deadline=None)
    def test_series_matches_each_window(self, case):
        # transposed, entry k is the width x k window read as k columns
        spec, width, symbol, transposed = case
        series = grids.max_symbol_series(spec._transposed if transposed else spec, width, 4, symbol)
        assert len(series) == 5 and series[0] == 0
        for k, top in enumerate(series[1:], start=1):
            k1, k2 = (width, k) if transposed else (k, width)
            if top is None:
                with pytest.raises(EmptyLanguage):
                    grids.max_symbol_block(spec, k1, k2, symbol)
                assert grids.count_blocks_2d(spec, k1, k2) == 0
                continue
            assert top == grids.max_symbol_block(spec, k1, k2, symbol).M
            if grids.count_blocks_2d(spec, k1, k2) <= 4096:
                blocks = grids.blocks_2d(spec, k1, k2)
                assert top == max(grids.count_symbol(b, symbol) for b in blocks)

    def test_hard_square_windows_are_half_full(self):
        # no two adjacent ones: the checkerboard's ceil(k1 k2 / 2) is the top
        got = {(k1, k2): top for k1, k2, top in grids.max_symbol_windows(HARD_SQUARE, 1, 8)}
        assert list(got) == [(k1, k2) for k1 in range(1, 9) for k2 in range(1, 9)]
        assert got == {(k1, k2): (k1 * k2 + 1) // 2 for k1, k2 in got}

    def test_series_needs_a_row_and_a_symbol(self):
        with pytest.raises(DomainError, match="symbol 2 outside the alphabet"):
            grids.max_symbol_series(HARD_SQUARE, 0, 3, 2)
        with pytest.raises(DomainError, match="block sides"):
            grids.max_symbol_series(HARD_SQUARE, 0, 3, 1)
        assert grids.max_symbol_series(HARD_SQUARE, 3, 0, 1) == [0]

    def test_fr_raises_what_a_pass_per_window_raises(self, monkeypatch):
        every_line = ["00", "01", "10", "11"]
        specs = [
            grids.ShiftSpec2D.from_patterns(2, [[line] for line in every_line]),  # dead at 1x2
            grids.ShiftSpec2D.from_patterns(2, [list(line) for line in every_line]),  # dead at 2x1
            # no column of three: dead at 3x1, after 1x3 and 2x3 were read
            grids.ShiftSpec2D.from_patterns(2, [list(f"{m:03b}") for m in range(8)]),
            grids.ShiftSpec2D.from_patterns(2, [[f"{m:04b}"[:2], f"{m:04b}"[2:]] for m in range(16)]),
            grids.ShiftSpec2D.from_patterns(3, [["11"], ["1", "1"], ["02"]]),
            HARD_SQUARE,
        ]
        for cap in ("4", "16", "64", "256"):
            monkeypatch.setenv("SHIFTLAB_CAP", cap)
            for spec in specs:
                for symbol in (1, 2, 3):
                    want = fr_window_by_window(spec, symbol, 4)
                    try:
                        got = grids.fr_estimate(spec, symbol, 4)
                    except ShiftLabError as err:
                        got = type(err), str(err)
                    assert got == want, (cap, spec, symbol)
        monkeypatch.delenv("SHIFTLAB_CAP")
        assert fr_window_by_window(specs[2], 1, 4) == (EmptyLanguage, "no admissible 3x1 blocks")
        assert fr_window_by_window(specs[0], 2, 4) == (DomainError, "symbol 2 outside the alphabet")


class TestCountWindows:
    # no two ones side by side, no 101 down a column: not its own transpose
    SKEW = grids.ShiftSpec2D.from_patterns(2, [["11"], ["1", "0", "1"]])

    @pytest.mark.parametrize("k1,k2", [(3, 2), (2, 3), (3, 4)], ids=["tall", "wide", "both"])
    @pytest.mark.parametrize("spec", [HARD_SQUARE, SKEW, FULL2], ids=["hard-square", "skew", "full"])
    def test_windows_match_the_oracle_in_both_orientations(self, spec, k1, k2):
        got = grids.block_count_windows(spec, k1, k2)
        assert [(a, b) for a, b, _ in got] == [(a, b) for a in range(1, k1 + 1) for b in range(1, k2 + 1)]
        for a, b, count in got:
            assert count == grids.count_blocks_2d(spec, a, b) == len(naive_blocks_oracle(spec, a, b))

    def test_one_series_per_row_spec_and_width(self, monkeypatch):
        calls = []
        block_counts = words.block_counts

        def spy(shift, length):
            if isinstance(shift, grids.RowShift):  # not the row listing inside a RowShift
                calls.append((len(shift.rows[0]), length))
            return block_counts(shift, length)

        monkeypatch.setattr(words, "block_counts", spy)
        est = grids.entropy_est_2d(self.SKEW, 4, 3)
        # rows of widths 1..3 run up to height 4; the wide windows read
        # columns of heights 1 and 2 of the transposed spec, up to length 3
        assert sorted(calls) == [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        logs = [words.log_per_size(grids.count_blocks_2d(self.SKEW, a, b), a * b)
                for a in range(1, 5) for b in range(1, 4)]
        assert est == grids.Entropy2D(raw=logs[-1], fekete_upper=min(logs))

    def test_sides_must_be_positive(self):
        with pytest.raises(DomainError, match="block sides"):
            grids.block_count_windows(HARD_SQUARE, 0, 2)


class TestSharedRowShifts:
    TEXT = json.dumps({"alphabet": 2, "forbidden": [{"dims": [1, 2], "cells": "11"},
                                                    {"dims": [3, 1], "cells": "101"}]})

    def test_equal_specs_share_one_row_shift(self):
        a, b = (grids.ShiftSpec2D.from_json(json.loads(self.TEXT)) for _ in range(2))
        assert a is not b and a == b
        tall, wide = grids._window(a, 3, 2)[0], grids._window(a, 2, 3)[0]
        assert tall is not wide  # the transposed spec reads the wide window
        assert grids._window(b, 3, 2)[0] is tall
        assert grids._window(b, 2, 3)[0] is wide

    def test_a_spec_differing_in_one_pattern_gets_its_own(self):
        a = grids.ShiftSpec2D.from_json(json.loads(self.TEXT))
        obj = json.loads(self.TEXT)
        obj["forbidden"][0]["cells"] = "01"
        c = grids.ShiftSpec2D.from_json(obj)
        assert grids._window(c, 3, 2)[0] is not grids._window(a, 3, 2)[0]
        assert grids._window(c, 2, 3)[0] is not grids._window(a, 2, 3)[0]

    def test_counts_stay_right_past_the_cache_size(self):
        squares = [[f"{m:04b}"[:2], f"{m:04b}"[2:]] for m in range(16)]
        lines = ["00", "01", "10", "11"]
        specs = [grids.ShiftSpec2D.from_patterns(2, [p]) for p in squares]
        specs += [grids.ShiftSpec2D.from_patterns(2, [[a], list(b)]) for a in lines for b in lines]
        specs += [grids.ShiftSpec2D.from_patterns(2, [[t]]) for t in ("000", "111", "010", "101")]
        assert len(set(specs)) == len(specs) > grids._row_shift.cache_info().maxsize
        for _ in range(2):
            for spec in specs:
                for k1, k2 in ((3, 2), (2, 3)):
                    assert grids.count_blocks_2d(spec, k1, k2) == len(naive_blocks_oracle(spec, k1, k2))
            info = grids._row_shift.cache_info()
            assert info.currsize <= info.maxsize


class TestPrefixRegular:
    def test_full_shift_all_ones(self):
        block = grids.prefix_regular_block(FULL2, 3, 3, 1, Fraction(1))
        assert block is not None
        assert block.to_strings() == ["111", "111", "111"]

    def test_hard_square_checkerboard(self):
        block = grids.prefix_regular_block(HARD_SQUARE, 2, 2, 1, Fraction(1, 2))
        assert block is not None
        assert block.to_strings() == ["01", "10"]

    def test_zeros_has_no_ones(self):
        assert grids.prefix_regular_block(ZEROS, 2, 2, 1, Fraction(1, 10)) is None

    def test_empty_language_raises(self):
        dead = grids.ShiftSpec2D.from_patterns(
            2, [grids.pattern_from_rows(["0"]), grids.pattern_from_rows(["1"])]
        )
        with pytest.raises(EmptyLanguage):
            grids.prefix_regular_block(dead, 2, 2, 1, Fraction(0))

    def test_returned_block_satisfies_prefixes(self):
        target = Fraction(1, 2)
        block = grids.prefix_regular_block(HARD_SQUARE, 3, 2, 1, target)
        if block is not None:
            k1, k2 = block.shape
            for j in range(1, k1 + 1):
                ones = sum(
                    1
                    for i in range(1, j + 1)
                    for c in range(1, k2 + 1)
                    if block.at(i, c) == 1
                )
                assert ones >= j * k2 * target


class TestEntropy2D:
    def test_hard_square_raw(self):
        est = grids.entropy_est_2d(HARD_SQUARE, 5, 5)
        assert est.raw == pytest.approx(math.log(55447) / 25, abs=1e-12)
        assert est.raw >= 0.35

    def test_fekete_upper_dominates(self):
        est = grids.entropy_est_2d(HARD_SQUARE, 4, 4)
        assert est.raw <= est.fekete_upper + 1e-12


class TestPositionSets:
    def test_checkerboard_window_counts(self):
        cb = grids.GridPositionSet.checkerboard()
        assert cb.count_window(2, 2) == 2
        assert cb.count_window(3, 3) == 5

    @given(
        n1=st.integers(1, 9),
        n2=st.integers(1, 9),
        kind=st.sampled_from(["checkerboard", "rows_leq", "all"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_window_matches_member_walk(self, n1, n2, kind):
        if kind == "checkerboard":
            ps = grids.GridPositionSet.checkerboard()
        elif kind == "rows_leq":
            ps = grids.GridPositionSet.rows_leq(2)
        else:
            ps = grids.GridPositionSet.everything()
        assert ps.count_window(n1, n2) == len(ps.window(n1, n2))

    def test_upper_density_of_checkerboard(self):
        res = grids.upper_density_grid(
            grids.GridPositionSet.checkerboard(), [(n, n) for n in range(2, 11, 2)]
        )
        assert res.upper_est == Fraction(1, 2)

    def test_json_round_trip(self):
        for ps in (
            grids.GridPositionSet.of([(1, 2), (3, 4)]),
            grids.GridPositionSet.checkerboard(),
            grids.GridPositionSet.rows_leq(3),
        ):
            assert grids.GridPositionSet.from_json(ps.to_json()) == ps


class TestIndependence2D:
    def test_hard_square_diagonal_pair(self):
        ps = grids.GridPositionSet.of([(1, 1), (2, 2)])
        assert grids.is_indep_2d(HARD_SQUARE, ps, 2, 2)

    def test_hard_square_adjacent_pair_fails(self):
        ps = grids.GridPositionSet.of([(1, 1), (1, 2)])
        assert not grids.is_indep_2d(HARD_SQUARE, ps, 2, 2)

    def test_positions_outside_window_rejected(self):
        ps = grids.GridPositionSet.of([(1, 1), (3, 3)])
        with pytest.raises(DomainError):
            grids.is_indep_2d(HARD_SQUARE, ps, 2, 2)

    def test_witness_two_by_two(self):
        wit = grids.indep_witness_2d(HARD_SQUARE, 2, 2)
        assert wit.k == 2
        assert wit.J.cells == frozenset({(1, 1), (2, 2)})

    def test_witness_five_by_five(self):
        # the lex-first shattered 5-set of the 55,447 blocks is (1, 3, 5, 7, 9)
        wit = grids.indep_witness_2d(HARD_SQUARE, 5, 5)
        assert wit.k == 5
        assert wit.J.cells == frozenset({(1, 1), (1, 3), (1, 5), (2, 2), (2, 4)})

    def test_witness_full_shift_everything(self):
        wit = grids.indep_witness_2d(FULL2, 2, 2)
        assert wit.k == 4

    def test_no_witness_for_rigid_language(self):
        with pytest.raises(NoWitness):
            grids.indep_witness_2d(ZEROS, 2, 2)

    @given(spec=random_spec(), k1=st.integers(2, 3), k2=st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_witness_soundness(self, spec, k1, k2):
        count = grids.count_blocks_2d(spec, k1, k2)
        if count <= 1:
            with pytest.raises(NoWitness):
                grids.indep_witness_2d(spec, k1, k2)
            return
        wit = grids.indep_witness_2d(spec, k1, k2)
        assert grids.is_indep_2d(spec, wit.J, k1, k2)
        assert count >= 2 ** wit.k

    @given(spec=random_spec(), k1=st.integers(1, 4), k2=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_witness_matches_the_shattered_block_family(self, spec, k1, k2):
        # the blocks as row-major binary words: their forced size and their
        # lex-first shattered set, cells in both orientations of the window
        blocks = grids.blocks_2d(spec, k1, k2)
        if len(blocks) <= 1:
            with pytest.raises(NoWitness):
                grids.indep_witness_2d(spec, k1, k2)
            return
        family = shatter.BinaryFamily.from_words(
            "".join(map(str, itertools.chain(*block.rows))) for block in blocks
        )
        k = shatter.forced_shatter_size(family)
        want = {((idx - 1) // k2 + 1, (idx - 1) % k2 + 1) for idx in shatter.extract_shattered(family, k)}
        wit = grids.indep_witness_2d(spec, k1, k2)
        assert (wit.k, wit.J.cells) == (k, want)

    def test_witness_lists_no_block(self):
        # the row shift already built, the walk holds a few cell sets, not
        # the 55,447 blocks of the window
        grids.count_blocks_2d(HARD_SQUARE, 5, 5)
        tracemalloc.start()
        try:
            wit = grids.indep_witness_2d(HARD_SQUARE, 5, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wit.k == 5
        assert peak < 1e6  # bytes

    def test_witness_refuses_more_blocks_than_the_cap(self, monkeypatch):
        monkeypatch.setenv("SHIFTLAB_CAP", "1000")
        with pytest.raises(CapExceeded, match="SHIFTLAB_CAP = 1000"):
            grids.indep_witness_2d(HARD_SQUARE, 5, 5)


class TestBlockPlumbing:
    def test_block_at_is_one_based(self):
        block = grids.GridBlock(grids.pattern_from_rows(["01", "10"]))
        assert block.at(1, 2) == 1
        assert block.at(2, 1) == 1
        assert block.at(2, 2) == 0

    def test_spec_json_round_trip(self):
        assert grids.ShiftSpec2D.from_json(HARD_SQUARE.to_json()) == HARD_SQUARE

    @given(data=st.data(), r=st.integers(min_value=2, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_spec_json_round_trip_any_alphabet(self, data, r):
        shapes = st.tuples(st.integers(1, 3), st.integers(1, 3))
        patterns = [data.draw(st.lists(st.lists(st.integers(0, r - 1), min_size=b, max_size=b),
                                       min_size=a, max_size=a))
                    for a, b in data.draw(st.lists(shapes, max_size=3))]
        spec = grids.ShiftSpec2D.from_patterns(r, patterns)
        assert grids.ShiftSpec2D.from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_symbols_past_nine_travel_as_int_lists(self):
        spec = grids.ShiftSpec2D.from_patterns(12, [[[11, 0]]])
        assert spec.to_json()["forbidden"] == [{"dims": [1, 2], "cells": [11, 0]}]
        assert grids.ShiftSpec2D.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("row", [[1.5, 0], [True, 0], "1x", "\u0661", 10])
    def test_row_of_no_symbols_is_refused(self, row):
        with pytest.raises(DomainError, match="expected digits"):
            grids.pattern_from_rows([row])

    def test_forbidden_dims_encode_shape(self):
        obj = HARD_SQUARE.to_json()
        dims = sorted(tuple(f["dims"]) for f in obj["forbidden"])
        assert dims == [(1, 2), (2, 1)]
