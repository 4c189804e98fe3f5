"""Tests for 1D block languages, entropy estimates, and independence."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import grids, treeshifts, words
from shiftlab.errors import CapExceeded, DomainError


# ---------------------------------------------------------------------------
# oracle: filter the full r^n cube by hand


def naive_blocks(spec: words.ShiftSpec1D, n: int) -> list[tuple[int, ...]]:
    out = []
    for w in itertools.product(range(spec.alphabet_size), repeat=n):
        if spec.kind == words.FORBIDDEN:
            s = "".join(str(x) for x in w)
            if any(f in s for f in (words.word_to_str(f) for f in spec.forbidden)):
                continue
        elif spec.kind == words.AT_MOST_K:
            if w.count(spec.symbol) > spec.count:
                continue
        out.append(w)
    return out


def closure(spec: words.ShiftSpec1D, n: int) -> set[tuple[int, ...]]:
    """Oracle: the length-n words completed downward under coordinatewise lowering."""
    seen = set(naive_blocks(spec, n))
    stack = list(seen)
    while stack:
        w = stack.pop()
        for i, s in enumerate(w):
            if s > 0:
                lowered = w[:i] + (s - 1,) + w[i + 1:]
                if lowered not in seen:
                    seen.add(lowered)
                    stack.append(lowered)
    return seen


GOLDEN = words.ShiftSpec1D.golden_mean()
FULL2 = words.ShiftSpec1D.full(2)
ATMOST = words.ShiftSpec1D.at_most_k(2, symbol=1, count=1)


def small_spec3() -> st.SearchStrategy[words.ShiftSpec1D]:
    forbidden_word = st.text(alphabet="012", min_size=1, max_size=3)
    return st.one_of(
        st.just(words.ShiftSpec1D.full(3)),
        st.builds(words.ShiftSpec1D.at_most_k, st.just(3), st.integers(0, 2), st.integers(0, 2)),
        st.builds(
            lambda fs: words.ShiftSpec1D.with_forbidden(3, fs),
            st.lists(forbidden_word, min_size=1, max_size=4, unique=True),
        ),
    )


def small_spec() -> st.SearchStrategy[words.ShiftSpec1D]:
    forbidden_word = st.text(alphabet="01", min_size=1, max_size=3)
    return st.one_of(
        st.just(FULL2),
        st.just(GOLDEN),
        st.just(ATMOST),
        st.builds(
            lambda fs: words.ShiftSpec1D.with_forbidden(2, fs),
            st.lists(forbidden_word, min_size=1, max_size=3, unique=True),
        ),
    )


class TestCounting:
    def test_golden_mean_fibonacci(self):
        # 2, 3, 5, 8, 13, ...
        a, b = 2, 3
        for n in range(1, 21):
            assert words.count_blocks_1d(GOLDEN, n) == a
            a, b = b, a + b

    def test_full_shift_powers(self):
        for n in range(1, 12):
            assert words.count_blocks_1d(FULL2, n) == 2 ** n

    def test_single_symbol_budget_linear(self):
        for n in range(1, 15):
            assert words.count_blocks_1d(ATMOST, n) == n + 1

    def test_block_counts_prefix(self):
        counts = words.block_counts(GOLDEN, 6)
        assert counts == [1, 2, 3, 5, 8, 13, 21]

    @given(spec=small_spec(), n=st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_naive_filter(self, spec, n):
        assert words.count_blocks_1d(spec, n) == len(naive_blocks(spec, n))

    @given(spec=small_spec(), n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_matches_naive_filter(self, spec, n):
        assert sorted(words.blocks_1d(spec, n)) == naive_blocks(spec, n)

    def test_golden_blocks_length_three(self):
        got = {words.word_to_str(w) for w in words.blocks_1d(GOLDEN, 3)}
        assert got == {"000", "001", "010", "100", "101"}

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setenv("SHIFTLAB_CAP", "8")
        with pytest.raises(CapExceeded):
            words.blocks_1d(FULL2, 5)

    def test_enumeration_cap_refuses_before_listing(self, monkeypatch):
        # the exact count comes first: 2^40 words are refused without a step
        steps = []
        step = words.WordAutomaton.step
        monkeypatch.setattr(words.WordAutomaton, "step",
                            lambda auto, q, s: steps.append(q) or step(auto, q, s))
        monkeypatch.setenv("SHIFTLAB_CAP", "1000")
        with pytest.raises(CapExceeded, match="SHIFTLAB_CAP = 1000 words of length 40"):
            words.blocks_1d(words.ShiftSpec1D.full(2), 40)
        # a grid window lists its rows the same way
        with pytest.raises(CapExceeded, match="SHIFTLAB_CAP = 1000 words of length 30"):
            grids.count_blocks_2d(grids.ShiftSpec2D.full(2), 30, 30)
        assert steps == []
        # the golden mean has 13 words of length 5: a cap of 13 lists them all
        monkeypatch.setenv("SHIFTLAB_CAP", "13")
        assert len(words.blocks_1d(GOLDEN, 5)) == 13
        monkeypatch.setenv("SHIFTLAB_CAP", "12")
        with pytest.raises(CapExceeded, match="SHIFTLAB_CAP = 12"):
            words.blocks_1d(GOLDEN, 5)

    def test_long_words_list_without_recursion(self):
        # one admissible word of length 1,200, past the default recursion limit
        assert words.blocks_1d(words.ShiftSpec1D.zeros_only(), 1200) == frozenset({(0,) * 1200})
        (block,) = grids.blocks_2d(grids.ShiftSpec2D.zeros_only(), 1200, 1)
        assert block.rows == ((0,),) * 1200

    @given(
        spec=small_spec(),
        m=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_subadditive_counts(self, spec, m, n):
        # gluing two windows can only lose words
        c = words.block_counts(spec, m + n)
        assert c[m + n] <= c[m] * c[n]


class TestEntropy:
    def test_golden_raw_at_three(self):
        est = words.entropy_est_1d(GOLDEN, 3)
        assert est.raw == pytest.approx(math.log(5) / 3, abs=1e-12)
        assert round(est.raw, 4) == 0.5365

    def test_full_shift_exact(self):
        est = words.entropy_est_1d(FULL2, 5)
        assert est.raw == pytest.approx(math.log(2), abs=1e-12)
        assert est.fekete_upper == pytest.approx(math.log(2), abs=1e-12)

    def test_fekete_is_min_over_prefix(self):
        counts = words.block_counts(GOLDEN, 9)
        want = min(math.log(counts[m]) / m for m in range(1, 10))
        assert words.entropy_est_1d(GOLDEN, 9).fekete_upper == pytest.approx(want)

    @given(spec=small_spec(), n=st.integers(min_value=2, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_fekete_never_increases(self, spec, n):
        if words.count_blocks_1d(spec, n) == 0:
            return
        uppers = [words.entropy_est_1d(spec, m).fekete_upper for m in range(1, n + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))

    @given(spec=small_spec(), n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_raw_below_fekete(self, spec, n):
        if words.count_blocks_1d(spec, n) == 0:
            return
        est = words.entropy_est_1d(spec, n)
        assert est.raw <= est.fekete_upper + 1e-12


class TestLogPerSize:
    @given(count=st.integers(1, 10 ** 40), size=st.integers(1, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_log_over_size(self, count, size):
        assert words.log_per_size(count, size).hex() == (math.log(count) / size).hex()

    def test_empty_count_is_minus_infinity(self):
        for size in (1, 6, 10 ** 30):
            assert words.log_per_size(0, size) == -math.inf

    def test_single_count_is_zero(self):
        for size in (1, 6, 10 ** 30):
            assert words.log_per_size(1, size).hex() == (0.0).hex()


class TestHereditary:
    def test_closure_contains_language(self):
        spec = words.ShiftSpec1D.with_forbidden(2, ["10"])
        closed = closure(spec, 3)
        assert words.blocks_1d(spec, 3) <= closed

    def test_closure_fixes_hereditary_specs(self):
        for n in range(1, 7):
            assert closure(GOLDEN, n) == words.blocks_1d(GOLDEN, n)

    def test_closure_completes_raised_spec(self):
        # 11 is admissible but its lowering 10 is forbidden; the closure adds it back
        spec = words.ShiftSpec1D.with_forbidden(2, ["10"])
        closed = closure(spec, 2)
        assert (1, 0) in closed
        assert (1, 0) not in words.blocks_1d(spec, 2)

    @given(spec=small_spec(), n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_closure_closed_under_lowering(self, spec, n):
        closed = closure(spec, n)
        for w in closed:
            for i, s in enumerate(w):
                for lower in range(s):
                    assert w[:i] + (lower,) + w[i + 1 :] in closed

    def test_golden_is_hereditary(self):
        assert words.is_hereditary_upto(GOLDEN, 8)

    def test_budget_spec_is_hereditary(self):
        assert words.is_hereditary_upto(ATMOST, 8)

    def test_raised_zero_block_is_not_hereditary(self):
        # forbidding the low word 10 breaks lowering of 11
        spec = words.ShiftSpec1D.with_forbidden(2, ["10"])
        assert not words.is_hereditary_upto(spec, 4)
        # at length 2 only the last symbol of 11 lowers into 10
        assert not words.is_hereditary_upto(spec, 2)

    @pytest.mark.parametrize(
        "spec",
        [words.ShiftSpec1D.at_most_k(2, symbol=0, count=6),
         words.ShiftSpec1D.with_forbidden(2, ["0000000"])],
        ids=["at-most-6-zeros", "no-seven-zeros"],
    )
    def test_counterexamples_past_length_six(self, spec):
        # lowering a 1 of a length-7 word makes seven zeros; the oracle agrees
        for n in range(1, 9):
            want = all(closure(spec, m) == words.blocks_1d(spec, m) for m in range(1, n + 1))
            assert want == (n <= 6)
            assert words.is_hereditary_upto(spec, n) == want
        assert not words.is_hereditary_upto(spec, math.inf)

    def test_exact_check_on_hereditary_specs(self):
        # upward-closed forbidden sets, or a budget on the top symbol: lowering breaks no word
        for spec in (GOLDEN, ATMOST, FULL2, words.ShiftSpec1D.with_forbidden(3, ["22", "12", "21"])):
            assert words.is_hereditary_upto(spec, math.inf)

    @given(spec=small_spec(), n=st.integers(min_value=1, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_check_matches_closure(self, spec, n):
        want = all(
            closure(spec, m) == words.blocks_1d(spec, m) for m in range(1, n + 1)
        )
        assert words.is_hereditary_upto(spec, n) == want


class TestIndependence:
    def test_golden_pair_with_gap(self):
        assert words.is_indep_1d(GOLDEN, [1, 3], 4)

    def test_golden_adjacent_pair_fails(self):
        assert not words.is_indep_1d(GOLDEN, [1, 2], 4)

    def test_empty_set_with_nonempty_language(self):
        assert words.is_indep_1d(GOLDEN, [], 4)

    def test_positions_validated(self):
        with pytest.raises(DomainError):
            words.is_indep_1d(GOLDEN, [0, 2], 4)
        with pytest.raises(DomainError):
            words.is_indep_1d(GOLDEN, [1, 5], 4)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_independence_subset_closed(self, data):
        length = data.draw(st.integers(min_value=2, max_value=7))
        positions = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=length),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        if words.is_indep_1d(GOLDEN, positions, length):
            drop = data.draw(st.integers(min_value=0, max_value=len(positions) - 1))
            sub = positions[:drop] + positions[drop + 1 :]
            assert words.is_indep_1d(GOLDEN, sub, length)

    def test_independence_matches_projection_oracle(self):
        length = 6
        blocks = naive_blocks(GOLDEN, length)
        for k in (1, 2, 3):
            for S in itertools.combinations(range(1, length + 1), k):
                proj = {tuple(b[p - 1] for p in S) for b in blocks}
                want = len(proj) == 2 ** k
                assert words.is_indep_1d(GOLDEN, S, length) == want


class TestMaxIndep:
    def test_golden_window_four(self):
        res = words.max_indep_J(GOLDEN, 4)
        assert res.J == 2
        assert res.witness == (1, 3)

    def test_full_shift_everything(self):
        res = words.max_indep_J(FULL2, 5)
        assert res.J == 5
        assert res.witness == (1, 2, 3, 4, 5)

    def test_budget_spec_stalls_at_one(self):
        res = words.max_indep_J(ATMOST, 6)
        assert res.J == 1

    def test_brute_force_agreement(self):
        for length in range(1, 7):
            got = words.max_indep_J(GOLDEN, length).J
            blocks = naive_blocks(GOLDEN, length)
            best = 0
            for k in range(length, 0, -1):
                for S in itertools.combinations(range(1, length + 1), k):
                    proj = {tuple(b[p - 1] for p in S) for b in blocks}
                    if len(proj) == 2 ** k:
                        best = k
                        break
                if best:
                    break
            assert got == best

    def test_window_subadditivity(self):
        js = [words.max_indep_J(GOLDEN, l).J for l in range(1, 11)]
        for a in range(1, 10):
            for b in range(1, 11 - a):
                assert js[a + b - 1] <= js[a - 1] + js[b - 1]

    @given(
        spec=st.one_of(small_spec(), small_spec3()),
        length=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_engine_matches_brute_force(self, spec, length):
        # oracle: project every admissible word onto every position set
        r = spec.alphabet_size
        js = []
        for m in range(1, length + 1):
            blocks = naive_blocks(spec, m)
            indep = {
                S: len({tuple(b[p - 1] for p in S) for b in blocks}) == r ** len(S)
                for k in range(m + 1)
                for S in itertools.combinations(range(1, m + 1), k)
            }
            best = min(((-len(S), S) for S, ok in indep.items() if ok), default=(0, ()))
            js.append(-best[0])
        res = words.max_indep_J(spec, length)
        assert (res.J, res.witness) == (js[-1], best[1])
        assert res.fekete_limit_est == min(Fraction(j, m) for m, j in enumerate(js, start=1))
        for S, ok in indep.items():
            assert words.is_indep_1d(spec, S, length) == ok

    @pytest.mark.parametrize("spec", [
        GOLDEN, ATMOST, FULL2, words.ShiftSpec1D.with_forbidden(2, ["010", "111"]),
    ])
    def test_series_matches_each_window(self, spec):
        series = words.max_indep_J_series(spec, 12)
        assert series == [words.max_indep_J(spec, m) for m in range(1, 13)]

    def test_series_needs_a_window(self):
        with pytest.raises(DomainError):
            words.max_indep_J_series(GOLDEN, 0)

    def test_full_shift_long_window(self):
        res = words.max_indep_J(FULL2, 30)
        assert res.J == 30
        assert res.witness == tuple(range(1, 31))

    def test_witness_is_lex_first_among_maximum_sets(self):
        spec = words.ShiftSpec1D.with_forbidden(2, ["010", "111"])
        res = words.max_indep_J(spec, 10)
        # another maximum set, which the window walk meets first
        assert words.is_indep_1d(spec, (1, 2, 6, 7, 10), 10)
        assert (res.J, res.witness) == (5, (1, 2, 5, 9, 10))

    def test_window_search_cap(self, monkeypatch):
        # the widest table of the golden mean's window walk has 2 entries
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 2)
        assert words.max_indep_J(GOLDEN, 5).J == 3
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 1)
        with pytest.raises(CapExceeded, match="CLASS_CAP = 1 entries"):
            words.max_indep_J(GOLDEN, 5)

    def test_fekete_limit_is_exact_fraction(self):
        res = words.max_indep_J(GOLDEN, 8)
        assert isinstance(res.fekete_limit_est, Fraction)
        assert 0 <= res.fekete_limit_est <= 1


def accepted_words(auto: words.WordAutomaton, n: int) -> set[tuple[int, ...]]:
    """The words of length n that the automaton's table reads to the end."""
    out = set()
    for w in itertools.product(range(auto.size), repeat=n):
        state = auto.initial
        for s in w:
            state = auto.table[state][s]
            if state is None:
                break
        else:
            out.add(w)
    return out


class TestPatternAutomaton:
    @given(r=st.integers(2, 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_symbol_lines_forbid_the_words(self, r, data):
        word = st.lists(st.integers(0, r - 1), min_size=1, max_size=3).map(tuple)
        forbidden = data.draw(st.lists(word, max_size=3))
        lines = [[tuple(int(x == s) for x in range(r)) for s in f] for f in forbidden]
        auto = words.pattern_automaton(r, lines)
        for n in range(7):
            brute = {w for w in itertools.product(range(r), repeat=n)
                     if not any(w[i:i + len(f)] == f for f in forbidden for i in range(n - len(f) + 1))}
            assert accepted_words(auto, n) == brute

    def test_wide_marks_refuse_rows_sharing_an_offset(self):
        # the 2x2 pattern 11 over 01 on width-3 rows: a line can lie at offset 0 or 1
        rows = list(itertools.product((0, 1), repeat=3))
        top, bottom = (1, 1), (0, 1)
        marks = [[tuple(sum(1 << j for j in range(2) if row[j:j + 2] == line) for row in rows)
                  for line in (top, bottom)]]
        auto = words.pattern_automaton(len(rows), marks)
        refused = {(x, y) for x, y in itertools.product(range(len(rows)), repeat=2)
                   if any(rows[x][j:j + 2] == top and rows[y][j:j + 2] == bottom for j in range(2))}
        assert marks[0][0][-1] == 0b11  # row 111 holds the top line at both offsets
        assert accepted_words(auto, 2) == set(itertools.product(range(len(rows)), repeat=2)) - refused
        assert auto.n_states == 1 + len(rows)

    def test_no_pattern_gives_one_state(self):
        auto = words.pattern_automaton(3, [])
        assert auto.table == ((0, 0, 0),)


class TestSpecPlumbing:
    @given(spec=small_spec())
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, spec):
        assert words.ShiftSpec1D.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("forbidden", [[(11,), (3, 4)], [(10, 0, 9)], ["34", "9"]])
    def test_json_round_trip_alphabet_twelve(self, forbidden):
        # two-digit symbols cannot travel as digit strings
        spec = words.ShiftSpec1D.with_forbidden(12, forbidden)
        assert words.ShiftSpec1D.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("r", [2, 3])
    def test_full_shift_has_one_form(self, r):
        forms = (words.ShiftSpec1D.full(r), words.ShiftSpec1D.with_forbidden(r, []),
                 words.ShiftSpec1D.from_json({"alphabet": r, "kind": "full"}))
        assert all(spec == forms[0] for spec in forms)
        assert [spec.automaton.n_states for spec in forms] == [1, 1, 1]
        assert forms[0].to_json() == {"alphabet": r, "kind": "forbidden", "forbidden": []}

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8))
    def test_word_string_round_trip(self, w):
        tup = tuple(w)
        assert words.word_from_str(words.word_to_str(tup)) == tup

    def test_alphabet_must_have_two_symbols(self):
        with pytest.raises(DomainError):
            words.ShiftSpec1D.full(1)

    @pytest.mark.parametrize("word", [[1.5], [True], ["1"], "1x", "\u0661", 11, None])
    def test_forbidden_word_of_no_symbols_is_refused(self, word):
        # a float, a bool, a non-ASCII digit: none spells a symbol
        with pytest.raises(DomainError, match="is neither a digit string nor a list of ints"):
            words.ShiftSpec1D.with_forbidden(2, [word])

    @pytest.mark.parametrize("kind", ["full", words.AT_MOST_K])
    def test_forbidden_words_on_another_kind_are_refused(self, kind):
        obj = {"alphabet": 2, "kind": kind, "symbol": 1, "count": 1, "forbidden": ["11"]}
        with pytest.raises(DomainError, match=f"forbidden: kind '{kind}' reads no forbidden words"):
            words.ShiftSpec1D.from_json(obj)
