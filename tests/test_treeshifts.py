"""Tests for labelings of matrix trees: counting, entropy, independence."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlab import grids, trees, treeshifts, words
from shiftlab.errors import (
    CapExceeded,
    DeadSymbol,
    DomainError,
    EmptyBase,
    NotHereditary,
    NotUnexpandable,
    PreconditionViolated,
)

COMB = trees.AdjacencyMatrix.comb()
BINARY = trees.AdjacencyMatrix.binary_tree()
GOLDEN_TREE = trees.AdjacencyMatrix.from_rows(("11", "10"))
# the root's children (1, 2, 3) are those of no vertex type, so its table is not shared
CHAIN = trees.AdjacencyMatrix.from_rows(("110", "011", "001"))
FAN = trees.AdjacencyMatrix.from_rows(("111", "010", "001"))
TERNARY = trees.AdjacencyMatrix.from_rows(("111", "111", "111"))
TWO_OF_THREE = trees.AdjacencyMatrix.from_rows(("110", "011", "101"))
GOLDEN = words.ShiftSpec1D.golden_mean()
ATMOST = words.ShiftSpec1D.at_most_k(2, symbol=1, count=1)
MATRIX_A = [[1, 1], [0, 1]]

TS_COMB_GOLDEN = treeshifts.make_tree_shift(COMB, GOLDEN)
TS_COMB_ATMOST = treeshifts.make_tree_shift(COMB, ATMOST)
TS_BIN_A = treeshifts.make_tree_shift(BINARY, MATRIX_A)
TS_BIN_GOLDEN = treeshifts.make_tree_shift(BINARY, GOLDEN)
TS_BIN_FULL = treeshifts.make_tree_shift(BINARY, words.ShiftSpec1D.full(2))
TS_BIN_ZEROS = treeshifts.make_tree_shift(BINARY, words.ShiftSpec1D.zeros_only())


# ---------------------------------------------------------------------------
# oracle: filter every labeling of Delta_n by checking each root-to-leaf word


def _word_ok(ts: treeshifts.TreeShiftSpec, word: tuple[int, ...]) -> bool:
    spec = ts.base
    if spec.kind == words.FORBIDDEN:
        text = "".join(str(s) for s in word)
        return not any(
            words.word_to_str(f) in text for f in spec.forbidden
        )
    if spec.kind == words.AT_MOST_K:
        return word.count(spec.symbol) <= spec.count
    return True


def naive_patterns(ts: treeshifts.TreeShiftSpec, n: int) -> list[dict]:
    geo = trees.TreeGeometry(ts.matrix)  # not the spec's cached geometry
    verts = geo.vertices(n)
    leaves = geo.level_vertices(n)
    paths = [[leaf[:k] for k in range(n + 1)] for leaf in leaves]
    out = []
    for assign in itertools.product(range(ts.alphabet_size), repeat=len(verts)):
        lab = dict(zip(verts, assign))
        if all(
            _word_ok(ts, tuple(lab[v] for v in path)) for path in paths
        ):
            out.append(lab)
    return out


# ---------------------------------------------------------------------------
# random small tree shifts for the differential checks against the oracle


def _rows(bits: int, d: int) -> list[list[int]]:
    rows = [[(bits >> (i * d + j)) & 1 for j in range(d)] for i in range(d)]
    for i, row in enumerate(rows):
        if not any(row):
            row[i] = 1  # no dead ends, no dead symbols
    return rows


def _bases(r: int) -> st.SearchStrategy:
    word = st.lists(st.integers(0, r - 1), min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.lists(word, min_size=1, max_size=3, unique=True).map(
            lambda fs: words.ShiftSpec1D.with_forbidden(r, fs)
        ),
        st.builds(
            words.ShiftSpec1D.at_most_k, st.just(r), st.integers(0, r - 1), st.integers(0, 2)
        ),
        st.integers(0, 2 ** (r * r) - 1).map(lambda bits: _rows(bits, r)),
    )


@st.composite
def small_tree_shifts(draw):
    """A viable tree shift with d <= 3 and the largest depth n <= 3 the oracle can enumerate."""
    d = draw(st.integers(1, 3))
    tree = trees.AdjacencyMatrix.from_rows(
        ["".join(map(str, row)) for row in _rows(draw(st.integers(0, 2 ** (d * d) - 1)), d)]
    )
    base = draw(st.integers(2, 3).flatmap(_bases))
    try:
        ts = treeshifts.make_tree_shift(tree, base)
    except EmptyBase:
        assume(False)
    n = _oracle_depth(ts)
    assume(n)
    return ts, n


def _oracle_depth(ts: treeshifts.TreeShiftSpec) -> int | None:
    """The largest n <= 3 whose Delta_n the oracle can enumerate, if any."""
    geo = trees.TreeGeometry(ts.matrix)
    depths = [n for n in range(1, 4) if ts.alphabet_size ** geo.delta_size(n) <= 4096]
    return depths[-1] if depths else None


class TestCounting:
    def test_upper_triangular_recurrence(self):
        # c_0 = 2, then squares plus one
        c = [treeshifts.count_patterns(TS_BIN_A, n) for n in range(6)]
        assert c == [2, 5, 26, 677, 458330, 210066388901]
        assert treeshifts.count_series(TS_BIN_A, 5) == c
        for n in range(1, 6):
            assert c[n] == 1 + c[n - 1] ** 2

    def test_full_shift_counts_everything(self):
        geo = TS_BIN_FULL.geometry()
        for n in range(4):
            assert treeshifts.count_patterns(TS_BIN_FULL, n) == (
                2 ** geo.delta_size(n)
            )

    def test_full_step_matrix_has_one_state(self):
        # nothing forbidden: one shared history, as for the full word base
        full = treeshifts.make_tree_shift(BINARY, [[1, 1, 1]] * 3)
        assert full.automaton.n_states == 1
        assert TS_BIN_A.automaton.n_states == 3
        assert treeshifts.count_patterns(full, 2) == 3 ** 7

    def test_zeros_base_single_pattern(self):
        for n in range(5):
            assert treeshifts.count_patterns(TS_BIN_ZEROS, n) == 1

    @pytest.mark.parametrize(
        "ts,nmax",
        [(TS_COMB_GOLDEN, 4), (TS_COMB_ATMOST, 4), (TS_BIN_GOLDEN, 3), (TS_BIN_A, 3)],
    )
    def test_matches_naive_filter(self, ts, nmax):
        for n in range(nmax + 1):
            assert treeshifts.count_patterns(ts, n) == len(naive_patterns(ts, n))

    def test_empty_base_rejected(self):
        nothing = words.ShiftSpec1D.with_forbidden(2, ["00", "01", "10", "11"])
        with pytest.raises(EmptyBase):
            treeshifts.make_tree_shift(COMB, nothing)

    def test_dead_symbol_rejected(self):
        with pytest.raises(DeadSymbol):
            treeshifts.make_tree_shift(BINARY, [[1, 1], [0, 0]])

    def test_spec_json_round_trip(self):
        for ts in (TS_COMB_GOLDEN, TS_BIN_A):
            again = treeshifts.TreeShiftSpec.from_json(ts.to_json())
            assert again == ts

    def test_matrix_spec_reads_as_its_old_json_form(self):
        # the matrix form still parses, into the word base it stands for
        again = treeshifts.TreeShiftSpec.from_json({"tree": COMB.to_json(), "matrix": ["11", "01"]})
        assert again == treeshifts.make_tree_shift(COMB, words.ShiftSpec1D.with_forbidden(2, ["10"]))
        assert TS_BIN_A.to_json()["base"] == {"alphabet": 2, "kind": "forbidden", "forbidden": ["10"]}

    @pytest.mark.parametrize("rows", [[[1, True], [1, 1]], [[1, 1.0], [1, 1]]], ids=["bool", "float"])
    def test_non_bit_matrix_entry_rejected(self, rows):
        with pytest.raises(DomainError, match="matrix row"):
            treeshifts.make_tree_shift(BINARY, rows)


class TestMatrixBase:
    """A step matrix is read once into the word base forbidding its non-edges."""

    @given(r=st.integers(2, 3), bits=st.integers(0, 2 ** 9 - 1), tree=st.sampled_from([COMB, BINARY]))
    @settings(max_examples=60, deadline=None)
    def test_matrix_equals_its_word_base(self, r, bits, tree):
        rows = [[bits >> (r * s + t) & 1 for t in range(r)] for s in range(r)]
        assume(all(any(row) for row in rows))
        non_edges = [f"{s}{t}" for s in range(r) for t in range(r) if not rows[s][t]]
        from_matrix = treeshifts.make_tree_shift(tree, rows)
        from_words = treeshifts.make_tree_shift(tree, words.ShiftSpec1D.with_forbidden(r, non_edges))
        assert from_matrix == from_words
        assert treeshifts.count_series(from_matrix, 5) == treeshifts.count_series(from_words, 5)

    def test_golden_matrix_is_the_golden_mean(self):
        ts = treeshifts.make_tree_shift(COMB, [[1, 1], [1, 0]])
        assert ts == TS_COMB_GOLDEN
        positions = range(1, 40, 2)
        assert treeshifts.sink_lift(ts, positions) == treeshifts.sink_lift(TS_COMB_GOLDEN, positions)
        assert treeshifts.entropy_chain_series(ts, 20) == treeshifts.entropy_chain_series(TS_COMB_GOLDEN, 20)

    @pytest.mark.parametrize("tree", [COMB.geometry, COMB.rows, None])
    def test_tree_must_be_a_matrix(self, tree):
        # a geometry used to pass here and fail later with an AttributeError
        with pytest.raises(DomainError, match=f"tree matrix must be an AdjacencyMatrix, got {type(tree).__name__}"):
            treeshifts.make_tree_shift(tree, GOLDEN)


class TestTreeEntropy:
    def test_comb_golden_pinned(self):
        est = treeshifts.tree_entropy_est(TS_COMB_GOLDEN, 10)
        assert est.raw == pytest.approx(0.489, abs=2e-3)

    def test_tail_dominates_final(self):
        for ts in (TS_COMB_GOLDEN, TS_BIN_A, TS_BIN_FULL):
            est = treeshifts.tree_entropy_est(ts, 8)
            assert est.running_max_tail >= est.raw - 1e-12

    def test_upper_triangular_half_log_two(self):
        est = treeshifts.tree_entropy_est(TS_BIN_A, 6)
        assert est.raw >= 0.34
        assert est.raw == pytest.approx(0.5 * math.log(2), abs=0.07)

    def test_zeros_base_zero(self):
        assert treeshifts.tree_entropy_est(TS_BIN_ZEROS, 6).raw == 0.0

    def test_counts_are_the_pattern_counts(self):
        for ts in (TS_COMB_GOLDEN, TS_BIN_A, TS_BIN_ZEROS, TS_COMB_ATMOST):
            est = treeshifts.tree_entropy_est(ts, 7)
            assert est.counts == tuple(treeshifts.count_patterns(ts, m) for m in range(8))
            assert est.counts[:3] == tuple(len(naive_patterns(ts, m)) for m in range(3))


class TestSurfaceEntropy:
    def test_upper_triangular_level_two(self):
        res = treeshifts.surface_entropy_est(TS_BIN_A, 2)
        assert res.count == 16

    def test_binary_golden_level_three(self):
        assert treeshifts.surface_entropy_est(TS_BIN_GOLDEN, 3).count == 256

    def test_zeros_base_is_rigid(self):
        res = treeshifts.surface_entropy_est(TS_BIN_ZEROS, 4)
        assert res.count == 1
        assert res.raw == 0.0

    @pytest.mark.parametrize(
        "ts,nmax",
        [(TS_COMB_GOLDEN, 4), (TS_BIN_A, 3), (TS_BIN_GOLDEN, 3)],
    )
    def test_matches_leaf_projection_oracle(self, ts, nmax):
        geo = ts.geometry()
        series = treeshifts.surface_series(ts, nmax)
        for n in range(1, nmax + 1):
            leaves = geo.level_vertices(n)
            got = treeshifts.surface_entropy_est(ts, n)
            want = {
                tuple(lab[v] for v in leaves) for lab in naive_patterns(ts, n)
            }
            assert got.count == len(want) == series[n]

    @given(case=small_tree_shifts())
    @settings(max_examples=100, deadline=None)
    def test_random_specs_match_leaf_projection_oracle(self, case):
        ts, n = case
        leaves = ts.geometry().level_vertices(n)
        want = {tuple(lab[v] for v in leaves) for lab in naive_patterns(ts, n)}
        assert treeshifts.surface_entropy_est(ts, n).count == len(want)

    def test_never_exceeds_pattern_count(self):
        for ts in (TS_COMB_GOLDEN, TS_BIN_A, TS_BIN_GOLDEN):
            for n in range(1, 6):
                assert (
                    treeshifts.surface_entropy_est(ts, n).count
                    <= treeshifts.count_patterns(ts, n)
                )


class TestIndependence:
    def test_restriction_counts_match_oracle(self):
        n = 3
        geo = TS_COMB_GOLDEN.geometry()
        verts = geo.vertices(n)
        pats = naive_patterns(TS_COMB_GOLDEN, n)
        for k in (1, 2, 3):
            for S in itertools.combinations(verts, k):
                want = len({tuple(lab[v] for v in S) for lab in pats})
                assert treeshifts.distinct_restrictions(TS_COMB_GOLDEN, S, n) == want

    @given(case=small_tree_shifts(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_specs_match_oracle(self, case, data):
        ts, n = case
        verts = ts.geometry().vertices(n)
        S = data.draw(st.lists(st.sampled_from(verts), unique=True, max_size=6))
        pats = naive_patterns(ts, n)
        assert treeshifts.count_patterns(ts, n) == len(pats)
        want = len({tuple(lab[v] for v in S) for lab in pats})
        assert treeshifts.distinct_restrictions(ts, S, n) == want

    def test_is_indep_matches_oracle(self):
        n = 3
        geo = TS_BIN_A.geometry()
        verts = geo.vertices(n)
        pats = naive_patterns(TS_BIN_A, n)
        for k in (1, 2):
            for S in itertools.combinations(verts, k):
                want = len({tuple(lab[v] for v in S) for lab in pats}) == 2 ** k
                assert treeshifts.is_indep_tree(TS_BIN_A, S, n) == want

    def test_empty_set_independent(self):
        assert treeshifts.is_indep_tree(TS_COMB_GOLDEN, [], 3)

    def test_chain_is_dependent_for_upper_triangular(self):
        # the root forces its whole subtree once it reads 1
        assert not treeshifts.is_indep_tree(TS_BIN_A, ["", "1"], 2)

    def test_antichain_pair_independent(self):
        assert treeshifts.is_indep_tree(TS_BIN_A, ["1", "2"], 2)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(DomainError):
            treeshifts.is_indep_tree(TS_COMB_GOLDEN, ["21"], 3)


def _subsets(verts):
    return itertools.chain.from_iterable(itertools.combinations(verts, k) for k in range(len(verts) + 1))


def _is_antichain(S) -> bool:
    return not any(v.startswith(u) for u, v in itertools.permutations(S, 2))


def _census_by_subsets(ts: treeshifts.TreeShiftSpec, n: int) -> dict:
    """The census by brute force: ``is_indep_tree`` on every vertex set of Delta_n."""
    want: dict = {}
    for S in _subsets(ts.geometry().vertices(n)):
        key = (treeshifts.is_indep_tree(ts, S, n), _is_antichain(S))
        want[key] = want.get(key, 0) + 1
    return want


class TestSubsetCensus:
    def test_antichain_law_on_delta_three(self):
        census = treeshifts.subset_census(TS_BIN_A, 3)
        assert census == {(True, True): 677, (False, False): 32091}

    def test_support_steps_stay_few(self, monkeypatch):
        # tables keyed by support hold at most three entries here, so the
        # fold and the step make 30 + 18 calls; keying by class map took
        # 1,192 class-map steps, and 632 once shared children paired off
        calls = []
        for name in ("_support_step", "_node_step"):
            step = getattr(treeshifts, name)
            monkeypatch.setattr(treeshifts, name, lambda *args, step=step: calls.append(1) or step(*args))
        census = treeshifts.subset_census(treeshifts.make_tree_shift(BINARY, MATRIX_A), 3)
        assert census == {(True, True): 677, (False, False): 32091}
        assert len(calls) <= 48

    @pytest.mark.parametrize("n, independent", [(4, 458330), (5, 210066388901)])
    def test_upper_triangular_census_follows_its_closed_form(self, n, independent):
        # independent sets are the antichains, and their number satisfies
        # A(n) = A(n - 1)^2 + 1 from A(3) = 677: an antichain of Delta_n is
        # the root alone or a pair of antichains of the two subtrees
        a = 677
        for _ in range(n - 3):
            a = a * a + 1
        assert a == independent
        census = treeshifts.subset_census(treeshifts.make_tree_shift(BINARY, MATRIX_A), n)
        total = 2 ** BINARY.geometry.delta_size(n)
        assert census == {(True, True): a, (False, False): total - a}

    @pytest.mark.parametrize("tree, base, n", [
        (TERNARY, GOLDEN, 1),
        (TERNARY, GOLDEN, 2),
        (TERNARY, MATRIX_A, 2),
        (FAN, GOLDEN, 2),
        (GOLDEN_TREE, MATRIX_A, 3),
        (GOLDEN_TREE, ATMOST, 3),
    ])
    def test_matches_subset_loop_where_children_share_tables(self, tree, base, n):
        # a ternary vertex's three children share one table: the first two
        # take each unordered pair once, the third every entry
        ts = treeshifts.make_tree_shift(tree, base)
        assert treeshifts.subset_census(ts, n) == _census_by_subsets(ts, n)

    @given(
        tree=st.sampled_from([BINARY, COMB, CHAIN]),
        base=st.integers(2, 3).flatmap(_bases),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_loop(self, tree, base):
        try:
            ts = treeshifts.make_tree_shift(tree, base)
        except EmptyBase:
            assume(False)
        census = treeshifts.subset_census(ts, 2)
        assert census == _census_by_subsets(ts, 2)
        assert sum(census.values()) == 2 ** len(ts.geometry().vertices(2))

    def test_widest_table_is_capped(self, monkeypatch):
        # the widest census table of Delta_3 has 3 entries: (support, has a
        # pin, antichain) takes few values, and every dependent set is DEAD
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 3)
        assert treeshifts.subset_census(TS_BIN_A, 3)[True, True] == 677
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 2)
        with pytest.raises(CapExceeded, match="CLASS_CAP = 2 entries"):
            treeshifts.subset_census(treeshifts.make_tree_shift(BINARY, MATRIX_A), 3)

    def test_ternary_census_finishes(self):
        # 2^40 vertex sets of Delta_3 on the ternary tree, every one counted
        census = treeshifts.subset_census(treeshifts.make_tree_shift(TERNARY, GOLDEN), 3)
        assert sum(census.values()) == 2 ** 40

    def test_ternary_census_past_the_cap_fails_fast(self, monkeypatch):
        # the widest table of this census has 6 entries; the fold is capped
        # after each child, so the census stops before it holds more than a
        # few capped tables
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 5)
        ts = treeshifts.make_tree_shift(TERNARY, GOLDEN)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="CLASS_CAP = 5 entries"):
                treeshifts.subset_census(ts, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6  # bytes

    def test_class_maps_name_their_cap(self, monkeypatch):
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 1)
        ts = treeshifts.make_tree_shift(BINARY, GOLDEN)
        with pytest.raises(CapExceeded, match="class dictionary exceeded CLASS_CAP = 1 entries"):
            treeshifts.surface_entropy_est(ts, 2)


class TestRestrictionMemo:
    """The memo on a base's automaton serves every later call, on any tree over that base."""

    def _check_warm_calls(self, case, data, walks_first):
        ts, n = case
        base = ts.base
        # the same base on another tree: nothing cached for one spec may leak
        # into the other's answers
        twin = treeshifts.make_tree_shift(BINARY if ts.matrix == COMB else COMB, base)
        specs = [(ts, n), (twin, _oracle_depth(twin))]
        patterns: dict = {}

        def oracle(i, m):
            if (i, m) not in patterns:
                patterns[i, m] = naive_patterns(specs[i][0], m)
            return patterns[i, m]

        def walks():
            # the support-keyed steps share the memo with the class-map steps
            for i, (spec, top) in enumerate(specs):
                verts = trees.TreeGeometry(spec.matrix).vertices(top)
                est = treeshifts.max_indep_series(spec, top)[top]
                assert tuple(sorted(est.witness.ids)) == _lex_first_max(spec, oracle(i, top), verts)
                want: dict = {}
                for S in _subsets(trees.TreeGeometry(spec.matrix).vertices(1)):
                    restrictions = len({tuple(lab[v] for v in S) for lab in oracle(i, 1)})
                    key = (restrictions == spec.alphabet_size ** len(S), _is_antichain(S))
                    want[key] = want.get(key, 0) + 1
                assert treeshifts.subset_census(spec, 1) == want

        def counts():
            for i in range(8):
                spec, top = specs[i % 2]
                m = data.draw(st.integers(0, top))
                geo = trees.TreeGeometry(spec.matrix)
                S = data.draw(st.lists(st.sampled_from(geo.vertices(m)), unique=True, max_size=6))
                want = len({tuple(lab[v] for v in S) for lab in oracle(i % 2, m)})
                assert treeshifts.distinct_restrictions(spec, S, m) == want
                leaves = geo.level_vertices(m)
                want = len({tuple(lab[v] for v in leaves) for lab in oracle(i % 2, m)})
                assert treeshifts.surface_series(spec, m)[m] == want

        for check in (walks, counts) if walks_first else (counts, walks):
            check()

    @pytest.mark.parametrize("walks_first", [True, False], ids=["walks-first", "counts-first"])
    @given(case=small_tree_shifts(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_warm_memo_matches_oracle_across_specs(self, walks_first, case, data):
        self._check_warm_calls(case, data, walks_first)

    @pytest.mark.parametrize("walks_first", [True, False], ids=["walks-first", "counts-first"])
    @given(case=small_tree_shifts(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tiny_memo_bound_keeps_counts_exact(self, walks_first, case, data):
        with mock.patch.object(treeshifts, "MEMO_CAP", 2):
            self._check_warm_calls(case, data, walks_first)

    @pytest.mark.parametrize(
        "pins,message",
        [
            (["21"], "'21' is not a vertex of this tree"),
            (["1a"], "'1a' is not a vertex of this tree"),
            (["1111"], "vertex '1111' lies below depth 3"),
            (["1", "21"], "'21' is not a vertex of this tree"),
            (["1" * 10**5], f"vertex {'1' * 10**5!r} lies below depth 3"),
            # a non-ASCII digit names no vertex; it used to be ignored as a pin
            (["\u0661"], "'\u0661' is not a vertex of this tree"),
        ],
        ids=["non-vertex", "non-digit", "below-depth", "mixed", "far-below-depth", "non-ascii-digit"],
    )
    def test_invalid_pins_raise_on_cold_and_warm_memo(self, pins, message):
        ts = treeshifts.make_tree_shift(COMB, GOLDEN)
        for _ in range(2):
            for check in (treeshifts.distinct_restrictions, treeshifts.is_indep_tree):
                with pytest.raises(DomainError) as err:
                    check(ts, pins, 3)
                assert str(err.value) == message
            treeshifts.max_indep_est(ts, 3)  # warms the memo for the second round
        assert treeshifts.distinct_restrictions(ts, ["1", "12"], 3) == 3

    def test_invalid_pin_raises_before_the_walk_gives_up(self, monkeypatch):
        # a fresh base, so its automaton's memo starts cold and the capped walk runs
        ts = treeshifts.make_tree_shift(COMB, words.ShiftSpec1D.golden_mean())
        with pytest.raises(DomainError, match="'21' is not a vertex"):
            treeshifts.distinct_restrictions(ts, ["21"], 5000)  # deeper than the recursion limit
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 0)
        with pytest.raises(CapExceeded):
            treeshifts.distinct_restrictions(ts, ["1"], 3)
        with pytest.raises(DomainError, match="'21' is not a vertex"):
            treeshifts.distinct_restrictions(ts, ["1", "21"], 3)

    def test_memo_stays_within_its_bound_on_a_long_run(self, monkeypatch):
        alternating = words.ShiftSpec1D.with_forbidden(2, ["00", "11"])
        want = treeshifts.max_indep_est(treeshifts.make_tree_shift(COMB, alternating), 10)
        assert want.size == 1  # the root's label fixes every other one
        # a fresh base, so the bounded memo fills from empty
        alternating = words.ShiftSpec1D.with_forbidden(2, ["00", "11"])
        sizes = []
        remember = treeshifts._remember

        def spy(memo, key, value):
            out = remember(memo, key, value)
            sizes.append(len(memo))
            return out

        monkeypatch.setattr(treeshifts, "MEMO_CAP", 8)
        monkeypatch.setattr(treeshifts, "_remember", spy)
        got = treeshifts.max_indep_est(treeshifts.make_tree_shift(COMB, alternating), 10)
        assert got == want
        assert max(sizes) == 8
        assert sizes.count(1) > 1  # the memo filled up and was cleared

    def test_valid_pins_far_below_the_recursion_limit(self):
        assert treeshifts.distinct_restrictions(TS_COMB_GOLDEN, ["1", "12"], 5000) == 3

    def test_memo_keys_do_not_depend_on_the_tree(self):
        # two trees over one base share its automaton's memo, so a key that
        # named a vertex type or height would answer for the wrong tree
        base = words.ShiftSpec1D.golden_mean()
        comb, binary = (treeshifts.make_tree_shift(m, base) for m in (COMB, BINARY))
        for ts in (comb, binary, comb):
            treeshifts.count_patterns(ts, 4)
            treeshifts.surface_entropy_est(ts, 4)
            treeshifts.subset_census(ts, 2)
            treeshifts.distinct_restrictions(ts, ["1", "12", "2"], 6)
            treeshifts.max_indep_est(ts, 4)
        memo = base.automaton.memo
        assert comb.automaton is binary.automaton and memo
        assert _memo_shapes(memo) == {"lift", "class map", "support"}
        # a grid row shift's memo, after is_indep_2d, holds label-tuple pins too
        spec = grids.ShiftSpec2D.hard_square()
        grids.is_indep_2d(spec, grids.GridPositionSet.of([(1, 1), (2, 3), (3, 2)]), 3, 3)
        memo = grids._window(spec, 3, 3)[0].automaton.memo
        assert _memo_shapes(memo) == {"lift", "class map"}
        assert any(type(key[0]) is int and isinstance(key[1], tuple) for key in memo)


def _is_pin(pin) -> bool:
    """True, False or a nonempty tuple of labels, none of them a class map or a support."""
    return type(pin) is bool or isinstance(pin, tuple) and pin != () and not any(
        isinstance(label, frozenset) for label in pin)


def _memo_shapes(memo: dict) -> set:
    """The kinds of key in a class DP memo, each key checked for its shape."""
    shapes = set()
    for key in memo:
        assert type(key) is tuple and len(key) == 2, key
        first, second = key
        if type(first) is int:  # (a tolerated-state mask, a pin)
            assert first >= 0 and _is_pin(second), key
            shapes.add("lift")
        elif isinstance(second, tuple):  # (pin, the children's class maps)
            assert _is_pin(first) and all(isinstance(kid, frozenset) for kid in second), key
            shapes.add("class map")
        else:  # (support, support) for a product, (pin, support) for a step
            assert isinstance(first, frozenset) or _is_pin(first), key
            assert isinstance(second, frozenset) and all(type(mask) is int for mask in second), key
            shapes.add("support")
    return shapes


class TestPinLabels:
    """A pin labels the symbols: True and False are the tuples of all labels distinct and all equal."""

    @given(base=st.integers(2, 3).flatmap(_bases), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_label_tuples_step_as_true_and_false(self, base, data):
        try:
            auto = treeshifts.make_tree_shift(COMB, base).automaton
        except EmptyBase:
            assume(False)
        r = auto.size
        masks = st.integers(1, auto.all_states)
        classes = data.draw(st.dictionaries(masks, st.integers(1, 5), min_size=1, max_size=4))
        support = data.draw(st.frozensets(masks, min_size=1, max_size=4))
        path = data.draw(st.lists(st.booleans(), max_size=6))
        labels = {True: tuple(range(r)), False: (0,) * r}
        for pinned in (True, False):
            assert treeshifts._lift(classes, auto, labels[pinned]) == treeshifts._lift(classes, auto, pinned)
            assert (treeshifts._support_step(auto, labels[pinned], support)
                    == treeshifts._support_step(auto, pinned, support))
        assert treeshifts._walk(auto, [labels[p] for p in path]) == treeshifts._walk(auto, path)


class TestDensity:
    def test_vertex_set_count_matches_members(self):
        vs = treeshifts.VertexSet.of(["", "1", "12", "122"])
        geo = TS_COMB_GOLDEN.geometry()
        for n in range(4):
            assert vs.count_in(geo, n) == len(vs.members_in(geo, n))

    def test_level_parity_counts(self):
        lp = treeshifts.LevelParity(0)
        geo = TS_COMB_GOLDEN.geometry()
        # even levels of the comb have sizes 1, 3, 5, ...
        assert lp.count_in(geo, 4) == 1 + 3 + 5
        assert lp.count_in(geo, 4) == len(lp.members_in(geo, 4))

    def test_ratios_are_exact_fractions(self):
        dens = treeshifts.tree_density(
            treeshifts.LevelParity(1), TS_COMB_GOLDEN.geometry(), range(2, 9)
        )
        assert all(isinstance(r, Fraction) for r in dens.ratios)
        assert dens.upper >= dens.lower

    def test_counts_are_the_members_per_depth(self):
        geo = TS_COMB_GOLDEN.geometry()
        depths = range(1, 8, 2)
        for vset in (treeshifts.LevelParity(1), treeshifts.VertexSet.of(["", "1", "12", "122"]),
                     treeshifts.sink_lift(TS_COMB_GOLDEN, [1, 3, 4])):
            dens = treeshifts.tree_density(vset, geo, depths)
            assert dens.counts == tuple(len(vset.members_in(geo, n)) for n in depths)
            assert dens.ratios == tuple(
                Fraction(c, geo.delta_size(n)) for c, n in zip(dens.counts, depths))

    def test_ray_vertices(self):
        vs = treeshifts.ray_vertices(2, 3)
        assert vs.ids == frozenset({"2", "22", "222"})

    @pytest.mark.parametrize(
        "ids,name", [(["21", "3", "x"], "21"), (["1", "x"], "x"), (["12", "1a"], "1a")]
    )
    def test_non_vertex_ids_rejected(self, ids, name):
        vs = treeshifts.VertexSet.of(ids)
        geo = TS_COMB_GOLDEN.geometry()
        for query in (vs.count_in, vs.members_in):
            with pytest.raises(DomainError) as err:
                query(geo, 3)
            assert str(err.value) == f"{name!r} is not a vertex of this tree"


class TestSinkLift:
    def test_pinned_members_at_depth_three(self):
        lift = treeshifts.sink_lift(TS_COMB_GOLDEN, [1, 3])
        geo = TS_COMB_GOLDEN.geometry()
        assert lift.members_in(geo, 3) == frozenset({"2", "12", "112", "222"})

    def test_members_on_a_two_cycle_sink(self):
        # the sink {2, 3} is a 2-cycle, and rays enter it at every level
        ts = treeshifts.make_tree_shift(trees.AdjacencyMatrix.from_rows(("110", "001", "010")), GOLDEN)
        lift = treeshifts.sink_lift(ts, [1, 2])
        assert lift.members_in(ts.geometry(), 3) == frozenset(
            {"2", "23", "3", "32", "12", "123", "112"}
        )
        assert lift.count_in(ts.geometry(), 3) == 7

    @pytest.mark.parametrize(
        "rows", [("11", "01"), ("111", "010", "001"), ("110", "011", "001")],
        ids=["comb", "fan", "chain"],
    )
    def test_cached_count_matches_members(self, rows):
        ts = treeshifts.make_tree_shift(trees.AdjacencyMatrix.from_rows(rows), GOLDEN)
        lift = treeshifts.sink_lift(ts, [1, 2, 4, 7])
        geo = ts.geometry()
        # deeper depths grow the cached level counts, shallower ones reuse them
        for n in [0, 1, 2, 5, 9, 3, 1, 8]:
            assert lift.count_in(geo, n) == len(lift.members_in(geo, n))

    def test_level_vectors_built_once_per_matrix(self, monkeypatch):
        # a fresh matrix, so its geometry starts at level 1
        comb = trees.AdjacencyMatrix.comb()
        ts = treeshifts.make_tree_shift(comb, GOLDEN)
        built = []
        extend = trees.TreeGeometry._extend
        monkeypatch.setattr(
            trees.TreeGeometry, "_extend", lambda geo: built.append(len(geo._vectors) + 1) or extend(geo)
        )
        lift = treeshifts.sink_lift(ts, range(1, 62, 2))
        geo = ts.geometry()
        dens = treeshifts.tree_density(lift, geo, range(30, 61, 2))
        for m in range(1, 25):
            trees.entering_counts(comb, m)
        assert built == list(range(2, 61))
        assert dens.ratios[0] == Fraction(lift.count_in(geo, 30), geo.delta_size(30))
        assert built == list(range(2, 61))

    def test_count_matches_members(self):
        lift = treeshifts.sink_lift(TS_COMB_GOLDEN, range(1, 20, 2))
        geo = TS_COMB_GOLDEN.geometry()
        for n in range(1, 13):
            assert lift.count_in(geo, n) == len(lift.members_in(geo, n))

    def test_odd_positions_density_near_half(self):
        lift = treeshifts.sink_lift(TS_COMB_GOLDEN, range(1, 202, 2))
        dens = treeshifts.tree_density(
            lift, TS_COMB_GOLDEN.geometry(), range(100, 201, 10)
        )
        assert abs(dens.upper - Fraction(1, 2)) <= Fraction(1, 50)
        assert abs(dens.lower - Fraction(1, 2)) <= Fraction(1, 50)

    def test_full_base_all_positions_density_one(self):
        ts = treeshifts.make_tree_shift(COMB, words.ShiftSpec1D.full(2))
        lift = treeshifts.sink_lift(ts, range(1, 202))
        dens = treeshifts.tree_density(
            lift, ts.geometry(), range(100, 201, 10)
        )
        assert dens.lower >= Fraction(49, 50)

    def test_empty_positions_empty_lift(self):
        lift = treeshifts.sink_lift(TS_COMB_GOLDEN, [])
        assert lift.count_in(TS_COMB_GOLDEN.geometry(), 10) == 0

    def test_lifted_set_is_independent(self):
        # thm1 asks once, on Delta_10, for this set; each truncation on its own
        lift = treeshifts.sink_lift(TS_COMB_GOLDEN, range(1, 26, 2))
        geo = TS_COMB_GOLDEN.geometry()
        for n in range(1, 11):
            S = lift.members_in(geo, n)
            assert treeshifts.is_indep_tree(TS_COMB_GOLDEN, S, n)

    def test_expandable_tree_rejected(self):
        with pytest.raises(NotUnexpandable):
            treeshifts.sink_lift(TS_BIN_GOLDEN, [1])

    def test_matrix_base_rejected(self):
        ts = treeshifts.make_tree_shift(COMB, MATRIX_A)
        with pytest.raises(NotHereditary):
            treeshifts.sink_lift(ts, [1])

    def test_raised_base_rejected(self):
        ts = treeshifts.make_tree_shift(
            COMB, words.ShiftSpec1D.with_forbidden(2, ["10"])
        )
        with pytest.raises(NotHereditary):
            treeshifts.sink_lift(ts, [1])

    @pytest.mark.parametrize(
        "base",
        [words.ShiftSpec1D.at_most_k(2, symbol=0, count=6),
         words.ShiftSpec1D.with_forbidden(2, ["0000000"])],
        ids=["at-most-6-zeros", "no-seven-zeros"],
    )
    def test_bases_failing_past_length_six_rejected(self, base):
        # every word of length <= 6 lowers safely; lowering a 1 of 0001000 does not
        ts = treeshifts.make_tree_shift(COMB, base)
        with pytest.raises(NotHereditary):
            treeshifts.sink_lift(ts, [1])

    def test_hereditary_bases_lift(self):
        for base in (GOLDEN, ATMOST):
            lift = treeshifts.sink_lift(treeshifts.make_tree_shift(COMB, base), [1, 3])
            assert lift.positions == (1, 3)

    def test_staircase_matrix_lifts(self):
        # 111/110/100 forbids 12, 21 and 22: lowering any label keeps a word admissible
        ts = treeshifts.make_tree_shift(COMB, [[1, 1, 1], [1, 1, 0], [1, 0, 0]])
        lift = treeshifts.sink_lift(ts, [1, 3])
        assert lift.positions == (1, 3)
        assert treeshifts.is_indep_tree(ts, lift.members_in(ts.geometry(), 6), 6)


class TestBipSearch:
    def test_catalog_at_depth_six(self):
        for ts in (TS_BIN_FULL, TS_BIN_A, TS_BIN_GOLDEN):
            res = treeshifts.bip_search(ts, 1, 6)
            assert res is not None
            assert len(res.S_n) == 64
            assert res.ratio == Fraction(64, 127)

    def test_zeros_base_has_no_witness(self):
        assert treeshifts.bip_search(TS_BIN_ZEROS, 1, 6) is None

    @pytest.mark.parametrize("rows", [[[0, 1], [1, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]])
    @pytest.mark.parametrize("n, l", [(6, 1), (5, 2)])
    def test_dependent_leaves_keep_one_vertex(self, rows, n, l):
        # a cyclic step: the root's label fixes every other, so no two
        # vertices are independent and the greedy pass keeps the first leaf
        ts = treeshifts.make_tree_shift(BINARY, rows)
        assert treeshifts.count_patterns(ts, n) == len(rows)
        res = treeshifts.bip_search(ts, l, n)
        assert res is not None
        assert res.S_n.ids == frozenset({"1" * n})
        assert res.ratio == Fraction(1, ts.geometry().delta_size(n))
        assert not res.certified
        assert treeshifts.is_indep_tree(ts, res.S_n.ids, n)

    def test_unexpandable_tree_rejected(self):
        with pytest.raises(PreconditionViolated):
            treeshifts.bip_search(TS_COMB_GOLDEN, 1, 6)

    def test_small_window_is_certified_exact(self):
        res = treeshifts.bip_search(TS_BIN_A, 1, 4)
        assert res is not None
        assert res.certified
        assert len(res.S_n) == 16
        assert res.ratio == Fraction(16, 31)

    def test_witness_is_independent_and_in_boundary(self):
        res = treeshifts.bip_search(TS_BIN_A, 2, 4)
        assert res is not None
        assert treeshifts.is_indep_tree(TS_BIN_A, res.S_n.ids, 4)
        assert all(len(v) >= 3 for v in res.S_n.ids)

    def test_witness_forces_pattern_count(self):
        for ts in (TS_BIN_A, TS_BIN_GOLDEN):
            res = treeshifts.bip_search(ts, 1, 5)
            count = treeshifts.count_patterns(ts, 5)
            assert count >= 2 ** len(res.S_n)

    def test_certified_matches_exhaustive_oracle(self):
        # boundary = level 2 of the binary tree, four vertices, brute force
        n, l = 2, 1
        res = treeshifts.bip_search(TS_BIN_A, l, n)
        geo = TS_BIN_A.geometry()
        boundary = geo.level_vertices(2)
        pats = naive_patterns(TS_BIN_A, n)
        best = 0
        for k in range(len(boundary), 0, -1):
            for S in itertools.combinations(boundary, k):
                proj = {tuple(lab[v] for v in S) for lab in pats}
                if len(proj) == 2 ** k:
                    best = k
                    break
            if best:
                break
        assert res is not None and res.certified
        assert len(res.S_n) == best


class TestMaxIndepEstimate:
    def test_budget_base_pinned_ratios(self):
        got = [
            treeshifts.max_indep_est(TS_COMB_ATMOST, n).ratio for n in range(1, 6)
        ]
        assert got == [
            Fraction(2, 3),
            Fraction(1, 2),
            Fraction(2, 5),
            Fraction(1, 3),
            Fraction(2, 7),
        ]
        # deeper down the maximum is still the leaf level, n + 1 vertices
        sizes = [treeshifts.max_indep_est(TS_COMB_ATMOST, n).size for n in (12, 24, 40)]
        assert sizes == [13, 25, 41]

    def test_certified_flag_and_bound(self):
        # oracle: Delta_n is covered by its |T_n| root-to-leaf rays, and an
        # independent set meets each in a set independent on the window [1, n + 1]
        geo = TS_COMB_ATMOST.geometry()
        for n in range(1, 8):
            est = treeshifts.max_indep_est(TS_COMB_ATMOST, n)
            assert est.certified
            assert est.size <= geo.level_size(n) * words.max_indep_J(ATMOST, n + 1).J

    def test_certified_is_brute_force_max(self):
        n = 3
        est = treeshifts.max_indep_est(TS_COMB_ATMOST, n)
        assert est.certified
        geo = TS_COMB_ATMOST.geometry()
        verts = geo.vertices(n)
        pats = naive_patterns(TS_COMB_ATMOST, n)
        best = 0
        for k in range(len(verts), 0, -1):
            for S in itertools.combinations(verts, k):
                proj = {tuple(lab[v] for v in S) for lab in pats}
                if len(proj) == 2 ** k:
                    best = k
                    break
            if best:
                break
        assert est.size == best

    def test_witness_verifies(self):
        est = treeshifts.max_indep_est(TS_COMB_ATMOST, 4)
        assert treeshifts.is_indep_tree(TS_COMB_ATMOST, est.witness.ids, 4)

    def test_comb_golden_maxima(self):
        # the leaf level alone gives 7 and 11
        series = treeshifts.max_indep_series(TS_COMB_GOLDEN, 10)
        assert [series[n].size for n in (6, 10)] == [16, 36]
        assert series[10] == treeshifts.max_indep_est(TS_COMB_GOLDEN, 10)
        assert treeshifts.is_indep_tree(TS_COMB_GOLDEN, series[10].witness.ids, 10)


def _lex_first_max(ts, patterns, candidates) -> tuple[str, ...]:
    """Oracle: the largest candidate subset whose projections reach all r^k
    assignments, the lex-first one among those over sorted ids."""
    for k in range(len(candidates), -1, -1):
        for S in itertools.combinations(sorted(candidates), k):
            if len({tuple(lab[v] for v in S) for lab in patterns}) == ts.alphabet_size ** k:
                return S
    return ()


class TestPinSetWalk:
    @given(
        tree=st.sampled_from([BINARY, COMB, GOLDEN_TREE, CHAIN]),
        base=st.integers(2, 3).flatmap(_bases),
        n=st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_combinations_oracle(self, tree, base, n):
        try:
            ts = treeshifts.make_tree_shift(tree, base)
        except EmptyBase:
            assume(False)
        self._check_against_oracle(ts, n)

    @given(tree=st.sampled_from([COMB, CHAIN, GOLDEN_TREE, TERNARY, TWO_OF_THREE]),
           base=st.integers(2, 3).flatmap(_bases))
    @settings(max_examples=60, deadline=None)
    def test_matches_combinations_oracle_at_the_oracle_depth(self, tree, base):
        # n = 3 on the comb and the golden tree over two symbols, lower
        # elsewhere; on the ternary and two-of-three trees every child of a
        # vertex folds into one partial support
        try:
            ts = treeshifts.make_tree_shift(tree, base)
        except EmptyBase:
            assume(False)
        n = _oracle_depth(ts)
        assume(n)
        self._check_against_oracle(ts, n)

    def test_pinned_vertex_sorts_first(self):
        # "12" pinned and "12" free over a pinned "122" reach one class map,
        # as do "2" and "222"; a walk that kept the free vertex there would
        # answer ("111", "112", "122", "222"), which is as large
        patterns = naive_patterns(TS_COMB_ATMOST, 3)
        want = _lex_first_max(TS_COMB_ATMOST, patterns, TS_COMB_ATMOST.geometry().vertices(3))
        assert want == ("111", "112", "12", "2")
        est = treeshifts.max_indep_est(TS_COMB_ATMOST, 3)
        assert tuple(sorted(est.witness.ids)) == want

    def test_proper_prefix_sorts_after(self):
        # ("1", "11", "2") and ("1", "2", "21") reach one class map at the
        # root.  At vertex "1", ("1",) is a proper prefix of ("1", "11");
        # ranking it first would keep ("1", "2", "21") there and answer
        # ("1", "11", "21"), which is as large
        ts = treeshifts.make_tree_shift(GOLDEN_TREE, words.ShiftSpec1D.with_forbidden(2, ["000", "110", "011"]))
        verts = trees.TreeGeometry(GOLDEN_TREE).vertices(2)
        want = _lex_first_max(ts, naive_patterns(ts, 2), [v for v in verts if v])
        assert want == ("1", "11", "2")
        res = treeshifts.bip_search(ts, 2, 2)
        assert res.certified
        assert tuple(sorted(res.S_n.ids)) == want

    @staticmethod
    def _check_against_oracle(ts, n):
        tree = ts.matrix
        verts = trees.TreeGeometry(tree).vertices(n)
        patterns = naive_patterns(ts, n)
        want = _lex_first_max(ts, patterns, verts)
        est = treeshifts.max_indep_est(ts, n)
        assert est.certified
        assert (est.size, tuple(sorted(est.witness.ids))) == (len(want), want)
        if not trees.is_expandable(tree):
            return  # the boundary search needs an expanding tree
        for l in (1, 2):
            want = _lex_first_max(ts, patterns, [v for v in verts if len(v) > n - l])
            res = treeshifts.bip_search(ts, l, n)
            if not want:
                assert res is None
                continue
            assert res.certified
            assert tuple(sorted(res.S_n.ids)) == want

    @pytest.mark.parametrize("tree", [TERNARY, TWO_OF_THREE])
    @pytest.mark.parametrize("base, members", [
        (words.ShiftSpec1D.full(2), lambda geo, n: geo.vertices(n)),
        (MATRIX_A, lambda geo, n: geo.level_vertices(n)),
    ])
    def test_products_past_the_old_class_cap_finish(self, tree, base, members):
        # keyed by class map, these products outgrew CLASS_CAP from n = 4 or
        # 5; the answers are known: on the full shift every vertex, and on
        # the upper-triangular step, where the independent sets are the
        # antichains, the leaf level, the one largest antichain
        ts = treeshifts.make_tree_shift(tree, base)
        geo = trees.TreeGeometry(tree)
        series = treeshifts.max_indep_series(ts, 5)
        for n in (4, 5):
            assert series[n].witness.ids == frozenset(members(geo, n))
        assert treeshifts.max_indep_sizes(ts, 5) == [est.size for est in series]

    def test_tree_walk_names_the_class_cap(self, monkeypatch):
        # the widest table of this walk has 5 entries
        ts = treeshifts.make_tree_shift(TERNARY, [[0, 1, 0], [0, 1, 1], [1, 0, 0]])
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 5)
        assert treeshifts.max_indep_est(ts, 4).size == 28
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 4)
        with pytest.raises(CapExceeded, match="CLASS_CAP = 4 entries"):
            treeshifts.max_indep_est(ts, 4)


class TestEntropyChain:
    def test_holds_on_pinned_depths(self):
        for n in (2, 6, 10):
            chain = treeshifts.entropy_chain(TS_COMB_GOLDEN, n)
            assert chain.holds
            assert chain.lhs >= chain.rhs - 1e-12

    def test_sink_weight_is_delta_size(self):
        geo = TS_COMB_GOLDEN.geometry()
        for n in (2, 5, 9):
            chain = treeshifts.entropy_chain(TS_COMB_GOLDEN, n)
            assert chain.sink_weight == geo.delta_size(n - 1)

    @pytest.mark.parametrize("tree", [COMB, FAN, CHAIN], ids=["comb", "fan", "chain"])
    @pytest.mark.parametrize("base", [GOLDEN, ATMOST, words.ShiftSpec1D.at_most_k(3, 0, 2)],
                             ids=["golden", "at-most-1", "at-most-2-of-3"])
    def test_series_matches_per_depth_oracle(self, tree, base):
        # the per-depth computation: one count, one Fekete bound and one
        # entering-count vector for each depth
        ts = treeshifts.make_tree_shift(tree, base)
        geo = ts.geometry()
        series = treeshifts.entropy_chain_series(ts, 30)
        assert len(series) == 31
        for m in range(1, 31):
            lhs = math.log(treeshifts.count_patterns(ts, m)) / geo.delta_size(m)
            fekete = words.entropy_est_1d(base, m).fekete_upper
            weight = sum(l * a for l, a in enumerate(trees.entering_counts(tree, m - 1), start=1))
            rhs = fekete * weight / geo.delta_size(m)
            want = treeshifts.EntropyChain(lhs=lhs, rhs=rhs, sink_weight=weight,
                                           holds=lhs >= rhs - 1e-12,
                                           count=treeshifts.count_patterns(ts, m))
            assert series[m] == want, m
        assert series[0] == treeshifts.EntropyChain(
            lhs=math.log(treeshifts.count_patterns(ts, 0)), rhs=0.0, sink_weight=0, holds=True,
            count=treeshifts.count_patterns(ts, 0))
        for m in (1, 7, 30):
            assert treeshifts.entropy_chain(ts, m) == series[m]

    def test_series_rejects_what_the_chain_rejects(self):
        with pytest.raises(DomainError):
            treeshifts.entropy_chain_series(TS_COMB_GOLDEN, -1)
        with pytest.raises(NotUnexpandable):
            treeshifts.entropy_chain_series(TS_BIN_GOLDEN, 3)


GOLDEN_TREE_MATRIX = trees.AdjacencyMatrix.from_rows(["11", "10"])
TEN_GENERATORS = trees.AdjacencyMatrix.from_rows(["1" * 10] * 10)


def _greedy_over_delta(ts: treeshifts.TreeShiftSpec, n: int) -> frozenset[str] | None:
    """The greedy pass over all of Delta_n, leaves first, each level in lex order."""
    geo = ts.geometry()
    leaves = geo.level_vertices(n)
    boundary = [vid for k in range(n, -1, -1) for vid in geo.level_vertices(k)]
    chosen = list(leaves) if treeshifts.is_indep_tree(ts, leaves, n) else []
    for vid in boundary[len(chosen):]:
        if treeshifts.is_indep_tree(ts, chosen + [vid], n):
            chosen.append(vid)
    return frozenset(chosen) or None


class TestGeometryOwnsIds:
    @pytest.mark.parametrize("walker", [
        treeshifts.count_series, treeshifts.surface_series, treeshifts.subset_census,
        treeshifts.max_indep_series, treeshifts.max_indep_sizes,
    ])
    def test_walkers_refuse_negative_depth(self, walker):
        with pytest.raises(DomainError) as err:
            walker(TS_BIN_GOLDEN, -1)
        assert str(err.value) == "depth must be >= 0"

    def test_ten_generators_count_but_list_no_ids(self):
        ts = treeshifts.make_tree_shift(TEN_GENERATORS, GOLDEN)
        assert treeshifts.count_series(ts, 1) == [2, 2 ** 10 + 1]  # root 0 frees every child
        message = "digit vertex ids support at most 9 generators"
        for query in (lambda: ts.geometry().level_vertices(1), lambda: treeshifts.max_indep_sizes(ts, 1)):
            with pytest.raises(DomainError) as err:
                query()
            assert str(err.value) == message

    @pytest.mark.parametrize("ts", [TS_BIN_A, TS_BIN_GOLDEN, treeshifts.make_tree_shift(GOLDEN_TREE_MATRIX, GOLDEN)])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_boundary_deeper_than_the_tree_is_all_of_delta(self, ts, n):
        whole = treeshifts.bip_search(ts, n + 1, n)
        for extra in (2, 5):
            assert treeshifts.bip_search(ts, n + extra, n) == whole
        if whole.certified:
            assert len(whole.S_n) == treeshifts.max_indep_est(ts, n).size
        else:
            assert whole.S_n.ids == _greedy_over_delta(ts, n)

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("matrix", [COMB, BINARY, GOLDEN_TREE_MATRIX])
    def test_level_parity_members_filter_the_vertices(self, matrix, parity):
        geo = matrix.geometry
        for n in range(6):
            want = frozenset(vid for vid in geo.vertices(n) if len(vid) % 2 == parity)
            assert treeshifts.LevelParity(parity).members_in(geo, n) == want
