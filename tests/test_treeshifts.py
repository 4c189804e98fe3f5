"""Tests for labelings of matrix trees: counting, entropy, independence."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlab import trees, treeshifts, words
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
    if ts.base is not None:
        spec = ts.base
        if spec.kind == words.FORBIDDEN:
            text = "".join(str(s) for s in word)
            return not any(
                words.word_to_str(f) in text for f in spec.forbidden
            )
        if spec.kind == words.AT_MOST_K:
            return word.count(spec.symbol) <= spec.count
        return True
    return all(ts.step_matrix[a][b] for a, b in zip(word, word[1:]))


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


class TestRestrictionMemo:
    """Each spec's memo serves every later call on it and no other spec."""

    def _check_warm_calls(self, case, data):
        ts, n = case
        base = ts.base if ts.base is not None else [list(row) for row in ts.step_matrix]
        # the same base on another tree: nothing cached for one spec may leak
        # into the other's answers
        twin = treeshifts.make_tree_shift(BINARY if ts.matrix == COMB else COMB, base)
        specs = [(ts, n), (twin, _oracle_depth(twin))]
        patterns: dict = {}
        for i in range(8):
            spec, top = specs[i % 2]
            m = data.draw(st.integers(0, top))
            verts = trees.TreeGeometry(spec.matrix).vertices(m)
            S = data.draw(st.lists(st.sampled_from(verts), unique=True, max_size=6))
            if (i % 2, m) not in patterns:
                patterns[i % 2, m] = naive_patterns(spec, m)
            want = len({tuple(lab[v] for v in S) for lab in patterns[i % 2, m]})
            assert treeshifts.distinct_restrictions(spec, S, m) == want

    @given(case=small_tree_shifts(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_warm_memo_matches_oracle_across_specs(self, case, data):
        self._check_warm_calls(case, data)

    @given(case=small_tree_shifts(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tiny_memo_bound_keeps_counts_exact(self, case, data):
        with mock.patch.object(treeshifts, "MEMO_CAP", 2):
            self._check_warm_calls(case, data)

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
        ts = treeshifts.make_tree_shift(COMB, GOLDEN)
        with pytest.raises(DomainError, match="'21' is not a vertex"):
            treeshifts.distinct_restrictions(ts, ["21"], 5000)  # deeper than the recursion limit
        monkeypatch.setattr(treeshifts, "CLASS_CAP", 0)
        with pytest.raises(CapExceeded):
            treeshifts.distinct_restrictions(ts, ["1"], 3)
        with pytest.raises(DomainError, match="'21' is not a vertex"):
            treeshifts.distinct_restrictions(ts, ["1", "21"], 3)

    def test_memo_stays_within_its_bound_on_a_long_greedy_run(self, monkeypatch):
        alternating = words.ShiftSpec1D.with_forbidden(2, ["00", "11"])
        want = treeshifts.max_indep_est(treeshifts.make_tree_shift(COMB, alternating), 10)
        assert want.size == 1  # the leaf level is dependent, so the greedy search ran
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

    def test_ray_vertices(self):
        vs = treeshifts.ray_vertices(2, 3)
        assert vs.ids == frozenset({"2", "22", "222"})


class TestSinkLift:
    def test_pinned_members_at_depth_three(self):
        lift = treeshifts.sink_lift(TS_COMB_GOLDEN, [1, 3])
        geo = TS_COMB_GOLDEN.geometry()
        assert lift.members_in(geo, 3) == frozenset({"2", "12", "112", "222"})

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
        lift = treeshifts.sink_lift(TS_COMB_GOLDEN, range(1, 26, 2))
        geo = TS_COMB_GOLDEN.geometry()
        for n in range(1, 9):
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


class TestBipSearch:
    def test_catalog_at_depth_six(self):
        for ts in (TS_BIN_FULL, TS_BIN_A, TS_BIN_GOLDEN):
            res = treeshifts.bip_search(ts, 1, 6)
            assert res is not None
            assert len(res.S_n) == 64
            assert res.ratio == Fraction(64, 127)

    def test_zeros_base_has_no_witness(self):
        assert treeshifts.bip_search(TS_BIN_ZEROS, 1, 6) is None

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

    def test_certified_flag_and_bound(self):
        for n in range(1, 8):
            est = treeshifts.max_indep_est(TS_COMB_ATMOST, n)
            assert est.size <= est.upper_bound
            assert est.certified == (est.size == est.upper_bound)

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
