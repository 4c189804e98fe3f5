"""Tests for adjacency-matrix trees, growth rates, and sink structure."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import trees, treeshifts, words
from shiftlab.errors import DeadEnd, DomainError, NotUnexpandable

COMB = trees.AdjacencyMatrix.comb()
BINARY = trees.AdjacencyMatrix.binary_tree()
IDENTITY = trees.AdjacencyMatrix.identity()
SWAP = trees.AdjacencyMatrix.swap()
GOLDEN_EDGE = trees.AdjacencyMatrix.from_rows(["11", "10"])


# irreducible blocks and their Perron roots
KNOWN_BLOCKS = [
    (["1"], 1.0),
    (["11", "11"], 2.0),
    (["111", "111", "111"], 3.0),
    (["11", "10"], (1 + 5 ** 0.5) / 2),
    (["010", "001", "100"], 1.0),  # the 3-cycle
    (["011", "100", "100"], 2 ** 0.5),  # the star, period 2
]


def walk_levels(matrix: trees.AdjacencyMatrix, n: int) -> list[list[str]]:
    """Brute-force vertex walk, level by level, as digit strings."""
    levels = [[""]]
    for _ in range(n):
        nxt = []
        for vid in levels[-1]:
            prev = int(vid[-1]) if vid else 0
            if prev == 0:
                allowed = range(1, matrix.d + 1)
            else:
                allowed = (
                    j + 1
                    for j in range(matrix.d)
                    if matrix.rows[prev - 1][j]
                )
            nxt.extend(vid + str(c) for c in allowed)
        levels.append(nxt)
    return levels


def decomposition_oracle(rows) -> tuple:
    """(order, blocks, sinks) of a 0/1 matrix, or ("refused", class) naming
    the first class, by smallest member, that is neither a loopless
    singleton nor a cycle.  Classes come from BFS reachability, and the
    order is the lexicographically smallest, by smallest member, of all
    class orders in which every edge points weakly forward."""
    d = len(rows)
    reach = []
    for i in range(d):
        seen, frontier = {i}, [i]
        while frontier:
            frontier = [j for k in frontier for j in range(d) if rows[k][j] and j not in seen]
            seen.update(frontier)
        reach.append(seen)
    classes = []
    for i in range(d):
        members = sorted(j for j in reach[i] if i in reach[j])
        if members[0] == i:
            classes.append(members)
    blocks = []
    for members in classes:
        if members == [members[0]] and not rows[members[0]][members[0]]:
            blocks.append((members[0] + 1,))
            continue
        inside = {g: [j for j in members if rows[g][j]] for g in members}
        if any(len(succ) != 1 for succ in inside.values()):
            return ("refused", {g + 1 for g in members})
        cycle = [members[0]]
        while len(cycle) < len(members):
            cycle.append(inside[cycle[-1]][0])
        blocks.append(tuple(g + 1 for g in cycle))

    def edge(a, b):
        return any(rows[i - 1][j - 1] for i in a for j in b)

    # permutations of the list sorted by smallest member come in lex order
    ordered = next(p for p in itertools.permutations(blocks)
                   if not any(edge(p[b], p[a]) for a in range(len(p)) for b in range(a + 1, len(p))))
    sinks = tuple(k for k, a in enumerate(ordered) if not any(edge(a, b) for b in ordered if b != a))
    return tuple(g for block in ordered for g in block), ordered, sinks


def small_matrices() -> st.SearchStrategy[trees.AdjacencyMatrix]:
    def build(bits, d):
        rows = []
        for i in range(d):
            row = [(bits >> (i * d + j)) & 1 for j in range(d)]
            if not any(row):
                row[i] = 1  # no dead ends
            rows.append("".join(str(b) for b in row))
        return trees.AdjacencyMatrix.from_rows(rows)

    return st.integers(min_value=2, max_value=3).flatmap(
        lambda d: st.builds(build, st.integers(0, 2 ** (d * d) - 1), st.just(d))
    )


class TestGeometry:
    def test_comb_level_sizes(self):
        assert trees.level_sizes(COMB, 6) == [1, 2, 3, 4, 5, 6, 7]

    def test_binary_level_sizes(self):
        assert trees.level_sizes(BINARY, 5) == [1, 2, 4, 8, 16, 32]

    def test_identity_level_sizes(self):
        assert trees.level_sizes(IDENTITY, 4) == [1, 2, 2, 2, 2]

    @given(m=small_matrices(), n=st.integers(0, 6))
    @settings(max_examples=50, deadline=None)
    def test_level_sizes_match_vertex_walk(self, m, n):
        levels = walk_levels(m, n)
        assert trees.level_sizes(m, n) == [len(level) for level in levels]

    @given(m=small_matrices(), n=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_level_vertices_match_walk_in_order(self, m, n):
        geo = trees.TreeGeometry(m)
        assert geo.level_vertices(n) == walk_levels(m, n)[n]

    def test_delta_size_sums_levels(self):
        geo = trees.TreeGeometry(COMB)
        assert geo.delta_size(3) == 1 + 2 + 3 + 4

    @given(
        m=small_matrices(),
        asks=st.lists(st.tuples(st.sets(st.integers(1, 3)), st.integers(0, 6)),
                      min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_type_counts_asked_out_of_order_match_walk(self, m, asks):
        geo = trees.TreeGeometry(m)
        levels = walk_levels(m, 6)
        for types, n in asks:
            types = {g for g in types if g <= m.d}
            want = [sum(1 for v in levels[k] if int(v[-1]) in types) for k in range(1, n + 1)]
            got = geo.type_counts(types, n)
            assert got == want
            got.append(-1)  # the caller's list, not the kept sums

    def test_vertex_membership(self):
        geo = trees.TreeGeometry(COMB)
        assert geo.is_vertex("")
        assert geo.is_vertex("122")
        assert not geo.is_vertex("21")  # comb has no edge 2 -> 1
        assert not geo.is_vertex("3")

    def test_vertex_ids_start_at_the_root_and_use_generator_digits(self):
        geo = trees.TreeGeometry(BINARY)
        assert geo.is_vertex("")
        assert geo.is_vertex("12") and geo.child_ids("12") == ["121", "122"]
        assert geo.child_ids("") == ["1", "2"]
        for vid in ("0", "10", "3", "13", "9"):
            assert not geo.is_vertex(vid)

    def test_walk_up_hands_each_step_its_childrens_tables(self):
        # a table is (height, the children's tables): child 1 of the comb's root is a spine vertex
        *_, root = COMB.geometry.walk_up(2, lambda kids, height: (height, kids))
        spine = (1, ((0, ()), (0, ())))
        assert root == (2, (spine, (1, ((0, ()),))))

    @pytest.mark.parametrize("value,symbols", [
        ("", ()), ("0912", (0, 9, 1, 2)), ([11, 0], (11, 0)), ((3,), (3,)), ([-1], (-1,)),
        ("1x", None), ("\u0661", None), ("1 ", None), ([1.5], None), ([True], None), (["1"], None),
        (7, None), (None, None), ({1: 1}, None),
    ])
    def test_read_digits(self, value, symbols):
        assert trees.read_digits(value) == symbols

    @pytest.mark.parametrize("rows", [["11", "12"], [[1, 1], [1, -1]], [["1", "1"], ["1", "1"]]])
    def test_bit_rows_hold_only_zeros_and_ones(self, rows):
        with pytest.raises(DomainError, match=r"tree row .*: entries must be 0 or 1"):
            trees.AdjacencyMatrix.from_rows(rows)

    def test_dead_end_rejected(self):
        with pytest.raises(DeadEnd):
            trees.AdjacencyMatrix.from_rows(["10", "00"])

    def test_json_round_trip(self):
        for m in (COMB, BINARY, IDENTITY, SWAP):
            assert trees.AdjacencyMatrix.from_json(m.to_json()) == m

    @pytest.mark.parametrize("rows", [((1.0, 1), (1, 1)), ((1, 1), (1, True))], ids=["float", "bool"])
    def test_entries_are_ints(self, rows):
        # 1.0 and True equal 1, but would write rows "1.01" and "1True"
        with pytest.raises(DomainError, match="matrix entries must be 0 or 1"):
            trees.AdjacencyMatrix(rows)

    @pytest.mark.parametrize("d", [2.0, True, "2"])
    def test_json_d_is_an_int(self, d):
        with pytest.raises(DomainError, match=f"tree d must be an integer, got {d!r}"):
            trees.AdjacencyMatrix.from_json({"d": d, "rows": ["1"] if d is True else ["11", "11"]})


class TestGrowth:
    def test_spectral_radii(self):
        assert trees.spectral_radius(COMB) == pytest.approx(1.0, abs=1e-9)
        assert trees.spectral_radius(BINARY) == pytest.approx(2.0, abs=1e-9)
        assert trees.spectral_radius(IDENTITY) == pytest.approx(1.0, abs=1e-9)
        assert trees.spectral_radius(GOLDEN_EDGE) == pytest.approx(
            (1 + 5 ** 0.5) / 2, abs=1e-9
        )

    def test_expanding_number_comb(self):
        res = trees.expanding_number(COMB, 40)
        assert not res.expandable
        assert res.spectral == pytest.approx(1.0, abs=1e-9)
        assert res.ratio_est == pytest.approx(1.0, abs=0.05)

    def test_expanding_number_binary(self):
        res = trees.expanding_number(BINARY, 20)
        assert res.expandable
        assert res.spectral == pytest.approx(2.0, abs=1e-9)
        assert res.ratio_est == pytest.approx(2.0, abs=1e-6)

    def test_spectral_reducible_dominant(self):
        # golden block feeding nothing plus an isolated self-loop; the
        # norm-ratio sequence repeats 3/2 early, long before settling at phi
        m = trees.AdjacencyMatrix.from_rows(["010", "110", "001"])
        assert trees.spectral_radius(m) == pytest.approx(
            (1 + 5 ** 0.5) / 2, abs=1e-9
        )

    def test_spectral_periodic_dominant(self):
        # bipartite with period 2: iteration on the matrix itself oscillates
        # forever, while on the class plus I it settles at sqrt(2) + 1
        m = trees.AdjacencyMatrix.from_rows(["011", "100", "100"])
        assert trees.spectral_radius(m) == pytest.approx(2 ** 0.5, abs=1e-9)

    @pytest.mark.parametrize("rows, root", [
        # two full 2 x 2 classes, the first feeding the second
        (["1110", "1100", "0011", "0011"], 2.0),
        # classes {1, 3, 5} and {2, 4}, both at phi, the second feeding the first
        (["00101", "11010", "10001", "01000", "10000"], (1 + 5 ** 0.5) / 2),
    ])
    def test_spectral_tied_classes(self, rows, root):
        # iteration on the whole matrix never settles when two classes tie
        m = trees.AdjacencyMatrix.from_rows(rows)
        assert trees.spectral_radius(m) == pytest.approx(root, abs=1e-9)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_spectral_is_the_largest_block_root(self, data):
        # block upper-triangular matrices from blocks of known Perron root,
        # with random forward couplings and a random relabeling
        picked = data.draw(st.lists(st.sampled_from(KNOWN_BLOCKS), min_size=1, max_size=3))
        d = sum(len(block) for block, _ in picked)
        owner = [b for b, (block, _) in enumerate(picked) for _ in block]
        rows = [[0] * d for _ in range(d)]
        offset = 0
        for block, _ in picked:
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    rows[offset + i][offset + j] = int(x)
            offset += len(block)
        for i in range(d):
            for j in range(d):
                if owner[i] < owner[j]:
                    rows[i][j] = data.draw(st.integers(0, 1))
        perm = data.draw(st.permutations(range(d)))
        relabeled = [[rows[perm[i]][perm[j]] for j in range(d)] for i in range(d)]
        m = trees.AdjacencyMatrix(tuple(map(tuple, relabeled)))
        want = max(root for _, root in picked)
        assert trees.spectral_radius(m) == pytest.approx(want, abs=1e-9)

    def test_periodic_cycle_class_is_unexpandable(self):
        # classes {1}, {2, 4, 3} (a 3-cycle) and nothing denser: the level
        # counts grow linearly, while their finite differences never vanish
        m = trees.AdjacencyMatrix.from_rows(["0001", "0001", "0010", "0110"])
        assert trees.level_sizes(m, 7) == [1, 4, 5, 7, 8, 10, 11, 13]
        assert not trees.is_expandable(m)
        assert trees.spectral_radius(m) == 1.0
        res = trees.expanding_number(m, 40)
        assert res.spectral == 1.0
        assert not res.expandable
        trees.sink_decomposition(m)  # a certificate exists

    @given(m=small_matrices())
    @settings(max_examples=30, deadline=None)
    def test_windowed_growth_tracks_spectral(self, m):
        # single-step ratios oscillate for periodic matrices, so compare
        # the spectral radius against a 24-step geometric mean of exact
        # counts; 24 is a multiple of every class period possible at d <= 3
        res = trees.expanding_number(m, 60)
        geo = trees.TreeGeometry(m)
        gm = (geo.level_size(84) / geo.level_size(60)) ** (1 / 24)
        if res.spectral == 1.0:
            # polynomial growth: the finite-window mean sits slightly above 1
            assert 1.0 - 1e-9 <= gm <= 1.1
            assert not res.expandable
        else:
            assert gm == pytest.approx(res.spectral, abs=1e-6)
            assert res.expandable


class TestSinkStructure:
    def test_comb_decomposition(self):
        d = trees.sink_decomposition(COMB)
        assert d.blocks == ((1,), (2,))
        assert d.order == (1, 2)
        assert d.sinks == (1,)
        assert d.sink_generators() == frozenset({2})

    def test_identity_decomposition(self):
        d = trees.sink_decomposition(IDENTITY)
        assert d.blocks == ((1,), (2,))
        assert d.sinks == (0, 1)

    def test_swap_decomposition(self):
        d = trees.sink_decomposition(SWAP)
        assert d.blocks == ((1, 2),)
        assert d.sinks == (0,)

    @staticmethod
    def _check_against_oracle(rows):
        want = decomposition_oracle(rows)
        m = trees.AdjacencyMatrix(rows)
        if want[0] == "refused":
            with pytest.raises(NotUnexpandable, match=re.escape(f"class {want[1]} is not a simple cycle")):
                trees.sink_decomposition(m)
        else:
            d = trees.sink_decomposition(m)
            assert (d.order, d.blocks, d.sinks) == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_small_matrix_matches_the_oracle(self, d):
        # every 0/1 matrix with no zero row: 1, 9 and 343 of them
        nonzero = [row for row in itertools.product((0, 1), repeat=d) if any(row)]
        for rows in itertools.product(nonzero, repeat=d):
            self._check_against_oracle(rows)

    @given(data=st.data(), d=st.integers(4, 5))
    @settings(max_examples=200, deadline=None)
    def test_larger_matrices_match_the_oracle(self, data, d):
        # rows of one or two edges keep about half the draws unexpandable
        cols = st.sets(st.integers(0, d - 1), min_size=1, max_size=2)
        picked = [data.draw(cols) for _ in range(d)]
        rows = tuple(tuple(int(j in row) for j in range(d)) for row in picked)
        self._check_against_oracle(rows)

    def test_expandable_matrix_rejected(self):
        with pytest.raises(NotUnexpandable):
            trees.sink_decomposition(BINARY)

    def test_blocks_partition_generators(self):
        for m in (COMB, IDENTITY, SWAP):
            d = trees.sink_decomposition(m)
            flat = [g for b in d.blocks for g in b]
            assert sorted(flat) == list(range(1, m.d + 1))

    def test_order_is_topological(self):
        for m in (COMB, IDENTITY, SWAP):
            d = trees.sink_decomposition(m)
            cls_of = {g: i for i, b in enumerate(d.blocks) for g in b}
            for i in range(m.d):
                for j in range(m.d):
                    if m.rows[i][j]:
                        assert cls_of[i + 1] <= cls_of[j + 1]

    def test_multi_vertex_blocks_are_cycles(self):
        d = trees.sink_decomposition(SWAP)
        (block,) = d.blocks
        for pos, g in enumerate(block):
            succ = block[(pos + 1) % len(block)]
            assert SWAP.rows[g - 1][succ - 1]

    def test_one_decomposition_per_matrix(self, monkeypatch):
        seen = []
        scc = trees._strongly_connected_classes
        monkeypatch.setattr(trees, "_strongly_connected_classes",
                            lambda m: seen.append(m.rows) or scc(m))
        # new objects: the decomposition is kept on the matrix
        comb = trees.AdjacencyMatrix.from_rows(["11", "01"])
        binary = trees.AdjacencyMatrix.from_rows(["11", "11"])
        ts = treeshifts.make_tree_shift(comb, words.ShiftSpec1D.golden_mean())
        for _ in range(3):
            assert not trees.is_expandable(comb)
            assert trees.sink_decomposition(comb).sink_generators() == {2}
            assert trees.sink_level_counts(comb, 4) == [1, 2, 3, 4, 5]
            assert trees.entering_counts(comb, 4) == [1, 1, 1, 1, 1]
            assert treeshifts.sink_lift(ts, [1]).sink_gens == {2}
            assert trees.is_expandable(binary)
            with pytest.raises(NotUnexpandable, match="not a simple cycle"):
                trees.sink_decomposition(binary)
            assert trees.expanding_number(binary, 3).expandable
        assert seen == [comb.rows, binary.rows]


class TestEnteringCounts:
    def test_comb_enters_once_per_level(self):
        assert trees.entering_counts(COMB, 3) == [1, 1, 1, 1]

    def test_identity_enters_at_root(self):
        assert trees.entering_counts(IDENTITY, 3) == [0, 0, 0, 2]

    def test_swap_enters_at_root(self):
        assert trees.entering_counts(SWAP, 3) == [0, 0, 0, 2]

    def test_nonnegative(self):
        for m in (COMB, IDENTITY, SWAP):
            for n in range(0, 12):
                assert all(a >= 0 for a in trees.entering_counts(m, n))

    def test_weighted_sum_counts_sink_vertices(self):
        # sum_l l * a_l telescopes to the number of sink-resident vertices
        # across levels 1..n+1
        for m in (COMB, IDENTITY, SWAP):
            gens = trees.sink_decomposition(m).sink_generators()
            for n in range(0, 8):
                a = trees.entering_counts(m, n)
                weighted = sum((l + 1) * a[l] for l in range(len(a)))
                levels = walk_levels(m, n + 1)
                resident = sum(
                    1
                    for level in levels[1:]
                    for v in level
                    if int(v[-1]) in gens
                )
                assert weighted == resident

    def test_comb_weighted_sum_is_delta_size(self):
        geo = trees.TreeGeometry(COMB)
        for n in range(0, 30):
            a = trees.entering_counts(COMB, n)
            assert sum((l + 1) * a[l] for l in range(len(a))) == geo.delta_size(n)

    def test_sink_level_counts_match_walk(self):
        for m in (COMB, IDENTITY, SWAP):
            gens = trees.sink_decomposition(m).sink_generators()
            levels = walk_levels(m, 7)
            want = [
                sum(1 for v in levels[k + 1] if int(v[-1]) in gens)
                for k in range(7)
            ]
            assert trees.sink_level_counts(m, 6) == want
