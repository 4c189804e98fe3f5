"""Library refusals: each bad argument raises its own error type with its full text."""

from __future__ import annotations

from fractions import Fraction

import pytest

from shiftlab import grids, harness, shatter, trees, treeshifts, words
from shiftlab.errors import CapExceeded, ConfigError, DomainError

HARD_SQUARE = grids.ShiftSpec2D.hard_square()
CHECKERBOARD = grids.GridPositionSet.checkerboard()
FAMILY = shatter.BinaryFamily.from_words(["000", "101", "111"])
GOLDEN = words.ShiftSpec1D.golden_mean()
BINARY = trees.AdjacencyMatrix.binary_tree()
COMB = trees.AdjacencyMatrix.comb()
COMB_GOLDEN = treeshifts.make_tree_shift(COMB, GOLDEN)
BINARY_GOLDEN = treeshifts.make_tree_shift(BINARY, GOLDEN)


def _golden_report() -> harness.Report:
    return harness.run_config(harness.ExperimentConfig("entropy1d", {"spec": GOLDEN.to_json(), "n": 2}))


def _sink_lift_density(positions) -> harness.Report:
    params = {"tree": {"d": 2, "rows": ["11", "01"]}, "base": GOLDEN.to_json(),
              "set": {"generator": "sink_lift", "positions": positions}, "n_range": [2, 4, 2]}
    return harness.run_config(harness.ExperimentConfig("density", params))


def _listed_density(ids) -> harness.Report:
    params = {"tree": COMB.to_json(), "base": GOLDEN.to_json(), "set": ids, "n_range": [2, 4, 2]}
    return harness.run_config(harness.ExperimentConfig("density", params))


# id -> (the call, the text of the DomainError it raises)
DOMAIN_ERRORS = {
    "grids-row-widths": (lambda: grids.pattern_from_rows(["11", "1"]), "pattern rows must share one width"),
    "grids-no-rows": (lambda: grids.pattern_from_rows([]), "patterns must be nonempty"),
    "grids-count-side": (lambda: grids.count_blocks_2d(HARD_SQUARE, 0, 2), "block sides must be >= 1"),
    "grids-series-length": (lambda: grids.max_symbol_series(HARD_SQUARE, 2, -1), "length must be >= 0"),
    "grids-kmax": (lambda: grids.max_symbol_windows(HARD_SQUARE, 1, 0), "kmax must be >= 1"),
    "grids-entropy-side": (lambda: grids.entropy_est_2d(HARD_SQUARE, 0, 2), "entropy estimate needs sides >= 1"),
    "grids-target": (lambda: grids.prefix_regular_block(HARD_SQUARE, 2, 2, 1, Fraction(3, 2)),
                     "target 3/2 outside [0, 1]"),
    "grids-generator": (lambda: grids.GridPositionSet.from_json({"generator": "spiral"}),
                        "unknown position generator 'spiral'"),
    "grids-no-windows": (lambda: grids.upper_density_grid(CHECKERBOARD, []), "window list must be nonempty"),
    "grids-window-side": (lambda: grids.upper_density_grid(CHECKERBOARD, [(0, 2)]), "window sides must be >= 1"),
    # positions are read by trees.read_ints: ints only, never truncated, and no bool
    "grids-cell-float": (lambda: grids.GridPositionSet.of([(1.5, 2.9)]), "grid cell 1.5 is not an integer"),
    "grids-cell-bool": (lambda: grids.GridPositionSet.from_json({"cells": [[True, "2"]]}),
                        "grid cell True is not an integer"),
    "grids-cell-arity": (lambda: grids.GridPositionSet.of([(1, 2, 3)]),
                         "grid cell (1, 2, 3): expected a row and a column"),
    # a list of cells is read by trees.read_list before each cell is read
    "grids-cells-int": (lambda: grids.GridPositionSet.of(5), "grid cells: expected a list of cells, got 5"),
    "grids-cells-json": (lambda: grids.GridPositionSet.from_json({"cells": 5}),
                         "grid cells: expected a list of cells, got 5"),
    "shatter-not-binary": (lambda: shatter.BinaryFamily.from_words(["012"]), "word '012' is not binary"),
    "shatter-no-words": (lambda: shatter.BinaryFamily.from_words([]), "family needs words of positive length"),
    "shatter-tail-n": (lambda: shatter.entropy_tail_bound(0, Fraction(1, 4)), "tail bound needs n >= 1"),
    "shatter-index": (lambda: shatter.is_shattered(FAMILY, [4]), "index 4 outside [1, 3]"),
    "shatter-index-float": (lambda: shatter.is_shattered(FAMILY, [1.5]), "index 1.5 is not an integer"),
    "shatter-witness-size": (lambda: shatter.extract_shattered(FAMILY, -1), "witness size must be >= 0"),
    "trees-type-counts": (lambda: BINARY.geometry.type_counts({1}, -1), "depth must be >= 0"),
    "trees-delta-size": (lambda: BINARY.geometry.delta_size(-1), "depth must be >= 0"),
    "trees-sink-levels": (lambda: trees.sink_level_counts(COMB, -1), "depth must be >= 0"),
    "trees-entering": (lambda: trees.entering_counts(COMB, -1), "depth must be >= 0"),
    "trees-level-size": (lambda: BINARY.geometry.level_size(-1), "level must be >= 0"),
    "trees-expanding-n": (lambda: trees.expanding_number(BINARY, 1), "expanding-number estimate needs n >= 2"),
    "treeshifts-entropy-n": (lambda: treeshifts.tree_entropy_est(COMB_GOLDEN, 0), "entropy estimate needs n >= 1"),
    "treeshifts-surface-n": (lambda: treeshifts.surface_entropy_est(COMB_GOLDEN, 0),
                             "surface estimate needs n >= 1"),
    "treeshifts-no-depths": (lambda: treeshifts.tree_density(treeshifts.LevelParity(0), COMB.geometry, []),
                             "depth range must be nonempty"),
    "treeshifts-pin-depth": (lambda: treeshifts.distinct_restrictions(COMB_GOLDEN, [], -1), "depth must be >= 0"),
    # vertex ids are read by trees.read_ids: strings only, so the int 11 never names vertex "11"
    "treeshifts-count-int-id": (lambda: treeshifts.distinct_restrictions(COMB_GOLDEN, [1], 3),
                                "vertex id 1 is not a string"),
    "treeshifts-indep-int-id": (lambda: treeshifts.is_indep_tree(COMB_GOLDEN, [11], 3),
                                "vertex id 11 is not a string"),
    "treeshifts-vertex-set-ids": (lambda: treeshifts.VertexSet.of([11, 1.5]), "vertex id 11 is not a string"),
    "treeshifts-vertex-set-json": (lambda: treeshifts.VertexSet.from_json(5),
                                   "vertex id: expected a list of strings, got 5"),
    "treeshifts-vertex-set-string": (lambda: treeshifts.VertexSet.of("12"),
                                     "vertex id: expected a list of strings, got '12'"),
    "treeshifts-ray-position": (lambda: treeshifts.sink_lift(COMB_GOLDEN, [0, 1]), "ray positions are 1-based"),
    "treeshifts-ray-float": (lambda: treeshifts.sink_lift(COMB_GOLDEN, [1.7, 3]), "ray position 1.7 is not an integer"),
    "treeshifts-ray-list": (lambda: treeshifts.sink_lift(COMB_GOLDEN, None),
                            "ray position: expected a list of integers, got None"),
    "treeshifts-boundary": (lambda: treeshifts.bip_search(COMB_GOLDEN, 0, 3), "boundary depth must be >= 1"),
    "treeshifts-scan-n": (lambda: treeshifts.max_indep_est(COMB_GOLDEN, 0), "scan needs n >= 1"),
    "treeshifts-chain-n": (lambda: treeshifts.entropy_chain(COMB_GOLDEN, 0), "chain check needs n >= 1"),
    "words-counts-length": (lambda: words.block_counts(GOLDEN, -1), "length must be >= 0"),
    "words-blocks-length": (lambda: words.blocks_1d(GOLDEN, -1), "length must be >= 0"),
    "words-indep-length": (lambda: words.is_indep_1d(GOLDEN, [], -1), "length must be >= 0"),
    "words-indep-float": (lambda: words.is_indep_1d(words.ShiftSpec1D.full(2), [1.5], 3),
                          "position 1.5 is not an integer"),
    "words-indep-bool": (lambda: words.is_indep_1d(words.ShiftSpec1D.full(2), [True], 3),
                         "position True is not an integer"),
    "words-indep-string": (lambda: words.is_indep_1d(words.ShiftSpec1D.full(2), "12", 3),
                           "position: expected a list of integers, got '12'"),
    "words-entropy-n": (lambda: words.entropy_est_1d(GOLDEN, 0), "entropy estimate needs n >= 1"),
    "words-hereditary-n": (lambda: words.is_hereditary_upto(GOLDEN, 0), "hereditary check needs n >= 1"),
}
CONFIG_ERRORS = {
    "harness-target": (lambda: harness.run_config(harness.ExperimentConfig("nope", {})),
                       "target: unknown target 'nope'"),
    "harness-format": (lambda: harness.emit_report(_golden_report(), "xml"),
                       "format: expected json or csv, got 'xml'"),
    # a listed vertex set's errors name the field, as its generators' do
    "harness-vertex-id-int": (lambda: _listed_density(["1", 2]), "set: vertex id 2 is not a string"),
    "harness-vertex-not-a-vertex": (lambda: _listed_density(["21"]), "set: '21' is not a vertex of this tree"),
    "harness-ray-bool": (lambda: _sink_lift_density([1, True]), "set.positions: ray position True is not an integer"),
    "harness-ray-zero": (lambda: _sink_lift_density([0]), "set.positions: ray positions are 1-based"),
}
CASES = [pytest.param(call, error, text, id=name)
         for error, cases in ((DomainError, DOMAIN_ERRORS), (ConfigError, CONFIG_ERRORS))
         for name, (call, text) in cases.items()]


@pytest.mark.parametrize("call,error,text", CASES)
def test_refusal_raises_its_type_and_text(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == text


def test_census_counts_over_the_bit_cap_are_refused(monkeypatch):
    # the census splits the 2^|Delta_n| vertex sets of Delta_n, and |Delta_n| = 2^(n+1) - 1
    # on the binary tree: at most 4,095 bits at n = 11 and 8,191 at n = 12
    monkeypatch.setenv("SHIFTLAB_CAP", "4096")
    census = treeshifts.subset_census(BINARY_GOLDEN, 11)
    assert sum(census.values()) == 2 ** 4095
    assert max(census.values()).bit_length() == 4095
    for call in (treeshifts.subset_census, treeshifts.count_patterns):
        with pytest.raises(CapExceeded) as info:
            call(BINARY_GOLDEN, 12)
        assert str(info.value) == "a count over SHIFTLAB_CAP = 4096 bits"


def test_products_are_refused_before_they_pass_the_bit_cap():
    # nonzero factors of b_1 .. b_k bits multiply to at least b_1 + ... + b_k - k + 1
    # bits, which powers of two meet: 2^7 * 2^8 = 2^15 has 8 + 9 - 1 = 16 bits
    treeshifts._refuse_product([2 ** 7, 2 ** 8], 16)
    treeshifts._refuse_product([2 ** 7 + 1, 2 ** 8 - 1, 1], 16)
    with pytest.raises(CapExceeded) as info:
        treeshifts._refuse_product([2 ** 7, 2 ** 8], 15)
    assert str(info.value) == "a count over SHIFTLAB_CAP = 15 bits"
    # a zero factor makes the product 0, however long the other factors are
    treeshifts._refuse_product([2 ** 7, 0, 2 ** 8], 15)
    treeshifts._refuse_product([0, 1 << 10_000], 1)


@pytest.mark.parametrize("forbidden, bits", [
    ([], 16),  # the full shift: 2^15 labelings of the 15 vertices of Delta_3
    ([(1, 0), (1, 1)], 9),  # 1 only on the 8 leaves: below a 1 every product is 0
])
def test_tree_counts_of_exactly_the_cap_bits_pass(monkeypatch, forbidden, bits):
    ts = treeshifts.make_tree_shift(BINARY, words.ShiftSpec1D.with_forbidden(2, forbidden))
    monkeypatch.setenv("SHIFTLAB_CAP", str(bits))
    assert treeshifts.count_series(ts, 3)[-1].bit_length() == bits
    monkeypatch.setenv("SHIFTLAB_CAP", str(bits - 1))
    with pytest.raises(CapExceeded) as info:
        treeshifts.count_series(ts, 3)
    assert str(info.value) == f"a count over SHIFTLAB_CAP = {bits - 1} bits"


def test_tree_counts_are_refused_before_they_are_multiplied(monkeypatch):
    # each level about squares these counts, so the first depth past the cap
    # would form products of about twice the cap's bits: none may be formed
    base = words.ShiftSpec1D.with_forbidden(2, [(1, 1, 1), (1, 1, 0), (0, 1, 1)])
    ts = treeshifts.make_tree_shift(BINARY, base)
    limit = 1 << 16
    monkeypatch.setenv("SHIFTLAB_CAP", str(limit))
    formed = []
    prod = treeshifts.math.prod
    monkeypatch.setattr(treeshifts.math, "prod", lambda factors: formed.append(prod(factors)) or formed[-1])
    with pytest.raises(CapExceeded) as info:
        treeshifts.tree_entropy_est(ts, 40)
    assert str(info.value) == f"a count over SHIFTLAB_CAP = {limit} bits"
    assert formed and max(formed).bit_length() <= limit
