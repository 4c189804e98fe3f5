"""Library refusals: each bad argument raises its own error type with its full text."""

from __future__ import annotations

from fractions import Fraction

import pytest

from shiftlab import grids, harness, shatter, trees, treeshifts, words
from shiftlab.errors import ConfigError, DomainError

HARD_SQUARE = grids.ShiftSpec2D.hard_square()
CHECKERBOARD = grids.GridPositionSet.checkerboard()
FAMILY = shatter.BinaryFamily.from_words(["000", "101", "111"])
GOLDEN = words.ShiftSpec1D.golden_mean()
BINARY = trees.AdjacencyMatrix.binary_tree()
COMB = trees.AdjacencyMatrix.comb()
COMB_GOLDEN = treeshifts.make_tree_shift(COMB, GOLDEN)


def _golden_report() -> harness.Report:
    return harness.run_config(harness.ExperimentConfig("entropy1d", {"spec": GOLDEN.to_json(), "n": 2}))


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
    "shatter-not-binary": (lambda: shatter.BinaryFamily.from_words(["012"]), "word '012' is not binary"),
    "shatter-no-words": (lambda: shatter.BinaryFamily.from_words([]), "family needs words of positive length"),
    "shatter-tail-n": (lambda: shatter.entropy_tail_bound(0, Fraction(1, 4)), "tail bound needs n >= 1"),
    "shatter-index": (lambda: shatter.is_shattered(FAMILY, [4]), "index 4 outside [1, 3]"),
    "shatter-witness-size": (lambda: shatter.extract_shattered(FAMILY, -1), "witness size must be >= 0"),
    "trees-type-counts": (lambda: BINARY.geometry.type_counts({1}, -1), "depth must be >= 0"),
    "trees-delta-size": (lambda: BINARY.geometry.delta_size(-1), "depth must be >= 0"),
    "trees-level-sizes": (lambda: trees.level_sizes(BINARY, -1), "depth must be >= 0"),
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
    "treeshifts-ray-position": (lambda: treeshifts.sink_lift(COMB_GOLDEN, [0, 1]), "ray positions are 1-based"),
    "treeshifts-boundary": (lambda: treeshifts.bip_search(COMB_GOLDEN, 0, 3), "boundary depth must be >= 1"),
    "treeshifts-scan-n": (lambda: treeshifts.max_indep_est(COMB_GOLDEN, 0), "scan needs n >= 1"),
    "treeshifts-chain-n": (lambda: treeshifts.entropy_chain(COMB_GOLDEN, 0), "chain check needs n >= 1"),
    "words-counts-length": (lambda: words.block_counts(GOLDEN, -1), "length must be >= 0"),
    "words-blocks-length": (lambda: words.blocks_1d(GOLDEN, -1), "length must be >= 0"),
    "words-indep-length": (lambda: words.is_indep_1d(GOLDEN, [], -1), "length must be >= 0"),
    "words-entropy-n": (lambda: words.entropy_est_1d(GOLDEN, 0), "entropy estimate needs n >= 1"),
    "words-hereditary-n": (lambda: words.is_hereditary_upto(GOLDEN, 0), "hereditary check needs n >= 1"),
}
CONFIG_ERRORS = {
    "harness-target": (lambda: harness.run_config(harness.ExperimentConfig("nope", {})),
                       "target: unknown target 'nope'"),
    "harness-format": (lambda: harness.emit_report(_golden_report(), "xml"),
                       "format: expected json or csv, got 'xml'"),
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
