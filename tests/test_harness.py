"""Tests for experiment configs, report emission, and the CLI."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import pytest

from shiftlab import cli, grids, harness, trees, treeshifts, words
from shiftlab.errors import ConfigError

GOLDEN_CFG = {
    "target": "entropy1d",
    "spec": {"kind": "forbidden", "alphabet": 2, "forbidden": ["11"]},
    "n": 3,
}
DENSITY_CFG = {
    "target": "density",
    "tree": {"d": 2, "rows": ["11", "01"]},
    "base": {"kind": "forbidden", "alphabet": 2, "forbidden": ["11"]},
    "set": {"generator": "level_parity", "parity": 1},
    "n_range": [2, 8, 2],
}
TREE_CFG = {"target": "tree-entropy", "tree": {"d": 2, "rows": ["11", "11"]}, "matrix": ["11", "10"], "n": 3}
HARD_SQUARE_JSON = {
    "alphabet": 2,
    "forbidden": [
        {"dims": [1, 2], "cells": "11"},
        {"dims": [2, 1], "cells": "11"},
    ],
}


def run(obj) -> harness.Report:
    return harness.run_config(harness.ExperimentConfig.from_json(obj))


class TestConfigValidation:
    def test_unknown_target(self):
        with pytest.raises(ConfigError, match="target"):
            harness.ExperimentConfig.from_json({"target": "entropy9d"})

    def test_missing_field_names_the_field(self):
        with pytest.raises(ConfigError, match="spec"):
            run({"target": "entropy1d", "n": 3})

    def test_bad_depth_rejected(self):
        with pytest.raises(ConfigError, match="n"):
            run({"target": "entropy1d", "spec": {"kind": "full", "alphabet": 2}, "n": 0})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            harness.ExperimentConfig.from_json([1, 2, 3])

    def test_targets_and_keys_are_pinned(self):
        assert harness.TARGETS == ("entropy1d", "entropy2d", "fr", "indep2d", "tree-entropy",
                                   "surface", "density", "bip", "reproduce")
        assert harness.REPRODUCE_KEYS == ("thm1", "thm3", "thm4", "thm5", "thm6", "cor1")

    def test_bad_reproduce_key(self):
        with pytest.raises(ConfigError, match="thm"):
            harness.reproduce("thm2")

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            harness.ExperimentConfig.from_json({"target": "entropy1d", "seed": "x"})

    @pytest.mark.parametrize(
        "cfg,field",
        [
            ({**GOLDEN_CFG, "n": True}, "n"),
            ({**GOLDEN_CFG, "seed": False}, "seed"),
            ({"target": "reproduce", "theorem": "thm3", "depth": True}, "depth"),
            ({**DENSITY_CFG, "n_range": [2, 8, True]}, "n_range"),
            ({**DENSITY_CFG, "set": {"generator": "level_parity", "parity": True}}, "parity"),
            (
                {**DENSITY_CFG, "set": {"generator": "sink_lift", "positions": [1, True]}},
                "positions",
            ),
        ],
    )
    def test_bool_is_not_an_integer(self, cfg, field, tmp_path, capsys):
        with pytest.raises(ConfigError, match=field):
            run(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 2


class TestReports:
    def test_golden_mean_pinned_row(self):
        rep = run(GOLDEN_CFG)
        row = rep.rows[-1]
        assert row["n"] == 3
        assert row["count"] == 5
        assert round(row["estimate"], 4) == 0.5365

    def test_counts_are_decimal_strings_in_json(self):
        rep = run(GOLDEN_CFG)
        obj = json.loads(rep.json_bytes())
        assert obj["rows"][-1]["count"] == "5"

    def test_floats_are_twelve_significant_digits(self):
        rep = run(GOLDEN_CFG)
        obj = json.loads(rep.json_bytes())
        assert obj["rows"][-1]["estimate"] == 0.536479304145  # log(5)/3 to 12 digits

    @pytest.mark.parametrize("cfg,csv", [
        ({"target": "entropy1d", "n": 2,
          "spec": {"alphabet": 2, "kind": "forbidden", "forbidden": ["0", "1"]}},
         "n,count,estimate,fekete_upper\n1,0,-inf,-inf\n2,0,-inf,-inf\n"),
        ({"target": "entropy2d", "k1": 1, "k2": 2,
          "spec": {"alphabet": 2, "forbidden": [{"dims": [1, 1], "cells": "0"},
                                                {"dims": [1, 1], "cells": "1"}]}},
         "k1,k2,count,estimate\n1,1,0,-inf\n1,2,0,-inf\n"),
    ], ids=["entropy1d", "entropy2d"])
    def test_empty_language_report_is_strict_json(self, cfg, csv, tmp_path, capsys):
        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert obj["summary"]["estimate"] == "-inf"
        assert cli.main(["run", str(path), "--format", "csv"]) == 0
        assert capsys.readouterr().out == csv

    def test_a_non_finite_float_past_the_formatter_is_refused(self):
        rep = run(GOLDEN_CFG)
        rep.summary["nested"] = {"x": float("nan")}
        with pytest.raises(ValueError, match="JSON compliant"):
            rep.json_bytes()

    def test_counts_past_the_str_digit_limit_are_exact(self):
        # the binary tree over the golden mean has a 7,242-digit count at n = 14
        cfg = {
            "target": "tree-entropy",
            "tree": {"d": 2, "rows": ["11", "11"]},
            "base": {"kind": "forbidden", "alphabet": 2, "forbidden": ["11"]},
            "n": 14,
        }
        obj = json.loads(run(cfg).json_bytes())
        ts = treeshifts.TreeShiftSpec.from_json(cfg)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for row in obj["rows"]:
                want = str(treeshifts.count_patterns(ts, int(row["n"])))
                assert row["count"] == want
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(obj["rows"][-1]["count"]) > limit

    def test_fractions_serialize_as_ratios(self):
        rep = run(
            {"target": "fr", "spec": HARD_SQUARE_JSON, "symbol": 1, "kmax": 2}
        )
        obj = json.loads(rep.json_bytes())
        assert obj["summary"]["fr_estimate"] == "1/2"

    def test_assertions_name_their_invariant(self):
        rep = run(GOLDEN_CFG)
        assert rep.assertions
        for a in rep.assertions:
            assert a.name
            assert "." in a.invariant  # module.operation reference

    def test_config_hash_tracks_config(self):
        a = run(GOLDEN_CFG).config_hash
        b = run({**GOLDEN_CFG, "n": 4}).config_hash
        assert a != b
        assert len(a) == 64

    def test_same_config_same_bytes(self):
        assert run(GOLDEN_CFG).json_bytes() == run(GOLDEN_CFG).json_bytes()

    def test_reproduce_deterministic_bytes(self):
        for key in ("thm3", "thm5"):
            assert (
                harness.reproduce(key).json_bytes()
                == harness.reproduce(key).json_bytes()
            )

    def test_csv_view_headers(self):
        rep = run(DENSITY_CFG)
        text = rep.csv_text()
        assert text.splitlines()[0] == "n,count,ratio"
        assert len(text.splitlines()) == 1 + len(rep.rows)

    def test_run_config_reproduces_a_key(self):
        rep = run({"target": "reproduce", "theorem": "thm3", "depth": 3, "seed": 2})
        assert rep.json_bytes() == harness.reproduce("thm3", depth=3, seed=2).json_bytes()

    def test_csv_joins_list_cells_with_spaces(self):
        rep = run({"target": "indep2d", "spec": HARD_SQUARE_JSON, "k1": 2, "k2": 2})
        text = rep.csv_text()
        assert text == 'k1,k2,k,witness\n2,2,2,"1,1 2,2"\n'
        assert all(len(row) == len(rep.columns) for row in csv.reader(io.StringIO(text)))

    def test_wall_clock_excluded_by_default(self):
        rep = run(GOLDEN_CFG)
        assert b"wall_clock" not in rep.json_bytes()

    def test_emit_writes_file(self, tmp_path):
        rep = run(GOLDEN_CFG)
        out = tmp_path / "report.json"
        harness.emit_report(rep, fmt="json", path=str(out))
        assert json.loads(out.read_text())["pass"] is True


def _shiftlab(*argv: str) -> subprocess.CompletedProcess:
    """``python -m shiftlab.cli ARGV`` in a fresh interpreter, on this checkout's sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "shiftlab.cli", *argv], env=env,
                          capture_output=True, text=True)


class TestCli:
    @pytest.mark.parametrize("cfg,message", [
        ({**GOLDEN_CFG, "spec": {"kind": "forbidden", "alphabet": 2, "forbidden": [[[1]], "11"]}},
         "spec: forbidden entry [[1]] is neither a digit string nor a list of ints"),
        ({**GOLDEN_CFG, "spec": {"kind": "forbidden", "alphabet": 2, "forbidden": "11"}},
         "spec: forbidden must be a list of words, got '11'"),
        ({"target": "entropy2d", "spec": {"alphabet": 2, "forbidden": [{"dims": [1, 2]}]}, "k_range": [1, 2]},
         "spec: missing field 'cells'"),
        ({"target": "entropy2d", "spec": {"alphabet": 2, "forbidden": [{"dims": [1, 2], "cells": "1x"}]},
          "k1": 2, "k2": 2}, "spec: pattern 1x2 cells '1x': expected digits"),
        ({**GOLDEN_CFG, "spec": {"kind": "forbidden", "alphabet": 2.5, "forbidden": ["11"]}},
         "spec: alphabet size must be an integer, got 2.5"),
        ({**GOLDEN_CFG, "spec": {"kind": "forbidden", "alphabet": "2", "forbidden": ["11"]}},
         "spec: alphabet size must be an integer, got '2'"),
        ({"target": "entropy2d", "spec": {**HARD_SQUARE_JSON, "alphabet": 2.5}, "k1": 2, "k2": 2},
         "spec: alphabet size must be an integer, got 2.5"),
        ({"target": "entropy2d", "spec": {**HARD_SQUARE_JSON, "alphabet": "2"}, "k1": 2, "k2": 2},
         "spec: alphabet size must be an integer, got '2'"),
        ({**GOLDEN_CFG, "spec": {"kind": "at_most_k", "alphabet": 2, "symbol": True, "count": 1}},
         "spec: at_most_k symbol must be an integer, got True"),
        ({**GOLDEN_CFG, "spec": {"kind": "at_most_k", "alphabet": 2, "symbol": 1, "count": 1.5}},
         "spec: at_most_k count must be an integer, got 1.5"),
        ({**TREE_CFG, "tree": {"d": 2, "rows": ["11", "1x"]}},
         "tree shift: tree row '1x': entries must be 0 or 1"),
        ({**TREE_CFG, "matrix": ["12", "11"]}, "tree shift: matrix row '12': entries must be 0 or 1"),
        ({**TREE_CFG, "matrix": ["1x", "11"]}, "tree shift: matrix row '1x': entries must be 0 or 1"),
        ({**TREE_CFG, "base": GOLDEN_CFG["spec"]}, "tree shift: base and matrix: give one of the two, not both"),
        ({**TREE_CFG, "tree": {"d": 2.0, "rows": ["11", "11"]}}, "tree shift: tree d must be an integer, got 2.0"),
        ({**TREE_CFG, "tree": {"d": True, "rows": ["1"]}}, "tree shift: tree d must be an integer, got True"),
        ({"target": "entropy2d", "spec": {"alphabet": 2, "forbidden": [{"dims": [1], "cells": "1"}]},
          "k1": 2, "k2": 2}, "spec: pattern dims [1]: expected two integers >= 1"),
        ({"target": "entropy2d", "spec": {"alphabet": 2, "forbidden": [{"dims": [1, 2.0], "cells": "11"}]},
          "k1": 2, "k2": 2}, "spec: pattern dims [1, 2.0]: expected two integers >= 1"),
        ({"target": "entropy2d", "spec": {"alphabet": 2, "forbidden": [{"dims": [1, 2], "cells": 11}]},
          "k1": 2, "k2": 2}, "spec: pattern 1x2 cells 11: expected digits"),
        ({"target": "entropy2d", "spec": {"alphabet": 2, "forbidden": 5}, "k1": 2, "k2": 2},
         "spec: forbidden must be a list of patterns, got 5"),
        ({"target": "entropy2d", "spec": {"alphabet": 2, "forbidden": [5]}, "k1": 2, "k2": 2},
         "spec: forbidden entry 5 is not an object with dims and cells"),
        ({**GOLDEN_CFG, "spec": [1]}, "spec: expected a JSON object, got [1]"),
        ({**DENSITY_CFG, "base": [1]}, "base: expected a JSON object, got [1]"),
        ({**TREE_CFG, "tree": ["11", "11"]}, "tree: expected a JSON object, got ['11', '11']"),
        ({**TREE_CFG, "tree": {"rows": 11}}, "tree shift: tree rows must be a list, got 11"),
        ({**TREE_CFG, "matrix": 11}, "tree shift: matrix rows must be a list, got 11"),
        ({**TREE_CFG, "matrix": [11, 10]}, "tree shift: matrix row 11: entries must be 0 or 1"),
        ({k: v for k, v in TREE_CFG.items() if k != "matrix"}, "tree shift: base or matrix: give one of the two"),
        ({**GOLDEN_CFG, "spec": {"alphabet": 2, "kind": "full", "forbidden": ["11"]}},
         "spec: forbidden: kind 'full' reads no forbidden words"),
        ({**GOLDEN_CFG, "spec": {"alphabet": 2, "kind": "at_most_k", "symbol": 1, "count": 1, "forbidden": ["00"]}},
         "spec: forbidden: kind 'at_most_k' reads no forbidden words"),
    ], ids=["nested-entry", "not-a-list", "missing-cells", "cells-letter", "alphabet-float-1d",
            "alphabet-string-1d", "alphabet-float-2d", "alphabet-string-2d", "symbol-bool", "count-float",
            "tree-row-letter", "matrix-entry-2", "matrix-row-letter", "base-and-matrix", "d-float", "d-bool",
            "dims-one", "dims-float", "cells-int", "forbidden-int", "pattern-int", "spec-list", "base-list",
            "tree-list", "tree-rows-int", "matrix-int", "matrix-row-int", "neither-base-nor-matrix",
            "full-with-words", "at-most-k-with-words"])
    def test_malformed_spec_names_its_field(self, cfg, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"shiftlab: error: {message}\n"

    @pytest.mark.parametrize("case,message", [
        (["reproduce", "thm1", "--depth", "1"], "depth: expected an integer >= 2"),
        ({**DENSITY_CFG, "set": 5}, "set: expected a list of vertex ids, a level_parity generator, "
                                    "or a sink_lift generator"),
        ({**DENSITY_CFG, "set": {"generator": "nope"}}, "set: expected a list of vertex ids, "
                                                        "a level_parity generator, or a sink_lift generator"),
        ({"target": "entropy2d", "spec": {"alphabet": 2, "forbidden": [{"dims": [1, 2], "cells": "111"}]},
          "k1": 2, "k2": 2}, "spec: cells length 3 does not match dims 1x2"),
        ({**TREE_CFG, "tree": {"d": 2, "rows": ["11", "1"]}}, "tree shift: matrix must be square"),
        ({**TREE_CFG, "tree": {"d": 3, "rows": ["11", "11"]}}, "tree shift: row count does not match d"),
        ({**TREE_CFG, "tree": {"rows": []}}, "tree shift: matrix must have at least one generator"),
        ({**TREE_CFG, "matrix": ["11", "1"]}, "tree shift: step matrix must be square with size >= 2"),
        ({**GOLDEN_CFG, "spec": {"kind": "forbidden", "alphabet": 2, "forbidden": [""]}},
         "spec: forbidden words must be nonempty"),
        ({**GOLDEN_CFG, "spec": {"kind": "forbidden", "alphabet": 2, "forbidden": ["12"]}},
         "spec: forbidden word (1, 2) uses symbols outside the alphabet"),
        ({**GOLDEN_CFG, "spec": {"kind": "at_most_k", "alphabet": 2, "symbol": 2, "count": 1}},
         "spec: tracked symbol 2 outside the alphabet"),
        ({**GOLDEN_CFG, "spec": {"kind": "at_most_k", "alphabet": 2, "symbol": 1, "count": -1}},
         "spec: occurrence bound must be >= 0"),
        ({**GOLDEN_CFG, "spec": {"kind": "sofic", "alphabet": 2}}, "spec: unknown spec kind 'sofic'"),
        ({"target": "indep2d", "spec": {"alphabet": 3, "forbidden": []}, "k1": 2, "k2": 2},
         "witness extraction works on binary alphabets"),
    ], ids=["depth-one", "set-int", "set-generator", "cells-length", "tree-not-square", "tree-d",
            "tree-empty", "step-not-square", "word-empty", "word-symbol", "tracked-symbol",
            "bound-negative", "kind-unknown", "witness-ternary"])
    def test_refusal_exits_two_with_its_text(self, case, message, tmp_path, capsys):
        argv = case
        if isinstance(case, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(case))
            argv = ["run", str(path)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"shiftlab: error: {message}\n")

    def test_fault_in_a_spec_parser_is_internal(self, tmp_path, capsys, monkeypatch):
        def broken(obj):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(words.ShiftSpec1D, "from_json", broken)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GOLDEN_CFG))
        assert cli.main(["run", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["shiftlab: internal error: ZeroDivisionError('division by zero')"]

    def test_run_exits_zero_on_pass(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOLDEN_CFG))
        assert cli.main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["pass"] is True

    def test_missing_config_exits_two(self, capsys):
        assert cli.main(["run", "/no/such/file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": "bogus"}))
        assert cli.main(["run", str(cfg)]) == 2

    def test_density_of_non_vertex_ids_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**DENSITY_CFG, "set": ["21", "3", "x"], "n_range": [1, 3, 1]}))
        assert cli.main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'21' is not a vertex of this tree" in captured.err

    def test_bip_on_a_deep_tree_with_dependent_leaves_exits_zero(self, tmp_path, capsys):
        # the heuristic walks all 1,023 vertices of Delta_9 for the leaf labelings
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "target": "bip", "tree": {"d": 2, "rows": ["11", "11"]},
            "base": {"alphabet": 2, "kind": "forbidden", "forbidden": ["1"]}, "l": 1, "n": 9,
        }))
        assert cli.main(["run", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"] == {"found": False}
        assert [(a["name"], a["pass"]) for a in report["assertions"]] == [("no-witness-no-blocks", True)]

    def test_vertex_listing_past_the_cap_exits_two(self, tmp_path, capsys, monkeypatch):
        # Delta_10 of the binary tree has 2,047 vertices; none is listed
        monkeypatch.setenv("SHIFTLAB_CAP", "1000")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "target": "bip", "tree": {"d": 2, "rows": ["11", "11"]},
            "base": {"alphabet": 2, "forbidden": ["11"]}, "l": 1, "n": 10,
        }))
        assert cli.main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "shiftlab: error: more than SHIFTLAB_CAP = 1000 vertices in Delta_10\n"

    def test_bip_count_lower_bound_reads_the_alphabet(self, tmp_path, capsys, monkeypatch):
        # a ternary boundary set of size s forces 3^s patterns, not 2^s
        obj = {"target": "bip", "tree": {"d": 2, "rows": ["11", "11"]},
               "base": {"alphabet": 3, "forbidden": []}, "l": 1, "n": 2}
        size = run(obj).summary["size"]
        monkeypatch.setattr(treeshifts, "count_patterns", lambda ts, n: 3 ** size - 1)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        assert cli.main(["run", str(cfg)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {a["name"]: a["pass"] for a in report["assertions"]} == {
            "witness-independent": True, "count-lower-bound": False}

    def test_reproduce_exits_zero(self, capsys):
        assert cli.main(["reproduce", "thm3", "--depth", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_failed_assertion_exits_one(self, tmp_path, capsys, monkeypatch):
        rep = run(GOLDEN_CFG)
        rep.assertions.append(
            harness.Assertion("forced-failure", "testing.exit-code", False)
        )
        monkeypatch.setattr(cli, "run_config", lambda cfg: rep)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOLDEN_CFG))
        assert cli.main(["run", str(cfg)]) == 1

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        def broken(key, depth=None, seed=0):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "reproduce", broken)
        assert cli.main(["reproduce", "thm5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "shiftlab: internal error: RuntimeError('boom\\nsecond line')"
        ]

    def test_timing_flag_adds_wall_clock(self, capsys):
        assert cli.main(["reproduce", "thm3", "--depth", "3", "--timing"]) == 0
        assert "wall_clock_ms" in capsys.readouterr().out

    def test_csv_format(self, capsys):
        assert cli.main(["reproduce", "thm3", "--depth", "3", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "k,count,estimate"

    def test_commands_in_one_process_match_each_alone(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOLDEN_CFG))
        commands = [["run", str(cfg), "--format", "csv"], ["reproduce", "cor1", "--seed", "4"]]
        alone = [_shiftlab(*argv).stdout for argv in commands]
        assert cli.main(["reproduce", "thm9"]) == 2
        capsys.readouterr()
        got = []
        for argv in commands:
            assert cli.main(argv) == 0
            got.append(capsys.readouterr().out)
        assert got == alone

    @pytest.mark.parametrize("argv", [
        [],
        ["verify", "thm3"],
        ["reproduce", "thm9"],
        ["reproduce", "thm3", "--depth", "abc"],
        ["reproduce", "thm3", "--format", "xml"],
        ["reproduce", "thm3", "--bogus"],
        ["run"],
        ["reproduce", "thm3", "thm4"],
        ["run", "CONFIG", "--seed", "1"],
    ])
    def test_usage_error_exits_two(self, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOLDEN_CFG))
        argv = [str(cfg) if a == "CONFIG" else a for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(cli.USAGE)
        lines = captured.err[len(cli.USAGE):].splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("shiftlab: error: ")
        assert lines[0].endswith("\n")

    @pytest.mark.parametrize("argv, canonical", [
        (["reproduce", "--depth", "3", "thm3"], ["reproduce", "thm3", "--depth", "3"]),
        (["reproduce", "thm3", "--depth=3", "--format=csv"],
         ["reproduce", "thm3", "--depth", "3", "--format", "csv"]),
        (["reproduce", "thm3", "--dep", "3"], ["reproduce", "thm3", "--depth", "3"]),
        (["reproduce", "--depth", "3", "--", "thm3"], ["reproduce", "thm3", "--depth", "3"]),
    ])
    def test_accepted_forms_match_the_canonical_argv(self, argv, canonical, capsys):
        assert cli.main(canonical) == 0
        want = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_help_lists_every_key(self, flag, capsys):
        assert cli.main(["reproduce", flag]) == 0
        captured = capsys.readouterr()
        assert captured.out == cli.USAGE and captured.err == ""
        for key in harness.REPRODUCE_KEYS:
            assert key in captured.out

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe\x00")
        assert cli.main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"shiftlab: error: {cfg}: not UTF-8 text (")
        assert len(captured.err.splitlines()) == 1

    def test_config_nested_past_the_recursion_limit_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"shiftlab: error: {cfg}: JSON nested too deeply to decode\n"

    def test_exit_codes_through_a_process(self):
        helped = _shiftlab("--help")
        assert helped.returncode == 0 and helped.stdout == cli.USAGE
        refused = _shiftlab("reproduce", "thm9")
        assert refused.returncode == 2 and refused.stdout == ""
        assert refused.stderr.splitlines()[-1].startswith("shiftlab: error: ")
        assert "Traceback" not in refused.stderr
        replayed = _shiftlab("reproduce", "thm3", "--depth", "3")
        assert replayed.returncode == 0
        assert json.loads(replayed.stdout)["pass"] is True

    @pytest.mark.parametrize("cap", ["0", "abc"])
    def test_bad_cap_exits_two(self, cap, capsys, monkeypatch):
        monkeypatch.setenv("SHIFTLAB_CAP", cap)
        assert cli.main(["reproduce", "thm3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"shiftlab: error: SHIFTLAB_CAP must be a positive integer, got '{cap}'\n"

    def test_rigid_window_past_the_recursion_limit_exits_two(self, tmp_path, capsys):
        # a 1000 x 1000 zeros window: rows of 1,000 cells, one block, no witness
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "target": "indep2d", "k1": 1000, "k2": 1000,
            "spec": {"alphabet": 2, "forbidden": [{"dims": [1, 1], "cells": "1"}]},
        }))
        assert cli.main(["run", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "shiftlab: error: language has 1 block(s); no free position\n"

    def test_out_file(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["reproduce", "thm3", "--depth", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["name"] == "thm3"


class TestOneWalkPerSeries:
    def test_entropy2d_summary_matches_the_estimator(self):
        for spec in (HARD_SQUARE_JSON, {"alphabet": 2, "forbidden": []}):
            rep = run({"target": "entropy2d", "spec": spec, "k1": 3, "k2": 4})
            est = grids.entropy_est_2d(grids.ShiftSpec2D.from_json(spec), 3, 4)
            assert rep.summary == {"estimate": est.raw, "fekete_upper": est.fekete_upper}

    def test_tree_entropy_rows_match_the_count_walk(self):
        cfg = {"target": "tree-entropy", "tree": DENSITY_CFG["tree"],
               "base": DENSITY_CFG["base"], "n": 9}
        ts = treeshifts.TreeShiftSpec.from_json(cfg)
        rep = run(cfg)
        assert [row["count"] for row in rep.rows] == treeshifts.count_series(ts, 9)[1:]

    def test_density_rows_count_the_members(self):
        rep = run(DENSITY_CFG)
        ts = treeshifts.TreeShiftSpec.from_json(DENSITY_CFG)
        geo = ts.geometry()
        members = treeshifts.LevelParity(1).members_in
        assert [(row["n"], row["count"]) for row in rep.rows] == [
            (n, len(members(geo, n))) for n in range(2, 9, 2)]

    def test_density_checks_listed_ids_once(self, monkeypatch):
        calls = []
        check = trees.TreeGeometry.check_ids
        monkeypatch.setattr(trees.TreeGeometry, "check_ids",
                            lambda geo, ids, n: calls.append(list(ids)) or check(geo, ids, n))
        rep = run({**DENSITY_CFG, "set": ["", "1", "12", "122"], "n_range": [1, 10, 1]})
        assert [row["count"] for row in rep.rows] == [2, 3] + [4] * 8
        assert calls == [["", "1", "12", "122"]]  # once over the 4 ids, not at each of the 10 depths

    def test_thm1_rows_match_the_count_walk(self):
        rep = harness.reproduce("thm1", depth=12)
        ts = treeshifts.make_tree_shift(trees.AdjacencyMatrix.comb(), words.ShiftSpec1D.golden_mean())
        counts = treeshifts.count_series(ts, 12)
        assert [row["count"] for row in rep.rows] == [counts[row["n"]] for row in rep.rows]

    def test_fr_reads_one_series_per_width(self, monkeypatch):
        cfg = {"target": "fr", "spec": HARD_SQUARE_JSON, "symbol": 1, "kmax": 4}
        spec = grids.ShiftSpec2D.from_json(HARD_SQUARE_JSON)
        want = [grids.max_symbol_block(spec, a, b, 1).M for a in range(1, 5) for b in range(1, 5)]
        widths = []
        series = grids.max_symbol_series

        def spy(base, width, length, symbol):
            widths.append(width)
            return series(base, width, length, symbol)

        def refuse(*args):
            raise AssertionError("max_symbol_block keeps a witness pass per window")

        monkeypatch.setattr(grids, "max_symbol_series", spy)
        monkeypatch.setattr(grids, "max_symbol_block", refuse)
        rep = run(cfg)
        assert rep.passed
        assert [row["max_count"] for row in rep.rows] == want
        # the hard square is its own transpose, so one series per width 1..4
        # serves both orientations, and the minimum reads the same windows
        assert widths == [1, 2, 3, 4]

    def test_each_2d_window_is_counted_once(self, monkeypatch):
        calls = []
        count = grids.count_blocks_2d
        monkeypatch.setattr(grids, "count_blocks_2d",
                            lambda spec, k1, k2: calls.append((k1, k2)) or count(spec, k1, k2))
        rep = run({"target": "indep2d", "spec": HARD_SQUARE_JSON, "k1": 3, "k2": 3})
        assert rep.passed
        assert calls == [(3, 3)]
        calls.clear()
        assert harness.reproduce("thm3", depth=3).passed
        assert calls == [(1, 1), (2, 2), (3, 3)]


class TestBlockSubadditivity:
    def _run(self, monkeypatch, table, tmp_path):
        monkeypatch.setattr(grids, "block_count_windows", lambda spec, k1, k2: [
            (a, b, table[a, b]) for a in range(1, k1 + 1) for b in range(1, k2 + 1)])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "entropy2d", "spec": HARD_SQUARE_JSON, "k1": 2, "k2": 2}))
        code = cli.main(["run", str(path), "--format", "json"])
        checks = {a.name: a.passed for a in run({"target": "entropy2d", "spec": HARD_SQUARE_JSON,
                                                 "k1": 2, "k2": 2}).assertions}
        return code, checks["block-subadditivity"]

    def test_true_counts_pass(self, monkeypatch, tmp_path, capsys):
        assert self._run(monkeypatch, {(1, 1): 2, (1, 2): 3, (2, 1): 3, (2, 2): 7}, tmp_path) == (0, True)

    def test_side_by_side_is_checked(self, monkeypatch, tmp_path, capsys):
        # stacking holds (3 <= 2 * 2, 7 <= 4 * 4); 1 x 2 breaks 2 * 2 side by side
        table = {(1, 1): 2, (1, 2): 5, (2, 1): 3, (2, 2): 7}
        assert self._run(monkeypatch, table, tmp_path) == (1, False)

    def test_stacking_is_checked(self, monkeypatch, tmp_path, capsys):
        table = {(1, 1): 2, (1, 2): 3, (2, 1): 5, (2, 2): 7}
        assert self._run(monkeypatch, table, tmp_path) == (1, False)


class TestSharedRowShifts:
    def test_hard_square_ops_build_each_row_shift_once(self, monkeypatch):
        grids._row_shift.cache_clear()
        built = []
        init = grids.RowShift.__init__

        def spy(shift, spec, width):
            built.append((spec, width))
            init(shift, spec, width)

        monkeypatch.setattr(grids.RowShift, "__init__", spy)
        for cfg in ({"target": "entropy2d", "k1": 4, "k2": 4},
                    {"target": "fr", "symbol": 1, "kmax": 4},
                    {"target": "indep2d", "k1": 3, "k2": 3}):
            assert run({**cfg, "spec": HARD_SQUARE_JSON}).passed
        # the hard square is its own transpose, so both orientations share too
        assert all(spec == grids.ShiftSpec2D.hard_square() for spec, _ in built)
        assert sorted(width for _, width in built) == [1, 2, 3, 4]


class TestFrErrors:
    DEAD_LINES = {"alphabet": 2, "forbidden": [{"dims": [1, 2], "cells": c}
                                                for c in ("00", "01", "10", "11")]}

    def _run(self, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["run", str(path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_first_empty_window_names_itself(self, tmp_path, capsys):
        cfg = {"target": "fr", "spec": self.DEAD_LINES, "symbol": 1, "kmax": 3}
        assert self._run(cfg, tmp_path, capsys) == (2, "shiftlab: error: no admissible 1x2 blocks\n")

    def test_out_of_range_symbol_raises_first(self, tmp_path, capsys):
        cfg = {"target": "fr", "spec": self.DEAD_LINES, "symbol": 2, "kmax": 3}
        assert self._run(cfg, tmp_path, capsys) == (2, "shiftlab: error: symbol 2 outside the alphabet\n")
