"""A config fuzzer: every mutant of a benchmark pool config ends in a report or in exit 2.

Each mutant replaces one leaf of a grid-sweep or ray-sweep pool config
(``bench/workloads.py``, read-only, as ``test_bench_reference.py`` reads
it) with a value of another JSON type or out of range, and runs
``cli.main(["run", path])`` under a small ``SHIFTLAB_CAP``.  A report exits
0 or 1; a refusal exits 2 with one ``shiftlab: error:`` line; exit 3 is an
internal error, a fault in shiftlab rather than in the config.
"""

from __future__ import annotations

import json
import os
import random
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

from shiftlab import cli  # noqa: E402

SEED = 26
MUTANTS = 500
VALUES = (-1, 2.5, True, None, "x", [], {}, 40)


def leaf_paths(node, path=()):
    """The key paths of every value in ``node`` that is no object or nonempty list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def replaced(node, path, value):
    """``node`` with the value at ``path`` replaced; ``node`` itself is left as it was."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: replaced(node[head], rest, value)}
    return [replaced(v, rest, value) if i == head else v for i, v in enumerate(node)]


def test_every_mutant_ends_in_a_report_or_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHIFTLAB_CAP", "4096")
    configs = list({json.dumps(op["config"], sort_keys=True): op["config"]
                    for workload in ("grid-sweep", "ray-sweep") for op in workloads.pool(workload)}.values())
    rng = random.Random(SEED)
    path = tmp_path / "config.json"
    codes = set()
    for _ in range(MUTANTS):
        config = rng.choice(configs)
        mutant = replaced(config, rng.choice(list(leaf_paths(config))), rng.choice(VALUES))
        path.write_text(json.dumps(mutant))
        code = cli.main(["run", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (mutant, err)
        if code == 2:
            assert [line.startswith("shiftlab: error:") for line in err.splitlines()] == [True], (mutant, err)
        codes.add(code)
    assert codes >= {0, 2}  # the mutants reach reports as well as refusals
