"""Command line front end.

Exit codes: 0 when every report assertion passes, 1 when a report
contains a failed assertion, 2 for configuration or usage errors, 3 for
an internal error (a fault in shiftlab itself, reported on one line).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .errors import ShiftLabError
from .harness import (
    REPRODUCE_KEYS,
    ExperimentConfig,
    emit_report,
    reproduce,
    run_config,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first ``main`` call and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Block counting, entropy estimation, and independence "
        "searches for shifts on lines, grids, and trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config file")
    run.add_argument("config", help="path to a JSON experiment config")
    _output_flags(run)

    rep = sub.add_parser("reproduce", help="run a canned verification suite")
    rep.add_argument("key", choices=REPRODUCE_KEYS, help="which suite to run")
    rep.add_argument("--depth", type=int, default=None, help="depth budget override")
    rep.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
    _output_flags(rep)

    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument(
        "--timing",
        action="store_true",
        help="attach wall-clock milliseconds (breaks byte-for-byte reproducibility)",
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        t0 = time.perf_counter()
        if args.command == "run":
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg_obj = json.load(fh)
            report = run_config(ExperimentConfig.from_json(cfg_obj))
        else:
            report = reproduce(args.key, depth=args.depth, seed=args.seed)
        if args.timing:
            report.wall_clock_ms = (time.perf_counter() - t0) * 1000.0
        text = emit_report(report, fmt=args.format, path=args.out)
        if args.out is None:
            sys.stdout.write(text)
    except (ShiftLabError, OSError, json.JSONDecodeError) as exc:
        print(f"shiftlab: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, kept apart from exit 1
        print(f"shiftlab: internal error: {exc!r}", file=sys.stderr)
        return 3

    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
