"""Command line front end.

The command line is parsed by ``getopt.gnu_getopt``: options may come
before or after the positionals, as ``--flag value`` or ``--flag=value``,
any unique prefix of a long option names it, and ``--`` ends the options.
(With ``POSIXLY_CORRECT`` set in the environment, ``gnu_getopt`` stops at
the first positional, so options must then come before the command.)

Exit codes: 0 when every report assertion passes, 1 when a report
contains a failed assertion, 2 for configuration or usage errors, 3 for
an internal error (a fault in shiftlab itself, reported on one line).
A usage error prints ``USAGE`` and one ``shiftlab: error:`` line to
stderr; ``-h``/``--help`` prints ``USAGE`` to stdout and exits 0.
"""

from __future__ import annotations

import getopt
import json
import sys
import time

from .errors import ConfigError, ShiftLabError
from .harness import (
    REPRODUCE_KEYS,
    ExperimentConfig,
    emit_report,
    reproduce,
    run_config,
)

USAGE = f"""\
usage: shiftlab run CONFIG [--format {{json,csv}}] [--out PATH] [--timing]
       shiftlab reproduce KEY [--depth N] [--seed N] [--format {{json,csv}}]
                              [--out PATH] [--timing]
       shiftlab --help

Block counting, entropy estimation, and independence searches for shifts
on lines, grids, and trees.

commands:
  run CONFIG           execute the JSON experiment config in the file CONFIG
  reproduce KEY        run a canned verification suite, one of:
                       {", ".join(REPRODUCE_KEYS)}

options:
  --format {{json,csv}}  report format (default json)
  --out PATH           write the report here instead of stdout
  --timing             attach wall-clock milliseconds (breaks byte-for-byte
                       reproducibility)
  --depth N            reproduce only: depth budget override
  --seed N             reproduce only: seed echoed into the report (default 0)
  -h, --help           print this text and exit
"""

_LONG_OPTIONS = ("format=", "out=", "timing", "depth=", "seed=", "help")


def _parse(argv: list[str]) -> dict | None:
    """The command line as a dict, or None when it asks for help.

    Raises ``getopt.GetoptError`` with the reason for any usage error.
    """
    pairs, positionals = getopt.gnu_getopt(argv, "h", _LONG_OPTIONS)
    args = {"format": "json", "out": None, "timing": False, "depth": None, "seed": 0}
    for flag, value in pairs:
        if flag in ("-h", "--help"):
            return None
        if flag == "--timing":
            value = True
        elif flag in ("--depth", "--seed"):
            try:
                value = int(value)
            except ValueError:
                raise getopt.GetoptError(f"{flag} must be an integer, got {value!r}") from None
        elif flag == "--format" and value not in ("json", "csv"):
            raise getopt.GetoptError(f"--format must be json or csv, got {value!r}")
        args[flag[2:]] = value

    if not positionals:
        raise getopt.GetoptError("missing command (run or reproduce)")
    command, *operands = positionals
    if command not in ("run", "reproduce"):
        raise getopt.GetoptError(f"unknown command {command!r} (run or reproduce)")
    if not operands:
        raise getopt.GetoptError(f"{command}: missing {'CONFIG' if command == 'run' else 'KEY'}")
    if len(operands) > 1:
        raise getopt.GetoptError(f"{command}: unexpected argument {operands[1]!r}")
    if command == "run":
        for flag, _ in pairs:
            if flag in ("--depth", "--seed"):
                raise getopt.GetoptError(f"run: {flag} is a reproduce option")
    elif operands[0] not in REPRODUCE_KEYS:
        raise getopt.GetoptError(
            f"reproduce: unknown key {operands[0]!r} (one of {', '.join(REPRODUCE_KEYS)})"
        )
    args["command"], args["target"] = command, operands[0]
    return args


def _read_config(path: str) -> object:
    """The JSON value in the file ``path``; bytes or nesting it cannot decode are a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to decode") from None


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except getopt.GetoptError as exc:
        sys.stderr.write(f"{USAGE}shiftlab: error: {exc}\n")
        return 2
    if args is None:
        sys.stdout.write(USAGE)
        return 0

    try:
        t0 = time.perf_counter()
        if args["command"] == "run":
            report = run_config(ExperimentConfig.from_json(_read_config(args["target"])))
        else:
            report = reproduce(args["target"], depth=args["depth"], seed=args["seed"])
        if args["timing"]:
            report.wall_clock_ms = (time.perf_counter() - t0) * 1000.0
        text = emit_report(report, fmt=args["format"], path=args["out"])
        if args["out"] is None:
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
