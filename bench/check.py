"""Which report fields the correctness check compares, and how.

The check compares counts, exact ratios and assertion outcomes, the values
that must not change while the program gets faster.  It leaves out float
estimates and anything else: a field a later version adds is ignored, so
an extra estimate beside the Fekete bound does not fail the check, while a
changed count does.

Row fields are compared column by column through digests, which keeps
``reference.json`` small even when a count has thousands of digits.
"""

from __future__ import annotations

import hashlib
import json

# counts, exact ratios and decisions, plus the keys that name a row
COMPARED = (
    "count", "max_count", "size", "k", "specs",
    "ratio", "fr_estimate", "upper", "lower",
    "found", "certified", "bip",
    "n", "k1", "k2", "spec", "depth",
)

SHORT = 40


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _short(value):
    """Keep small values readable; digest the long ones."""
    if isinstance(value, str) and len(value) > SHORT:
        return _digest(value)
    return value


def fields(report_text: str) -> dict:
    """The compared fields of one JSON report."""
    report = json.loads(report_text)
    rows = report["rows"]
    return {
        "pass": report["pass"],
        "nrows": len(rows),
        "rows": {
            key: _digest([row.get(key) for row in rows])
            for key in COMPARED
            if any(key in row for row in rows)
        },
        "summary": {
            key: _short(value)
            for key, value in report["summary"].items()
            if key in COMPARED
        },
        "assertions": {a["name"]: a["pass"] for a in report["assertions"]},
    }


def mismatches(expected: dict, got: dict) -> list:
    """Names of the fields in ``expected`` whose value ``got`` does not repeat.

    Only the fields recorded in ``expected`` are looked at, so fields that
    ``got`` has in addition never count against it.
    """
    out = []
    for key in ("pass", "nrows"):
        if got.get(key) != expected[key]:
            out.append(key)
    for section in ("rows", "summary", "assertions"):
        have = got.get(section, {})
        out.extend(
            f"{section}.{key}"
            for key, value in expected[section].items()
            if have.get(key) != value
        )
    return out
