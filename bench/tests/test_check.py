"""The correctness comparison: counts are compared, added fields are not."""

from __future__ import annotations

import copy
import json

import check


def report(**summary_extra) -> dict:
    return {
        "kind": "run",
        "name": "entropy1d",
        "rows": [
            {"n": "1", "count": "2", "estimate": 0.69},
            {"n": "2", "count": "3", "estimate": 0.55},
        ],
        "summary": {"estimate": 0.55, "fekete_upper": 0.55, **summary_extra},
        "assertions": [{"name": "fekete-nonincreasing", "invariant": "...", "pass": True}],
        "pass": True,
    }


def fields_of(obj: dict) -> dict:
    return check.fields(json.dumps(obj))


def test_identical_report_matches():
    assert check.mismatches(fields_of(report()), fields_of(report())) == []


def test_changed_count_fails():
    changed = report()
    changed["rows"][1]["count"] = "4"
    assert check.mismatches(fields_of(report()), fields_of(changed)) == ["rows.count"]


def test_added_field_passes():
    grown = report(perron_entropy=0.4812118250596)
    for row in grown["rows"]:
        row["perron"] = "0.48"
    grown["summary"]["count"] = "3"
    grown["assertions"].append({"name": "perron-below-fekete", "invariant": "", "pass": True})
    assert check.mismatches(fields_of(report()), fields_of(grown)) == []


def test_float_estimates_are_not_compared():
    moved = report()
    moved["rows"][0]["estimate"] = 0.6931471806
    moved["summary"]["fekete_upper"] = 0.5
    assert check.mismatches(fields_of(report()), fields_of(moved)) == []


def test_failed_assertion_and_lost_row_fail():
    broken = copy.deepcopy(report())
    broken["assertions"][0]["pass"] = False
    broken["pass"] = False
    broken["rows"].pop()
    problems = check.mismatches(fields_of(report()), fields_of(broken))
    assert {"pass", "nrows", "rows.n", "rows.count",
            "assertions.fekete-nonincreasing"} <= set(problems)


def test_long_values_are_digested():
    big = report(count="9" * 5000)
    got = fields_of(big)["summary"]["count"]
    assert got.startswith("sha256:") and len(got) < 40
    smaller = report(count="9" * 4999)
    assert check.mismatches(fields_of(big), fields_of(smaller)) == ["summary.count"]
