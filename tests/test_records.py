"""The value records: dataclass semantics from ``shiftlab.records.record``."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from shiftlab import grids, harness, shatter, trees, treeshifts, words
from shiftlab.errors import DomainError

MODULES = (words, trees, treeshifts, grids, shatter, harness)
RECORDS = sorted(
    (obj for mod in MODULES for obj in vars(mod).values()
     if isinstance(obj, type) and obj.__module__ == mod.__name__ and "__match_args__" in vars(obj)),
    key=lambda cls: cls.__qualname__,
)
MUTABLE = {harness.Report, harness.Assertion}

# two valid field tuples for the records that check their fields; any one
# field of the second may replace the first's
SAMPLES = {
    words.ShiftSpec1D: ((2, words.FORBIDDEN, (), 0, 0),
                        (3, words.AT_MOST_K, ((1,),), 1, 1)),
    trees.AdjacencyMatrix: ((((1,),),), (((1, 1), (1, 0)),)),
    grids.ShiftSpec2D: ((2, ()), (3, (((1,),),))),
}


def _samples(cls) -> tuple:
    if cls in SAMPLES:
        return SAMPLES[cls]
    return tuple(tuple(f"{name}-{v}" for name in cls.__match_args__) for v in "ab")


def test_every_record_class_is_found():
    assert len(RECORDS) == 28
    assert not [cls for cls in RECORDS if hasattr(cls, "__post_init__") and cls not in SAMPLES]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestRecordSemantics:
    def test_equal_fields_give_equal_records(self, cls):
        one, _ = _samples(cls)
        a, b = cls(*one), cls(**dict(zip(cls.__match_args__, one)))
        assert a == b and not a != b
        assert [getattr(a, name) for name in cls.__match_args__] == list(one)
        if cls not in MUTABLE:
            assert hash(a) == hash(b) == hash(tuple(one))

    def test_a_changed_field_gives_an_unequal_record(self, cls):
        one, two = _samples(cls)
        for i in range(len(one)):
            changed = one[:i] + (two[i],) + one[i + 1:]
            assert cls(*one) != cls(*changed)
        assert cls(*one) != one  # another class: NotImplemented both ways

    def test_frozen_records_refuse_assignment_and_mutable_ones_take_it(self, cls):
        record = cls(*_samples(cls)[0])
        name = cls.__match_args__[0]
        if cls in MUTABLE:
            setattr(record, name, "new")
            assert getattr(record, name) == "new"
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
            return
        with pytest.raises(AttributeError):
            setattr(record, name, "new")
        with pytest.raises(AttributeError):
            setattr(record, "not_a_field", 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == _samples(cls)[0][0]

    def test_missing_or_unexpected_arguments_raise_type_error(self, cls):
        one, _ = _samples(cls)
        required = [name for name in cls.__match_args__ if name not in vars(cls)]
        with pytest.raises(TypeError):
            cls(*one[:len(required) - 1])
        with pytest.raises(TypeError):
            cls(*one, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*one, one[0])
        with pytest.raises(TypeError):
            cls(*one, **{cls.__match_args__[0]: one[0]})

    def test_defaults_apply(self, cls):
        one, _ = _samples(cls)
        required = [name for name in cls.__match_args__ if name not in vars(cls)]
        record = cls(**dict(zip(required, one)))
        for name in cls.__match_args__[len(required):]:
            assert getattr(record, name) == vars(cls)[name]

    def test_repr_and_match_args(self, cls):
        one, _ = _samples(cls)
        record = cls(*one)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__match_args__, one))
        assert repr(record) == f"{cls.__qualname__}({fields})"
        match record:
            case cls(first):
                assert first == one[0]


def test_post_init_runs():
    with pytest.raises(DomainError, match="unknown spec kind"):
        words.ShiftSpec1D(2, "bogus")
    with pytest.raises(DomainError, match="at least 2 symbols"):
        words.ShiftSpec1D(alphabet_size=1, kind=words.FORBIDDEN)
    with pytest.raises(DomainError):
        grids.ShiftSpec2D(2, (((2,),),))


def test_cached_properties_work_on_frozen_records():
    matrix = trees.AdjacencyMatrix.binary_tree()
    assert matrix.geometry is matrix.geometry
    assert matrix == trees.AdjacencyMatrix(matrix.rows)
    assert hash(matrix) == hash(trees.AdjacencyMatrix(matrix.rows))
    spec = grids.ShiftSpec2D.from_patterns(2, (("10", "01"),))
    flipped = spec._transposed
    assert spec._transposed is flipped
    assert flipped.forbidden == (((1, 0), (0, 1)),)
    assert spec == grids.ShiftSpec2D(2, spec.forbidden)


def test_report_is_unhashable():
    report = harness.Report("run", "x", "h", 0, (), [], {}, [])
    assert report.wall_clock_ms is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


def test_cli_import_stays_off_the_heavy_stdlib():
    # dataclasses pulls in inspect, ast, dis and tokenize: about a tenth
    # of a cold command's start-up
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, shiftlab.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
