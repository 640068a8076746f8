"""The value classes are frozen records: field equality within a class,
hashing as the field tuple, a Class(field=value, ...) repr and no
assignment. Importing the package loads neither dataclasses nor inspect,
nor the CLI and argparse."""

import pytest

import termalg
from termalg import (
    AlgebraCensus,
    Apply,
    CloneLevel,
    ComplexityReport,
    Constant,
    Evaluation,
    FiniteAlgebra,
    FunctionTable,
    Operation,
    Variable,
    catalog,
    clone_level,
    projection_table,
)

from helpers import fresh_python

NEG = Operation("neg", 1, (1, 0))

# (class, positional arguments, the same as keywords, field values, repr)
CASES = [
    (Variable, (1,), {"index": 1}, (1,), "Variable(index=1)"),
    (Constant, (0,), {"value": 0}, (0,), "Constant(value=0)"),
    (
        Apply,
        ("+", [Variable(1), Constant(1)]),
        {"symbol": "+", "children": (Variable(1), Constant(1))},
        ("+", (Variable(1), Constant(1))),
        "Apply(symbol='+', children=(Variable(index=1), Constant(value=1)))",
    ),
    (
        Operation,
        ("neg", 1, [1, 0]),
        {"symbol": "neg", "arity": 1, "table": (1, 0)},
        ("neg", 1, (1, 0)),
        "Operation(symbol='neg', arity=1, table=(1, 0))",
    ),
    (
        FiniteAlgebra,
        ("n2", 2, [("neg", 1, (1, 0))]),
        {"name": "n2", "carrier_size": 2, "operations": (NEG,)},
        ("n2", 2, (NEG,)),
        "FiniteAlgebra(name='n2', carrier_size=2, "
        "operations=(Operation(symbol='neg', arity=1, table=(1, 0)),))",
    ),
    (
        FunctionTable,
        (1, 2, [1, 0]),
        {"arity": 1, "carrier_size": 2, "values": (1, 0)},
        (1, 2, b"\x01\x00"),
        "FunctionTable(arity=1, carrier_size=2, lanes=b'\\x01\\x00')",
    ),
    (
        Evaluation,
        ({2: 1, 1: 0}, 2),
        {"assigned": {1: 0, 2: 1}, "context_arity": 2},
        ({1: 0, 2: 1}, 2),
        "Evaluation(assigned={1: 0, 2: 1}, context_arity=2)",
    ),
    (
        ComplexityReport,
        (1, {frozenset({1}): 2}, 2),
        {"arity": 1, "per_set": {frozenset({1}): 2}, "total": 2},
        (1, {frozenset({1}): 2}, 2),
        "ComplexityReport(arity=1, per_set={frozenset({1}): 2}, total=2)",
    ),
    (
        CloneLevel,
        (1, 2, (b"\x00\x01",), 1, (Variable(1),)),
        {"arity": 1, "carrier_size": 2, "tables": (b"\x00\x01",), "width": 1, "witnesses": (Variable(1),)},
        (1, 2, (b"\x00\x01",), 1, (Variable(1),)),
        "CloneLevel(arity=1, carrier_size=2, tables=(b'\\x00\\x01',), width=1, "
        "witnesses=(Variable(index=1),))",
    ),
    (
        AlgebraCensus,
        ("n2", 1, 4, 6, {2: 2, 1: 2}),
        {"algebra": "n2", "n": 1, "clone_size": 4, "total": 6, "histogram": {2: 2, 1: 2}},
        ("n2", 1, 4, 6, {2: 2, 1: 2}),
        "AlgebraCensus(algebra='n2', n=1, clone_size=4, total=6, histogram={2: 2, 1: 2})",
    ),
    # applications of no child, of one (each end written ",))"), and of a
    # child that is no term
    (Apply, ("f", []), {"symbol": "f", "children": ()}, ("f", ()), "Apply(symbol='f', children=())"),
    (
        Apply,
        ("neg", [Apply("neg", [Constant(0)])]),
        {"symbol": "neg", "children": (Apply("neg", (Constant(0),)),)},
        ("neg", (Apply("neg", (Constant(0),)),)),
        "Apply(symbol='neg', children=(Apply(symbol='neg', children=(Constant(value=0),)),))",
    ),
    (Apply, ("f", [5]), {"symbol": "f", "children": (5,)}, ("f", (5,)), "Apply(symbol='f', children=(5,))"),
]
# a class names its first case; a further case is named by its repr
IDS = []
for cls, *_, text in CASES:
    IDS.append(text if cls.__name__ in IDS else cls.__name__)


def fields_of(record):
    return tuple(getattr(record, name) for name in type(record).__annotations__)


@pytest.mark.parametrize("cls, args, kwargs, fields, text", CASES, ids=IDS)
class TestRecord:
    def test_repr(self, cls, args, kwargs, fields, text):
        assert repr(cls(*args)) == text

    def test_fields(self, cls, args, kwargs, fields, text):
        assert fields_of(cls(*args)) == fields

    def test_keywords(self, cls, args, kwargs, fields, text):
        assert cls(**kwargs) == cls(*args)
        assert fields_of(cls(**kwargs)) == fields

    def test_equality(self, cls, args, kwargs, fields, text):
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        assert a != fields and a != object()
        assert a.__eq__(fields) is NotImplemented

    def test_hash_is_field_tuple_hash(self, cls, args, kwargs, fields, text):
        record = cls(*args)
        try:
            expected = hash(fields)
        except TypeError:
            # a field is a dict, as with frozen dataclasses
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_frozen(self, cls, args, kwargs, fields, text):
        record = cls(*args)
        for name in cls.__annotations__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert fields_of(record) == fields


def test_unequal_across_classes():
    assert Variable(1) != Constant(1)
    assert Constant(1) != Variable(1)
    assert Variable(1).__eq__(Constant(1)) is NotImplemented
    assert len({Variable(1), Constant(1)}) == 2


def test_bad_arguments():
    with pytest.raises(TypeError):
        Variable()
    with pytest.raises(TypeError):
        Variable(1, 2)
    with pytest.raises(TypeError):
        Variable(1, index=1)
    with pytest.raises(TypeError):
        Variable(position=1)


def test_post_init_runs_with_keywords():
    with pytest.raises(termalg.TermError):
        Variable(index=0)


def test_cached_table_values():
    built = FunctionTable._from_lanes(1, 2, b"\x01\x00")
    assert "values" not in vars(built)
    assert built.values == (1, 0)
    assert built.values is built.values
    assert built == FunctionTable(1, 2, (1, 0))
    assert hash(built) == hash(FunctionTable(1, 2, (1, 0)))
    assert repr(built) == "FunctionTable(arity=1, carrier_size=2, lanes=b'\\x01\\x00')"


def test_cached_report_per_set():
    # the report from the counts by mask is the record of the constructor
    # case above: equal, unhashable as a dict field is, the same repr
    cls, args, _, fields, text = next(case for case in CASES if case[0] is ComplexityReport)
    built = ComplexityReport.from_counts([0, 2], 1)
    assert "per_set" not in vars(built)
    assert built == cls(*args) and cls(*args) == built
    assert repr(built) == text
    with pytest.raises(TypeError):
        hash(built)
    assert built.per_set is built.per_set
    assert fields_of(built) == fields
    # at arity 3, the sets keyed in mask order, as the constructor's
    counts = [0, 1, 0, 2, 3, 0, 1, 4]
    built = ComplexityReport.from_counts(counts, 3)
    per = {termalg.kernels.indices_of_mask(m): counts[m] for m in range(1, 8)}
    report = ComplexityReport(3, per, 11)
    assert built == report and repr(built) == repr(report)
    assert built.sorted_items() == report.sorted_items()
    assert list(built.set_texts()) == list(report.set_texts())


def test_cached_clone_members():
    level = clone_level(catalog.bool2(), 2)
    members = level.members
    assert members is level.members
    assert members[:2] == (projection_table(1, 2, 2), projection_table(2, 2, 2))
    assert len(members) == level.size == 16
    with pytest.raises(AttributeError):
        level.members = ()


def _loaded_by(imports, modules):
    """Which of the modules a fresh interpreter loads for the imports:
    the test process has loaded all of them already."""
    script = (
        f"import sys; before = set(sys.modules); import {imports}; "
        f"print(sorted({modules!r} & (set(sys.modules) - before)))"
    )
    return fresh_python("-c", script).stdout


def test_import_loads_neither_dataclasses_nor_inspect():
    assert _loaded_by("termalg, termalg.cli", {"dataclasses", "inspect"}) == b"[]\n"


def test_import_termalg_loads_neither_the_cli_nor_argparse():
    modules = {"dataclasses", "inspect", "argparse", "termalg.cli"}
    assert _loaded_by("termalg", modules) == b"[]\n"
