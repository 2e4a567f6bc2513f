"""The contract of the package's records: construction, repr, equality,
hashing and immutability, the same as frozen dataclasses would give."""

import math

import pytest

from treemorse import (
    GradientVectorField,
    MergeTree,
    MorseFunction,
    SimplicialTree,
    StarGraph,
)
from treemorse.morse import HomologicalSequence, PersistenceDiagram, Sweep
from treemorse.oracle import InvariantReport, PropertyCheck

POINT = SimplicialTree(frozenset({"a"}), frozenset())
EDGE = SimplicialTree(frozenset({"a", "b"}), frozenset({("a", "b")}))
POINT_REPR = "SimplicialTree(vertices=frozenset({'a'}), edges=frozenset())"

# class, field names, the fields of one record, the fields of a different
# one, and the first record's repr; the fields are built anew for each
# record, so equal records share no field object
RECORDS = [
    (
        SimplicialTree, ("vertices", "edges"),
        lambda: (frozenset({"a"}), frozenset()),
        lambda: (frozenset({"a", "b"}), frozenset({("a", "b")})),
        POINT_REPR,
    ),
    (
        GradientVectorField, ("pairs",),
        lambda: (frozenset({("a", ("a", "b"))}),),
        lambda: (frozenset(),),
        "GradientVectorField(pairs=frozenset({('a', ('a', 'b'))}))",
    ),
    (
        HomologicalSequence, ("entries",),
        lambda: ((1, 2, 1),),
        lambda: ((1, 2),),
        "HomologicalSequence(entries=(1, 2, 1))",
    ),
    (
        PersistenceDiagram, ("pairs",),
        lambda: (((0, math.inf), (1, 2)),),
        lambda: (((0, math.inf),),),
        "PersistenceDiagram(pairs=((0, inf), (1, 2)))",
    ),
    (
        MorseFunction, ("domain", "values"),
        lambda: (SimplicialTree(frozenset({"a"}), frozenset()), {"a": 0}),
        lambda: (POINT, {"a": 1}),
        f"MorseFunction(domain={POINT_REPR}, values={{'a': 0}})",
    ),
    (
        StarGraph, ("tree", "center"),
        lambda: (SimplicialTree(frozenset({"a"}), frozenset()), "a"),
        lambda: (EDGE, "a"),
        f"StarGraph(tree={POINT_REPR}, center='a')",
    ),
    (
        PropertyCheck, ("name", "checked", "failed", "witnesses"),
        lambda: ("demo", 3, 1, ["a=0"]),
        lambda: ("demo", 3, 1, []),
        "PropertyCheck(name='demo', checked=3, failed=1, witnesses=['a=0'])",
    ),
    (
        InvariantReport,
        ("function_count", "checks", "min_impasse_count", "max_impasse_count", "matching_number"),
        lambda: (2, [PropertyCheck("demo", 2, 0, [])], 0, 1, 1),
        lambda: (2, [], 0, 1, 1),
        "InvariantReport(function_count=2, checks=[PropertyCheck(name='demo', checked=2, "
        "failed=0, witnesses=[])], min_impasse_count=0, max_impasse_count=1, matching_number=1)",
    ),
    (
        MergeTree, ("code", "values"),
        lambda: ("((••)•)", (4, 3, 0, 1, 2.5)),
        lambda: ("(•(••))", (4, 3, 0, 1, 2.5)),
        "MergeTree(code='((••)•)', values=(4, 3, 0, 1, 2.5))",
    ),
    (
        Sweep, ("joins", "global_min", "b0"),
        lambda: ({2: (0, 1, 1)}, 0, (1, 2, 1)),
        lambda: ({}, 0, (1,)),
        "Sweep(joins={2: (0, 1, 1)}, global_min=0, b0=(1, 2, 1))",
    ),
]
HASHABLE = (SimplicialTree, GradientVectorField, HomologicalSequence, PersistenceDiagram, MergeTree, StarGraph)
# the records whose constructor _Record writes: all but the two that check their fields
STORING = [cls for cls, *_ in RECORDS if cls not in (SimplicialTree, MergeTree)]


@pytest.mark.parametrize("cls, names, make, other, shown", RECORDS, ids=lambda x: getattr(x, "__name__", None))
def test_records_compare_field_by_field(cls, names, make, other, shown):
    record = cls(*make())
    by_keyword = cls(**dict(zip(names, make())))
    assert [getattr(record, name) for name in names] == list(make())
    assert repr(record) == repr(by_keyword) == shown
    assert record == by_keyword and not record != by_keyword
    assert record != cls(*other()) and not record == cls(*other())
    assert record != make() and not record == make()  # a plain tuple of the same fields
    assert cls.__match_args__ == names
    match record:
        case cls(first) if first == make()[0]:
            pass
        case _:
            pytest.fail("no positional match on the first field")
    with pytest.raises(TypeError):
        cls(*make(), None)
    if cls in HASHABLE:
        assert hash(record) == hash(by_keyword)
        assert len({record, by_keyword, cls(*other())}) == 2
    else:  # MorseFunction's values and Sweep's joins are dicts; the reports hold lists
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@pytest.mark.parametrize("cls, names, make, other, shown", RECORDS, ids=lambda x: getattr(x, "__name__", None))
def test_frozen_records_refuse_assignment_and_deletion(cls, names, make, other, shown):
    record = cls(*make())
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == list(make())


@pytest.mark.parametrize(
    "cls, names, make, other, shown", [r for r in RECORDS if r[0] in STORING], ids=lambda x: getattr(x, "__name__", None)
)
def test_written_constructors_store_the_fields_and_name_their_class(cls, names, make, other, shown):
    assert cls(*make()).__dict__ == dict(zip(names, make()))
    # the messages of a hand-written __init__(self, <fields>)
    with pytest.raises(TypeError) as raised:
        cls(*make()[:-1])
    assert str(raised.value) == f"{cls.__name__}.__init__() missing 1 required positional argument: {names[-1]!r}"
    with pytest.raises(TypeError) as raised:
        cls(*make(), extra=None)
    assert str(raised.value) == f"{cls.__name__}.__init__() got an unexpected keyword argument 'extra'"
    with pytest.raises(TypeError) as raised:
        cls(*make(), **{names[0]: make()[0]})
    assert str(raised.value) == f"{cls.__name__}.__init__() got multiple values for argument {names[0]!r}"
