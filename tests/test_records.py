"""The contract of the package's records: construction, repr, equality,
hashing and immutability, the same as frozen (or, for the two report
records, mutable) dataclasses would give."""

import math

import pytest

from treemorse import (
    GradientVectorField,
    MergeNode,
    MergeTree,
    MorseFunction,
    SimplicialTree,
    StarGraph,
)
from treemorse.morse import HomologicalSequence, PersistenceDiagram
from treemorse.oracle import InvariantReport, PropertyCheck

POINT = SimplicialTree(frozenset({"a"}), frozenset())
EDGE = SimplicialTree(frozenset({"a"}), frozenset({("a", "b")}))
POINT_REPR = "SimplicialTree(vertices=frozenset({'a'}), edges=frozenset())"

# class, field names, the fields of one record, the fields of a different
# one, and the first record's repr; the fields are built anew for each
# record, so equal records share no field object
RECORDS = [
    (
        SimplicialTree, ("vertices", "edges"),
        lambda: (frozenset({"a"}), frozenset()),
        lambda: (frozenset({"a"}), frozenset({("a", "b")})),
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
        lambda: (2, [PropertyCheck("demo")], 0, 1, 1),
        lambda: (2, [], 0, 1, 1),
        "InvariantReport(function_count=2, checks=[PropertyCheck(name='demo', checked=0, "
        "failed=0, witnesses=[])], min_impasse_count=0, max_impasse_count=1, matching_number=1)",
    ),
]
FROZEN = (SimplicialTree, GradientVectorField, HomologicalSequence, PersistenceDiagram, MorseFunction, StarGraph)
HASHABLE = (SimplicialTree, GradientVectorField, HomologicalSequence, PersistenceDiagram, StarGraph)


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
    else:  # MorseFunction's values are a dict; the two reports are mutable
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@pytest.mark.parametrize("cls, names, make, other, shown", RECORDS, ids=lambda x: getattr(x, "__name__", None))
def test_frozen_records_refuse_assignment_and_deletion(cls, names, make, other, shown):
    record = cls(*make())
    if cls not in FROZEN:
        setattr(record, names[0], make()[0])
        return
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == list(make())


def test_merge_trees_compare_by_identity():
    root = MergeNode(1, MergeNode(0), MergeNode(0.5))
    tree, again = MergeTree(root), MergeTree(root=root)
    assert tree == tree and not tree != tree
    assert tree != again and not tree == again
    assert hash(tree) == object.__hash__(tree)
    assert len({tree, again}) == 2
    assert repr(tree) == "MergeTree(root=MergeNode(value=1, left=MergeNode(value=0, left=None, right=None), " \
        "right=MergeNode(value=0.5, left=None, right=None)))"
    assert MergeTree.__match_args__ == ("root",)
    for action in (lambda: setattr(tree, "root", root), lambda: delattr(tree, "root")):
        with pytest.raises(AttributeError):
            action()


def test_each_property_check_gets_its_own_witness_list():
    first, second = PropertyCheck("a"), PropertyCheck(name="b")
    assert first.witnesses == [] and first.witnesses is not second.witnesses
    first.record(False, MorseFunction(POINT, {"a": 0}))
    assert first.witnesses == ["a=0"] and second.witnesses == []
    assert (first.checked, first.failed, second.checked) == (1, 1, 0)
