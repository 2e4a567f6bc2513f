import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treemorse import (
    SimplicialTree,
    build_tree,
    homological_sequence,
    is_edge,
    persistence_diagram,
    validate,
)
from treemorse.errors import (
    CycleDetectedError,
    LoopEdgeError,
    MissingValueError,
    MoreThanTwoShareValueError,
    NotConnectedError,
    NotFiniteRealError,
    NotWeaklyIncreasingError,
    TreemorseError,
    UnknownVertexError,
    ValueSharedByNonIncidentError,
)


def single_edge():
    return build_tree(["u", "v"], [("u", "v")])


def test_missing_value_rejected():
    with pytest.raises(MissingValueError):
        validate(single_edge(), {"u": 0, "v": 1})


def test_value_on_unknown_simplex_rejected():
    with pytest.raises(MissingValueError):
        validate(
            single_edge(), {"u": 0, "v": 1, ("u", "v"): 2, ("u", "w"): 3}
        )


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), True, False, None, "2", 2j],
    ids=repr,
)
def test_non_finite_and_boolean_values_rejected(value):
    # NaN compares false both ways and would pass every order check
    for simplex in ("u", ("u", "v")):
        values = {"u": 0, "v": 1, ("u", "v"): 2, simplex: value}
        with pytest.raises(NotFiniteRealError):
            validate(single_edge(), values)


def test_a_rational_too_big_for_a_float_is_finite():
    # math.isfinite converts to float and would overflow on this one
    big = Fraction(10**400)
    f = validate(single_edge(), {"u": 0, "v": 1, ("u", "v"): big})
    assert persistence_diagram(f).pairs == ((0, math.inf), (1, big))
    assert persistence_diagram(f).to_text() == f"0 inf\n1 1{'0' * 400}"


def test_an_edge_endpoint_outside_a_hand_built_tree_is_named():
    # a SimplicialTree built directly is checked where it is built, with
    # build_tree's errors, so no reading ever sees a graph that is not a tree
    cases = [
        ({"a"}, {("a", "b")}, UnknownVertexError, "edge endpoint 'b' is not a declared vertex"),
        ({"a", "b"}, set(), NotConnectedError, "graph has 2 components"),
        (set(), set(), NotConnectedError, "a tree needs at least one vertex"),
        ({"a", "b"}, {("a", "a"), ("a", "b")}, LoopEdgeError, "loop edge at vertex 'a'"),
    ]
    for vertices, edges, error, message in cases:
        with pytest.raises(TreemorseError) as raised:
            SimplicialTree(frozenset(vertices), frozenset(edges))
        assert (type(raised.value), str(raised.value)) == (error, message)
    # a reversed pair is stored as its canonical edge, as validate keys it
    tree = SimplicialTree(frozenset({"a", "b"}), frozenset({("b", "a")}))
    assert tree.edges == frozenset({("a", "b")}) and tree == build_tree(["a", "b"], [("a", "b")])
    assert validate(tree, {"a": 0, "b": 1, ("a", "b"): 2}).critical_values == (0, 1, 2)


@pytest.mark.parametrize("pendant", [True, False], ids=["with a pendant edge", "triangle"])
def test_a_cycle_in_a_hand_built_tree_is_named(pendant):
    edges = [("a", "b"), ("b", "c"), ("a", "c")] + [("c", "d")] * pendant
    vertices = sorted({v for e in edges for v in e})
    with pytest.raises(TreemorseError) as raised:
        SimplicialTree(frozenset(vertices), frozenset(edges))
    assert type(raised.value) is CycleDetectedError
    assert str(raised.value) == f"{len(edges)} edges on {len(vertices)} vertices cannot be acyclic"


def test_decreasing_along_face_rejected():
    with pytest.raises(NotWeaklyIncreasingError):
        validate(single_edge(), {"u": 0, "v": 2, ("u", "v"): 1})


def test_three_way_share_rejected():
    with pytest.raises(MoreThanTwoShareValueError):
        validate(single_edge(), {"u": 1, "v": 1, ("u", "v"): 1})


def test_two_vertices_sharing_rejected():
    with pytest.raises(ValueSharedByNonIncidentError):
        validate(single_edge(), {"u": 0, "v": 0, ("u", "v"): 1})


def test_two_edges_sharing_rejected():
    with pytest.raises(ValueSharedByNonIncidentError):
        validate(
            helpers.path3_tree(),
            {"a": 0, "b": 1, "c": 2, ("a", "b"): 3, ("b", "c"): 3},
        )


def test_nonincident_vertex_edge_sharing_rejected():
    with pytest.raises(ValueSharedByNonIncidentError):
        validate(
            helpers.path3_tree(),
            {"a": 0, "b": 1, "c": 3, ("a", "b"): 3, ("b", "c"): 4},
        )


def test_decreasing_edge_is_reported_before_a_lower_shared_value():
    # two faults: ab falls below b, and c shares 3 with the edge ab it does
    # not touch; weak increase is checked first
    values = {"a": 0, "b": 5, "c": 3, ("a", "b"): 3, ("b", "c"): 6}
    with pytest.raises(NotWeaklyIncreasingError) as excinfo:
        validate(helpers.path3_tree(), values)
    assert str(excinfo.value) == "f('b') = 5 exceeds f(('a', 'b')) = 3"


def twelve_path():
    # vertex i at i, edge (i, i+1) at 12 + i: valid, everything critical;
    # the values run from the last vertex to the first, so that insertion
    # order is the reverse of sorted order
    names = [f"v{i:02d}" for i in range(12)]
    edges = list(zip(names, names[1:]))
    values = {v: i for i, v in reversed(list(enumerate(names)))}
    values.update((e, 12 + i) for i, e in reversed(list(enumerate(edges))))
    return build_tree(names, edges), names, edges, values


def fault_message(tree, values, error):
    with pytest.raises(error) as excinfo:
        validate(tree, values)
    return str(excinfo.value)


def test_the_smaller_missing_simplex_is_named():
    tree, names, edges, values = twelve_path()
    for i, j in combinations(range(12), 2):
        missing = {k: x for k, x in values.items() if k not in (names[i], names[j])}
        assert fault_message(tree, missing, MissingValueError) == f"no value for simplex {names[i]!r}"
    for i, j in combinations(range(11), 2):
        missing = {k: x for k, x in values.items() if k not in (edges[i], edges[j])}
        assert fault_message(tree, missing, MissingValueError) == f"no value for simplex {edges[i]!r}"


def test_the_smaller_decreasing_edge_and_its_first_high_endpoint_are_named():
    tree, names, edges, values = twelve_path()
    for i, j in combinations(range(11), 2):
        # below both endpoints, or only below the second one
        for low, high in ((-1, i + 0.5), (i + 0.5, -1)):
            faulty = {**values, edges[i]: low, edges[j]: high}
            endpoint = names[i] if low == -1 else names[i + 1]
            assert fault_message(tree, faulty, NotWeaklyIncreasingError) == (
                f"f({endpoint!r}) = {faulty[endpoint]} exceeds f({edges[i]!r}) = {low}"
            )


def test_input_faults_are_named_in_the_order_the_values_are_given():
    tree, _, _, values = twelve_path()
    first = {**values, "v05": math.nan, "zz": 1}
    assert fault_message(tree, first, NotFiniteRealError) == (
        "f('v05') = nan is not a finite real number"
    )
    second = {"zz": 1, **values, "v05": math.nan}
    assert fault_message(tree, second, MissingValueError) == "value given for unknown simplex 'zz'"


def test_shared_values_are_named_in_sorted_order():
    tree, _, _, values = twelve_path()
    # v07 comes first in insertion order, and holds the float
    shared = {**values, "v07": 2.0}
    assert fault_message(tree, shared, ValueSharedByNonIncidentError) == (
        "value 2 shared by non-incident simplices 'v02' and 'v07'"
    )
    shared["v09"] = 2
    assert fault_message(tree, shared, MoreThanTwoShareValueError) == (
        "value 2 is taken by 3 simplices"
    )


def test_incident_pair_may_share():
    f = validate(single_edge(), {"u": 0, "v": 1, ("u", "v"): 1})
    assert set(f.critical_simplices) == {"u"}
    assert list(f.gradient_vector_field) == [("v", ("u", "v"))]


def test_everything_critical_when_injective():
    f = helpers.deep_function()
    assert len(f.gradient_vector_field) == 0
    assert set(f.critical_simplices) == set(f.domain.simplices())
    assert f.critical_values == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


def test_mixed_function_critical_partition():
    tree = build_tree(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
    )
    f = validate(
        tree,
        {"a": 0, "b": 1, "c": 2, "d": 3,
         ("a", "b"): 4, ("b", "c"): 5, ("c", "d"): 3},
    )
    assert list(f.gradient_vector_field) == [("d", ("c", "d"))]
    assert ("d", ("c", "d")) in f.gradient_vector_field
    assert ("c", ("c", "d")) not in f.gradient_vector_field
    assert ("c", ("b", "c")) not in f.gradient_vector_field
    assert set(f.critical_simplices) == {
        "a", "b", "c", ("a", "b"), ("b", "c")
    }
    assert f.critical_values == (0, 1, 2, 4, 5)


def test_sublevel_component_around_branch_vertex():
    f = helpers.deep_function()
    # just below the join at 10, d's component {a, b, c, d, ab, ad, cd} has
    # reached 9 from its minimum 0, so it is the heir, and e's {e, f, ef}
    # has reached 3 from 1
    assert f.sweep.joins[10] == (9, 3, 1)


def test_paired_simplices_enter_together():
    f = validate(single_edge(), {"u": 0, "v": 1, ("u", "v"): 1})
    # v and uv enter at 1 together: v never lives alone, so nothing joins
    assert f.sweep.joins == {}
    assert persistence_diagram(f).pairs[0] == (0, math.inf)  # u, the least value, is born first


def test_filtration_steps_through_critical_values():
    f = helpers.left_path_function()
    assert f.critical_values == (0, 1, 2, 3, 4)
    # ab joins a and b at 3, a the heir; bc joins that component, the heir,
    # to c at 4
    assert f.sweep.joins == {3: (0, 1, 1), 4: (3, 2, 2)}
    assert homological_sequence(f).b0_values == (1, 2, 3, 2, 1)


def test_filtration_collapses_paired_steps():
    f = validate(single_edge(), {"u": 0, "v": 1, ("u", "v"): 1})
    assert f.critical_values == (0,)
    assert homological_sequence(f).b0_values == (1,)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_functions_validate_and_partition(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    trees = helpers.trees_up_to_iso(n)
    edges = trees[data.draw(st.integers(min_value=0, max_value=len(trees) - 1))]
    tree = helpers.tree_from_edges(n, edges)
    f = helpers.critical_function_from_choices(
        tree, lambda k: data.draw(st.integers(min_value=0, max_value=k - 1))
    )
    g = helpers.collapse_pairs(
        f, lambda k: data.draw(st.integers(min_value=0, max_value=k - 1))
    )
    paired = {s for pair in g.gradient_vector_field for s in pair}
    assert paired | set(g.critical_simplices) == set(tree.simplices())
    assert not (paired & set(g.critical_simplices))
    vertex_count = sum(1 for s in g.critical_simplices if not is_edge(s))
    assert vertex_count == len(g.critical_simplices) - vertex_count + 1
    # both readings derived from the check equal the critical simplices
    # counted straight from the assignment; the hand-built dict lists a
    # paired edge before its vertex, which the stable sort keeps first
    path = build_tree(["a", "b", "c"], [("a", "b"), ("b", "c")])
    edge_first = validate(path, {("b", "c"): 3, ("a", "b"): 2, "c": 3, "b": 1, "a": 0})
    for function in (f, g, edge_first):
        literal = helpers.literal_critical(function)
        assert function.critical_simplices == frozenset(literal.values())
        assert function.critical_values == tuple(sorted(literal))
    assert edge_first.critical_values == (0, 1, 2)
