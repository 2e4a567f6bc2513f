import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treemorse import build_tree, check_invariants, edge, is_edge
from treemorse.errors import (
    CycleDetectedError,
    LoopEdgeError,
    MalformedEdgeError,
    MalformedVertexError,
    MultiEdgeError,
    NotConnectedError,
    UnknownVertexError,
)


def test_edge_is_canonically_sorted():
    assert edge("b", "a") == ("a", "b")
    assert edge("a", "b") == ("a", "b")


def test_loop_edge_rejected():
    with pytest.raises(LoopEdgeError):
        edge("a", "a")
    with pytest.raises(LoopEdgeError):
        build_tree(["a"], [("a", "a")])


def test_duplicate_edge_rejected():
    with pytest.raises(MultiEdgeError):
        build_tree(["a", "b"], [("a", "b"), ("b", "a")])


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownVertexError):
        build_tree(["a", "b"], [("a", "c")])


def test_the_first_faulty_pair_is_reported():
    # an unknown endpoint before a repeated edge, a loop and a cycle; of an
    # unknown pair, its first endpoint
    with pytest.raises(UnknownVertexError) as excinfo:
        build_tree(["a", "b", "c"], [("a", "b"), ("z", "y"), ("b", "a"), ("c", "c"), ("b", "c")])
    assert str(excinfo.value) == "edge endpoint 'z' is not a declared vertex"
    with pytest.raises(MultiEdgeError) as excinfo:
        build_tree(["a", "b", "c"], [("b", "a"), ("a", "b"), ("x", "c")])
    assert str(excinfo.value) == "edge ('a', 'b') appears more than once"
    # a repeat is found by counting after the walk, so these pin that it is
    # still named first when it comes first, and not when it comes later
    cases = [
        ([("a", "b"), ("b", "a"), ("c", "c")], MultiEdgeError, "edge ('a', 'b') appears more than once"),
        # the pair that first repeats an earlier one, not the first pair repeated
        ([("a", "b"), ("b", "c"), ("c", "b"), ("b", "a")], MultiEdgeError, "edge ('b', 'c') appears more than once"),
        # the repeat also closes a cycle: three edges on three vertices
        ([("a", "b"), ("b", "a"), ("b", "c")], MultiEdgeError, "edge ('a', 'b') appears more than once"),
        ([("a", "z"), ("a", "b"), ("b", "a")], UnknownVertexError, "edge endpoint 'z' is not a declared vertex"),
        ([("c", "c"), ("a", "b"), ("b", "a")], LoopEdgeError, "loop edge at vertex 'c'"),
        # a repeat before an item that is not a pair at all
        ([("a", "b"), ("b", "a"), ("a", "b", "c")], MultiEdgeError, "edge ('a', 'b') appears more than once"),
        # items that do not unpack into two names, and edges that are not iterable
        ([("a",)], MalformedEdgeError, "edge item 0 is not two vertex names: "
         "not enough values to unpack (expected 2, got 1)"),
        ([("a", "b"), ("a", "b", "c"), ("b", "a")], MalformedEdgeError, "edge item 1 is not two vertex names: "
         "too many values to unpack (expected 2)"),
        ([("a", "b"), None], MalformedEdgeError, "edge item 1 is not two vertex names: "
         "cannot unpack non-iterable NoneType object"),
        ([5], MalformedEdgeError, "edge item 0 is not two vertex names: cannot unpack non-iterable int object"),
        (5, MalformedEdgeError, "edge item 0 is not two vertex names: 'int' object is not iterable"),
        # an item that is not a pair, and then a repeat: the item comes first
        ([("a", "b"), ("c",), ("b", "a")], MalformedEdgeError, "edge item 1 is not two vertex names: "
         "not enough values to unpack (expected 2, got 1)"),
        # the loop and the undeclared endpoint still come before a later bad item
        ([("c", "c"), None], LoopEdgeError, "loop edge at vertex 'c'"),
        ([("a", "z"), None], UnknownVertexError, "edge endpoint 'z' is not a declared vertex"),
    ]
    for pairs, error, message in cases:
        with pytest.raises(error) as excinfo:
            build_tree(["a", "b", "c"], pairs)
        assert str(excinfo.value) == message


def test_vertices_that_are_not_str_names_are_refused():
    # one pass hashes the names and one joins them, so each case is refused
    # before any edge is read, and a later reading never meets a bad name
    cases = [
        (None, "'NoneType' object is not iterable"),
        (5, "'int' object is not iterable"),
        ([{}], "unhashable type: 'dict'"),
        ([("x",)], "sequence item 0: expected str instance, tuple found"),
        ([1, 2], "sequence item 0: expected str instance, int found"),
    ]
    for vertices, reason in cases:
        with pytest.raises(MalformedVertexError) as excinfo:
            build_tree(vertices, [(1, 2)])
        assert str(excinfo.value) == f"vertices are not an iterable of str names: {reason}"
        assert isinstance(excinfo.value, ValueError)
    with pytest.raises(MalformedVertexError):  # before the empty tree's NotConnectedError
        build_tree(None, [])


def test_cycle_rejected():
    with pytest.raises(CycleDetectedError):
        build_tree(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_disconnected_rejected():
    with pytest.raises(NotConnectedError):
        build_tree(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])


def test_empty_tree_rejected():
    with pytest.raises(NotConnectedError):
        build_tree([], [])


def test_single_vertex_tree():
    tree = build_tree(["a"], [])
    assert tree.simplex_count == 1
    assert tree.matching_number() == 0


def test_simplices_lists_vertices_before_edges():
    tree = helpers.path3_tree()
    simplices = list(tree.simplices())
    assert simplices == ["a", "b", "c", ("a", "b"), ("b", "c")]
    assert [is_edge(s) for s in simplices] == [False, False, False, True, True]


def test_degree():
    tree = helpers.deep_function().domain
    assert tree.degree("d") == 3
    assert tree.degree("f") == 1
    with pytest.raises(UnknownVertexError, match="^unknown vertex 'z'$"):
        tree.degree("z")


def test_matching_number_on_examples():
    assert helpers.deep_function().domain.matching_number() == 3
    assert helpers.narrow_function().domain.matching_number() == 2
    assert build_tree(["a", "b"], [("a", "b")]).matching_number() == 1
    # the 25 trees with 1 to 7 vertices, each up to isomorphism
    trees = [helpers.tree_from_edges(n, edges) for n in range(1, 8) for edges in helpers.trees_up_to_iso(n)]
    assert len(trees) == 25
    for tree in trees:
        assert tree.matching_number() == helpers.brute_matching_number(tree)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matching_number_matches_brute_force(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    seq = tuple(
        data.draw(st.integers(min_value=0, max_value=n - 1))
        for _ in range(n - 2)
    )
    edges = [(f"v{u}", f"v{v}") for u, v in helpers.prufer_edges(seq)]
    tree = helpers.tree_from_edges(n, edges)
    assert tree.matching_number() == helpers.brute_matching_number(tree)


def test_matching_number_is_computed_once_per_tree(monkeypatch):
    counts = helpers.count_readings(monkeypatch)
    tree, twin = helpers.path3_tree(), helpers.path3_tree()
    before = (tree == twin, hash(tree), repr(tree))
    for _ in range(3):
        assert tree.matching_number() == check_invariants(tree).matching_number == 1
    assert counts == {"_matching_number": 1}
    # an equal tree built on its own takes its own reading, and a cached
    # reading shows in no comparison, hash or repr
    assert twin.matching_number() == 1
    assert counts == {"_matching_number": 2}
    assert (tree == twin, hash(tree), repr(tree)) == before == (True, hash(twin), repr(twin))


def test_threads_racing_to_a_first_read_all_get_the_matching_number():
    # the cache takes no lock: threads may all compute a first reading, and
    # each must get the tree's matching number
    shapes = [(n, edges) for n in range(1, 8) for edges in helpers.trees_up_to_iso(n)]
    expected = [helpers.brute_matching_number(helpers.tree_from_edges(n, edges)) for n, edges in shapes] * 40
    trees = [helpers.tree_from_edges(n, edges) for _ in range(40) for n, edges in shapes]
    seen = [[] for _ in range(6)]
    start = threading.Barrier(len(seen))

    def read(out: list) -> None:
        start.wait(timeout=30)
        out.extend(tree.matching_number() for tree in trees)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(out,)) for out in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * len(seen)
    assert [vars(tree)["_matching_number"] for tree in trees] == expected


def test_tree_census_counts():
    assert [len(helpers.trees_up_to_iso(n)) for n in range(1, 9)] == [
        1, 1, 1, 2, 3, 6, 11, 23,
    ]


def test_the_tree_walk_stops_with_the_trees_of_the_full_walk():
    # stopping at the known class count keeps each class's first tree
    for n in range(1, 8):
        assert helpers.trees_up_to_iso(n) == helpers.prufer_classes(n, None)


def test_build_tree_at_a_hundred_thousand_simplices():
    # a 50,000-vertex path and star, 99,999 simplices each, and a spider
    # of 16,666 legs of three edges, 99,997 simplices, so the connectivity
    # search must not recurse; a spider's largest matching takes the outer
    # edge of every leg and joins the centre to one leg's inner vertex
    n = 50_000
    names = [f"v{i}" for i in range(n)]
    path = [(names[i], names[i + 1]) for i in range(n - 1)]
    star = [(names[0], names[i]) for i in range(1, n)]
    legs = (n - 1) // 3
    spider = [(names[0] if i % 3 == 1 else names[i - 1], names[i]) for i in range(1, 3 * legs + 1)]
    for vertex_count, edges, matching in ((n, path, n // 2), (n, star, 1), (3 * legs + 1, spider, legs + 1)):
        vertices = names[:vertex_count]
        tree = build_tree(vertices, edges)
        assert tree.simplex_count == 2 * vertex_count - 1
        assert tree.matching_number() == matching
        dropped = edges[: n // 2] + edges[n // 2 + 1 :]
        with pytest.raises(NotConnectedError) as excinfo:
            build_tree(vertices, dropped)
        assert str(excinfo.value) == "graph has 2 components"
