import functools
import gc
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treemorse import (
    MergeNode,
    MergeTree,
    MorseFunction,
    build_tree,
    edge,
    enumerate_critical_dmfs,
    forman_equivalent,
    homological_sequence,
    induce_merge_tree,
    merge_equivalent,
    parse_morse_document,
    parse_shape_code,
    persistence_diagram,
    thin_from_lr,
    validate,
)
from treemorse.errors import (
    MalformedMergeTreeError,
    MissingValueError,
    MorseValidationError,
    MoreThanTwoShareValueError,
    NotFiniteRealError,
    NotWeaklyIncreasingError,
    ValueSharedByNonIncidentError,
)


def expect(node: MergeNode, value) -> MergeNode:
    # the node's tag is the position it was reached by: L for the root and
    # every .left, R for every .right
    assert node.value == value
    return node


def test_deep_example_structure():
    tree = induce_merge_tree(helpers.deep_function())
    root = expect(tree.root, 10)
    nine = expect(root.left, 9)
    three = expect(root.right, 3)
    five = expect(nine.left, 5)
    eight = expect(nine.right, 8)
    expect(five.left, 0)
    expect(five.right, 4)
    expect(eight.left, 7)
    expect(eight.right, 6)
    expect(three.left, 2)
    expect(three.right, 1)
    assert tree.shape_code() == "(((••)(••))(••))"
    assert tree.impasse_count() == 3
    assert not tree.is_thin()


def test_narrow_example_structure():
    tree = induce_merge_tree(helpers.narrow_function())
    root = expect(tree.root, 6)
    five = expect(root.left, 5)
    expect(root.right, 2)
    expect(five.left, 0)
    four = expect(five.right, 4)
    expect(four.left, 3)
    expect(four.right, 1)
    assert tree.shape_code() == "((•(••))•)"
    assert tree.impasse_count() == 1
    assert tree.is_thin()


def test_single_edge_merge_tree():
    f = validate(
        build_tree(["u", "v"], [("u", "v")]),
        {"u": 0, "v": 1, ("u", "v"): 2},
    )
    tree = induce_merge_tree(f)
    root = expect(tree.root, 2)
    expect(root.left, 0)
    expect(root.right, 1)
    assert tree.shape_code() == "(••)"
    assert tree.is_thin()


def test_path_functions_lean_by_edge_order():
    left = induce_merge_tree(helpers.left_path_function())
    assert left.shape_code() == "((••)•)"
    assert helpers.values_preorder(left) == [4, 3, 0, 1, 2]

    right = induce_merge_tree(helpers.right_path_function())
    assert right.shape_code() == "(•(••))"
    # at the R-tagged join the min-holding side keeps R, so 1 sits right of 2
    assert helpers.values_preorder(right) == [4, 0, 3, 2, 1]


def test_gapped_path_merge_tree():
    tree = induce_merge_tree(helpers.gapped_path_function())
    assert tree.shape_code() == "((••)•)"
    assert helpers.values_preorder(tree) == [4, 2, 0, 1, 3]


def test_paired_edges_do_not_appear():
    tree = build_tree(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
    )
    f = validate(
        tree,
        {"a": 0, "b": 1, "c": 2, "d": 3,
         ("a", "b"): 4, ("b", "c"): 5, ("c", "d"): 3},
    )
    merge = induce_merge_tree(f)
    root = expect(merge.root, 5)
    four = expect(root.left, 4)
    expect(root.right, 2)
    expect(four.left, 0)
    expect(four.right, 1)


def test_single_vertex_merge_tree():
    f = validate(build_tree(["a"], []), {"a": 0})
    tree = induce_merge_tree(f)
    assert tree.root.is_leaf
    assert tree.root.value == 0
    assert tree.node_count == 1
    assert tree.impasse_count() == 0


def test_fully_paired_path_collapses_to_a_point():
    path = validate(
        build_tree(["u", "v", "w"], [("u", "v"), ("v", "w")]),
        {"v": 0, "u": 1, "w": 2, ("u", "v"): 1, ("v", "w"): 2},
    )
    # the sweep places the vertex before its equal-valued edge
    single_edge = validate(
        build_tree(["u", "v"], [("u", "v")]), {"u": 0, "v": 1, ("u", "v"): 1}
    )
    for f in (path, single_edge):
        merge = induce_merge_tree(f)
        assert merge.node_count == 1
        assert merge.root.value == 0


UNVALIDATED_CASES = [
    # a critical edge onto a vertex that lost its value to a tie
    (
        [("a", "b"), ("b", "c")],
        {"a": 0, "b": 0, "c": 0, ("a", "b"): 1, ("b", "c"): 2},
        MoreThanTwoShareValueError,
    ),
    # an edge tied with a vertex it does not touch
    (
        [("a", "b"), ("b", "c")],
        {"a": 0, "b": 0, "c": 0, ("a", "b"): 0, ("b", "c"): 1},
        MoreThanTwoShareValueError,
    ),
    # two components whose minima tie
    (
        [("v0", "v2"), ("v0", "v1"), ("v1", "v3")],
        {"v0": 1, "v1": 5, "v2": 2, "v3": 1,
         ("v0", "v1"): 7, ("v0", "v2"): 6, ("v1", "v3"): 6},
        ValueSharedByNonIncidentError,
    ),
    # an edge placed before one of its endpoints, no critical edge
    ([("a", "b")], {"a": 1, "b": 0, ("a", "b"): 0}, NotWeaklyIncreasingError),
    # no critical simplex at all
    ([("a", "b")], {"a": 0, "b": 0, ("a", "b"): 0}, MoreThanTwoShareValueError),
    # an edge with no value
    ([("a", "b")], {"a": 0, "b": 1}, MissingValueError),
    # two vertices tied, and two edges tied: each edge attaches one tied
    # vertex, just as a gradient pair would
    (
        [("a", "b"), ("b", "c")],
        {"a": 0, "b": 1, "c": 0, ("a", "b"): 2, ("b", "c"): 2},
        ValueSharedByNonIncidentError,
    ),
    # an edge placed before an endpoint that has no value
    ([("a", "b")], {"b": 0, ("a", "b"): 1}, MissingValueError),
    # three vertices born at once with an edge: four simplices share value 0
    (
        [("a", "b"), ("b", "c")],
        {"a": 0, "b": 0, "c": 0, ("a", "b"): 1, ("b", "c"): 0},
        MoreThanTwoShareValueError,
    ),
    # NaN on a vertex, then on an edge: it equals no value, itself included,
    # so no tie or order check sees it
    (
        [("a", "b"), ("b", "c")],
        {"a": float("nan"), "b": 1, "c": 2, ("a", "b"): 3, ("b", "c"): 4},
        NotFiniteRealError,
    ),
    (
        [("a", "b"), ("b", "c")],
        {"a": 0, "b": 1, "c": 2, ("a", "b"): float("nan"), ("b", "c"): 4},
        NotFiniteRealError,
    ),
    # a boolean is an int to sort and compare, but not a real value here
    ([("a", "b")], {"a": True, "b": 2, ("a", "b"): 3}, NotFiniteRealError),
    # an infinite edge value, which sorts and ties like a finite one
    ([("a", "b")], {"a": 0, "b": 1, ("a", "b"): math.inf}, NotFiniteRealError),
    # a value for a vertex the tree lacks
    ([("a", "b")], {"a": 0, "b": 1, "c": 2, ("a", "b"): 3}, MissingValueError),
]


@pytest.mark.parametrize(
    "edges, values, error",
    UNVALIDATED_CASES,
    # name each case by its position alone, not by its error class
    ids=[f"edges{i}-values{i}" for i in range(len(UNVALIDATED_CASES))],
)
def test_unvalidated_non_morse_function_raises(edges, values, error):
    # MorseFunction checks nothing when built; the first read of anything
    # derived from its values runs validate's checks, with validate's type
    # and message, and they are not asserts, which python -O would strip
    tree = build_tree(sorted({v for e in edges for v in e}), edges)
    with pytest.raises(error) as expected:
        validate(tree, values)
    readers = [
        induce_merge_tree,
        persistence_diagram,
        homological_sequence,
        lambda f: forman_equivalent(f, f),
        lambda f: f.critical_simplices,
    ]
    for read in readers:
        with pytest.raises(MorseValidationError) as raised:
            read(MorseFunction(tree, values))
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)


def test_unvalidated_functions_raise_exactly_when_validate_does():
    # random integers below 2n on the 11 trees with 4 to 6 vertices: most
    # break a Morse condition, and a few break only a sharing rule
    rng = random.Random(9)
    for n in (4, 5, 6):
        for edges in helpers.trees_up_to_iso(n):
            tree = helpers.tree_from_edges(n, edges)
            simplices = list(tree.simplices())
            for _ in range(1000):
                values = {s: rng.randrange(2 * n) for s in simplices}
                f = MorseFunction(tree, values)
                try:
                    g = validate(tree, values)
                except MorseValidationError:
                    with pytest.raises(MorseValidationError):
                        induce_merge_tree(f)
                    with pytest.raises(MorseValidationError):
                        persistence_diagram(f)
                    with pytest.raises(MorseValidationError):
                        homological_sequence(f)
                    continue
                merge, validated = induce_merge_tree(f), induce_merge_tree(g)
                assert merge.shape_code() == validated.shape_code()
                assert helpers.values_preorder(merge) == helpers.values_preorder(validated)
                assert persistence_diagram(f) == persistence_diagram(g)
                assert homological_sequence(f) == homological_sequence(g)


def test_node_count_equals_critical_count():
    for f in (
        helpers.deep_function(),
        helpers.narrow_function(),
        helpers.left_path_function(),
    ):
        assert induce_merge_tree(f).node_count == len(f.critical_simplices)


def test_merge_equivalent_on_examples():
    left = induce_merge_tree(helpers.left_path_function())
    right = induce_merge_tree(helpers.right_path_function())
    gapped = induce_merge_tree(helpers.gapped_path_function())
    assert not merge_equivalent(left, right)
    assert merge_equivalent(left, gapped)


def all_shape_codes(leaf_count: int) -> list[str]:
    if leaf_count == 1:
        return ["•"]
    out = []
    for k in range(1, leaf_count):
        for a in all_shape_codes(k):
            for b in all_shape_codes(leaf_count - k):
                out.append(f"({a}{b})")
    return out


def test_shape_code_round_trip():
    for leaves in range(1, 6):
        for code in all_shape_codes(leaves):
            tree = parse_shape_code(code)
            assert tree.shape_code() == code
            assert len(tree.leaves()) == leaves
            assert tree.node_count - len(tree.leaves()) == leaves - 1


def test_parse_shape_code_of_a_deep_tree():
    # one join per level, 3,000 levels: deeper than the recursion limit
    for code in ("(" * 3000 + "•" + "•)" * 3000, "(•" * 3000 + "•" + ")" * 3000):
        tree = parse_shape_code(code)
        assert tree.shape_code() == code
        assert len(tree.leaves()) == 3001


def test_shape_code_is_taken_once():
    tree = induce_merge_tree(helpers.deep_function())
    assert tree.shape_code() is tree.shape_code()


def caterpillar_function(n: int, seed: int) -> MorseFunction:
    """A spine of n // 3 vertices with the rest hung on it; every simplex
    critical, each edge above every vertex, in a random order."""
    rng = random.Random(seed)
    spine = n // 3
    pairs = [(f"v{i - 1}", f"v{i}") for i in range(1, spine)]
    pairs += [(f"v{rng.randrange(spine)}", f"v{i}") for i in range(spine, n)]
    tree = build_tree([f"v{i}" for i in range(n)], pairs)
    values = dict(zip(sorted(tree.vertices), rng.sample(range(n), n)))
    values.update(zip(sorted(tree.edges), rng.sample(range(n, 2 * n - 1), n - 1)))
    return validate(tree, values)


@functools.cache
def big_caterpillar() -> MorseFunction:
    """The 10^5-simplex caterpillar, every simplex critical."""
    return caterpillar_function(50_000, 27)


def random_recursive_document(n: int, seed: int) -> str:
    """A document on a random recursive tree with n vertices: random 50-bit
    values, each edge above its endpoints, and a random quarter of the
    vertices raised onto their lowest edge, where no other vertex took it,
    as gradient pairs."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    values = {v: rng.getrandbits(50) for v in names}
    edges = []
    for i in range(1, n):
        u, v = names[int(rng.random() * i)], names[i]
        edges.append([u, v, max(values[u], values[v]) + 1 + rng.getrandbits(50)])
    lowest = {}
    for u, v, x in sorted(edges, key=lambda e: e[2], reverse=True):  # the lowest edge writes last
        lowest[u] = lowest[v] = x
    taken = set()
    for v in rng.sample(names, n // 4):
        if lowest[v] not in taken:
            taken.add(lowest[v])
            values[v] = lowest[v]
    return json.dumps({"vertices": values, "edges": edges})


@functools.cache
def big_recursive_function() -> MorseFunction:
    """The seeded 10^5-simplex random recursive document, with gradient pairs."""
    return parse_morse_document(random_recursive_document(50_000, 28))


def diagram_off_the_merge_tree(tree: MergeTree) -> tuple:
    """The elder rule read off a merge tree's positions: at a join tagged t
    the child on side t is the heir; the other child's least leaf dies at
    the join's value, and the least leaf of all lives forever."""
    order, stack = [], [(tree.root, "L")]
    while stack:
        node, tag = stack.pop()
        order.append((node, tag))
        if node.left is not None:
            stack.append((node.left, "L"))
            stack.append((node.right, "R"))
    # the preorder above visits the right subtree before the left, so its
    # reverse meets the left subtree, then the right, then the node: each
    # join finds its children's least leaves on top of the stack
    least, pairs = [], []
    for node, tag in reversed(order):
        if node.left is None:
            least.append(node.value)
            continue
        right, left = least.pop(), least.pop()
        heir, other = (left, right) if tag == "L" else (right, left)
        pairs.append((other, node.value))
        least.append(min(heir, other))
    pairs.append((least.pop(), math.inf))
    return tuple(sorted(pairs))


def test_one_sweep_agrees_with_itself_at_a_hundred_thousand_simplices():
    # two laws that need no oracle: b0 is the running count of critical
    # vertices less critical edges, and the elder rule on the merge tree's
    # tags gives the persistence diagram. Nothing here makes a reference
    # cycle, so the cyclic collector, which would walk every object again
    # and again, is off
    gc.disable()
    try:
        document = big_recursive_function()
        assert len(document.gradient_vector_field) > 5_000
        for f in (big_caterpillar(), document):
            assert f.domain.simplex_count >= 99_999
            count, running = 0, []
            for simplex in sorted(f.critical_simplices, key=f.values.__getitem__):
                count += -1 if type(simplex) is tuple else 1
                running.append(count)
            assert f.sweep.b0 == tuple(running)
            assert diagram_off_the_merge_tree(induce_merge_tree(f)) == persistence_diagram(f).pairs
    finally:
        gc.enable()


def test_contracting_the_gradient_pairs_keeps_the_joins():
    # a third law with no oracle: a gradient pair (v, e) acts like
    # contracting e into its other endpoint u. v comes right before e and
    # joins u's older component, and f(u) < f(v), or three simplices would
    # share a value, so no minimum and no label changes: the contracted
    # document has the same joins, and so the same merge tree
    gc.disable()
    try:
        f = big_recursive_function()
        into = {v: v for v in f.domain.vertices}  # a vertex's contraction target
        paired_edges = set()
        for v, e in f.gradient_vector_field.pairs:
            into[v] = e[1] if e[0] == v else e[0]
            paired_edges.add(e)
        assert len(paired_edges) > 5_000

        def find(v: str) -> str:  # union-find with path halving
            while into[v] != v:
                into[v] = into[into[v]]
                v = into[v]
            return v

        vertices = [v for v in f.domain.vertices if into[v] == v]
        edges = [((find(u), find(v)), f.values[u, v]) for u, v in f.domain.edges - paired_edges]
        tree = build_tree(vertices, [pair for pair, _ in edges])
        values = {v: f.values[v] for v in vertices}
        values.update((edge(*pair), x) for pair, x in edges)
        contracted = validate(tree, values)
        assert len(contracted.gradient_vector_field) == 0
        assert contracted.sweep.joins == f.sweep.joins
    finally:
        gc.enable()


@functools.cache
def impasse_cases() -> tuple:
    """(merge tree, its function or None, len(tree.impasses())) for the
    reference tree of every function in the shared small corpus and the
    induced tree of its collapsed twin, every shape with up to seven leaves
    parsed from its code, and a 10^5-simplex caterpillar's tree."""
    cases = [(reference, f) for *_, functions in helpers.small_corpus() for f, _, reference in functions]
    cases += [(induce_merge_tree(g), g) for *_, functions in helpers.small_corpus() for _, g, _ in functions]
    cases += [(parse_shape_code(code), None) for leaves in range(1, 8) for code in all_shape_codes(leaves)]
    big = big_caterpillar()
    cases.append((induce_merge_tree(big), big))
    return tuple((tree, f, len(tree.impasses())) for tree, f in cases)


def test_impasse_count_reads_the_shape_code():
    def mismatches(count) -> list:
        return [tree for tree, _, expected in impasse_cases() if count(tree) != expected]

    assert mismatches(MergeTree.impasse_count) == []
    assert [f for _, f, expected in impasse_cases() if f and f.sweep.impasse_count() != expected] == []
    # doctored: a join whose left child alone is a leaf is no impasse
    assert mismatches(lambda tree: tree.shape_code().count("(•")) != []


def test_parse_shape_code_rejects_malformed():
    for bad in ["", "(", "(••", "x", "(•)", "(•••)", "(••)•", "((••)•))"]:
        with pytest.raises(ValueError):
            parse_shape_code(bad)


def test_malformed_merge_trees_are_refused():
    # a node's tag is its position, so a misplaced tag cannot be written;
    # what can still go wrong is the number of children and their type
    with pytest.raises(MalformedMergeTreeError, match="zero or two children"):
        MergeTree(MergeNode(2, MergeNode(1, MergeNode(0), None), MergeNode(1)))
    with pytest.raises(MalformedMergeTreeError, match="zero or two children"):
        MergeTree(MergeNode(1, None, MergeNode(0)))
    with pytest.raises(MalformedMergeTreeError, match="must be a MergeNode, not str"):
        MergeTree(MergeNode(1, MergeNode(0), "x"))
    # a tag string given where the left child belongs
    with pytest.raises(MalformedMergeTreeError, match="must be a MergeNode, not str"):
        MergeTree(MergeNode(None, "L", MergeNode(0)))
    with pytest.raises(MalformedMergeTreeError, match="must be a MergeNode, not tuple"):
        MergeTree((0, None, None))
    assert issubclass(MalformedMergeTreeError, ValueError)


def test_library_builders_skip_the_full_binary_check(monkeypatch):
    checks = []
    check = MergeTree.__post_init__
    monkeypatch.setattr(MergeTree, "__post_init__", lambda tree: checks.append(tree) or check(tree))
    point = validate(build_tree(["a"], []), {"a": 0})
    for f in (point, helpers.deep_function(), helpers.narrow_function(), helpers.star_function()):
        induce_merge_tree(f)
    parse_shape_code("((••)(••))")
    thin_from_lr("LRRL")
    assert checks == []
    # built by hand, the tree is still checked
    with pytest.raises(MalformedMergeTreeError, match="zero or two children"):
        MergeTree(MergeNode(1, MergeNode(2), None))
    assert len(checks) == 1


def test_merge_nodes_are_immutable_and_compared_by_identity():
    # a thin tree's leaves are equal in value, and NamedTuple equality
    # would compare whole subtrees
    a, b = MergeNode(1), MergeNode(1)
    assert a != b and not a == b
    assert a == a
    assert hash(a) != hash(b)
    assert len({a: 0, b: 1}) == 2
    with pytest.raises(AttributeError):
        a.value = 2
    assert a.left is None and a.right is None
    assert a.is_leaf and not a.is_impasse


def test_to_dot_layout():
    dot = induce_merge_tree(helpers.narrow_function()).to_dot()
    lines = dot.splitlines()
    assert lines[0] == "digraph merge_tree {"
    assert lines[-1] == "}"
    assert '  n0 [label="6"];' in lines
    assert '  n0 -> n1 [label="L"];' in lines
    assert '  n0 -> n6 [label="R"];' in lines
    # preorder numbering: left subtree of the root claims n1..n5
    assert '  n1 [label="5"];' in lines
    assert '  n6 [label="2"];' in lines
    assert dot == induce_merge_tree(helpers.narrow_function()).to_dot()


NARROW_TEXT = """\
6 L
  5 L
    0 L
    4 R
      3 L
      1 R
  2 R"""

NARROW_DOT = """\
digraph merge_tree {
  node [shape=circle];
  n0 [label="6"];
  n1 [label="5"];
  n2 [label="0"];
  n3 [label="4"];
  n4 [label="3"];
  n5 [label="1"];
  n6 [label="2"];
  n1 -> n2 [label="L"];
  n3 -> n4 [label="L"];
  n3 -> n5 [label="R"];
  n1 -> n3 [label="R"];
  n0 -> n1 [label="L"];
  n0 -> n6 [label="R"];
}"""

VALUE_FREE_TEXT = """\
? L
  ? L
    ? L
    ? R
  ? R"""

VALUE_FREE_DOT = """\
digraph merge_tree {
  node [shape=circle];
  n0 [label=""];
  n1 [label=""];
  n2 [label=""];
  n3 [label=""];
  n4 [label=""];
  n1 -> n2 [label="L"];
  n1 -> n3 [label="R"];
  n0 -> n1 [label="L"];
  n0 -> n4 [label="R"];
}"""


def test_text_and_dot_renderings_read_tags_off_positions():
    narrow = induce_merge_tree(helpers.narrow_function())
    assert narrow.to_text() == NARROW_TEXT
    assert narrow.to_dot() == NARROW_DOT
    # a value-free tree: "?" in the text, an empty dot label
    value_free = parse_shape_code("((••)•)")
    assert value_free.to_text() == VALUE_FREE_TEXT
    assert value_free.to_dot() == VALUE_FREE_DOT


def assert_same_merge_tree(actual: MergeTree, expected: MergeTree) -> None:
    MergeTree(actual.root)  # revalidates the assembled tree
    # equal codes and equal preorder values: the same values in the same
    # positions, so under the same tags
    assert actual.shape_code() == expected.shape_code()
    assert helpers.values_preorder(actual) == helpers.values_preorder(expected)


def test_sweep_matches_reference_on_small_trees():
    shapes = [
        build_tree(["a", "b", "c"], [("a", "b"), ("b", "c")]),
        build_tree(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")]),
        helpers.narrow_function().domain,
    ]
    for tree in shapes:
        for f in enumerate_critical_dmfs(tree):
            assert_same_merge_tree(
                induce_merge_tree(f), helpers.reference_merge_tree(f)
            )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sweep_matches_reference_on_random_functions(data):
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
    for function in (f, g):
        merge = induce_merge_tree(function)
        reference = helpers.reference_merge_tree(function)
        assert_same_merge_tree(merge, reference)
        assert merge.node_count == len(function.critical_simplices)
        assert function.sweep.impasse_count() == reference.impasse_count()
