import functools
import gc
import importlib.util
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treemorse import (
    MergeTree,
    MorseFunction,
    build_tree,
    edge,
    enumerate_critical_dmfs,
    homological_sequence,
    induce_merge_tree,
    is_edge,
    merge_equivalent,
    merge_tree,
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
    TreemorseError,
    UnprintableValueError,
    ValueSharedByNonIncidentError,
)


def test_deep_example_structure():
    tree = induce_merge_tree(helpers.deep_function())
    # read by position: the root and every left child are tagged L, every
    # right child R
    assert tree.shape_code() == "(((••)(••))(••))"
    assert tree.values == (10, 9, 5, 0, 4, 8, 7, 6, 3, 2, 1)
    assert tree.impasse_count() == 3
    assert not tree.is_thin()


def test_narrow_example_structure():
    tree = induce_merge_tree(helpers.narrow_function())
    assert tree.shape_code() == "((•(••))•)"
    assert tree.values == (6, 5, 0, 4, 3, 1, 2)
    assert tree.impasse_count() == 1
    assert tree.is_thin()


def test_single_edge_merge_tree():
    f = validate(
        build_tree(["u", "v"], [("u", "v")]),
        {"u": 0, "v": 1, ("u", "v"): 2},
    )
    tree = induce_merge_tree(f)
    assert tree.shape_code() == "(••)"
    assert tree.values == (2, 0, 1)
    assert tree.is_thin()


def test_path_functions_lean_by_edge_order():
    left = induce_merge_tree(helpers.left_path_function())
    assert left.shape_code() == "((••)•)"
    assert left.values == (4, 3, 0, 1, 2)

    right = induce_merge_tree(helpers.right_path_function())
    assert right.shape_code() == "(•(••))"
    # at the R-tagged join the min-holding side keeps R, so 1 sits right of 2
    assert right.values == (4, 0, 3, 2, 1)


def test_gapped_path_merge_tree():
    tree = induce_merge_tree(helpers.gapped_path_function())
    assert tree.shape_code() == "((••)•)"
    assert tree.values == (4, 2, 0, 1, 3)


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
    assert merge.shape_code() == "((••)•)"
    assert merge.values == (5, 4, 0, 1, 2)


def test_single_vertex_merge_tree():
    f = validate(build_tree(["a"], []), {"a": 0})
    tree = induce_merge_tree(f)
    assert tree.shape_code() == "•"
    assert tree.values == (0,)
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
        assert (merge.shape_code(), merge.values) == ("•", (0,))


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
    # values that are not a mapping, nor pairs dict() could read as one
    ([("a", "b")], 5, MorseValidationError),
    ([("a", "b")], None, MorseValidationError),
    ([("a", "b")], [1, 2], MorseValidationError),
]


@pytest.mark.parametrize(
    "edges, values, error",
    UNVALIDATED_CASES,
    # name each case by its position alone, not by its error class
    ids=[f"edges{i}-values{i}" for i in range(len(UNVALIDATED_CASES))],
)
def test_unvalidated_non_morse_function_raises(edges, values, error):
    # MorseFunction runs validate's checks where it is built, with validate's
    # type and message, and they are not asserts, which python -O would strip
    tree = build_tree(sorted({v for e in edges for v in e}), edges)
    with pytest.raises(error) as expected:
        validate(tree, values)
    with pytest.raises(MorseValidationError) as raised:
        MorseFunction(tree, values)
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
                try:
                    g = validate(tree, values)
                except MorseValidationError as expected:
                    with pytest.raises(MorseValidationError) as raised:
                        MorseFunction(tree, values)
                    assert type(raised.value) is type(expected)
                    assert str(raised.value) == str(expected)
                    continue
                f = MorseFunction(tree, values)
                merge, validated = induce_merge_tree(f), induce_merge_tree(g)
                assert merge.shape_code() == validated.shape_code()
                assert merge.values == validated.values
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


def all_shapes(leaf_count: int) -> list:
    """The full binary trees of all_shape_codes, in its order, as value-free nodes."""
    if leaf_count == 1:
        return [helpers.Node(None)]
    return [helpers.Node(None, a, b) for k in range(1, leaf_count)
            for a in all_shapes(k) for b in all_shapes(leaf_count - k)]


def test_shape_code_round_trip():
    for leaves in range(1, 6):
        for code in all_shape_codes(leaves):
            tree = parse_shape_code(code)
            assert tree.shape_code() == code
            assert tree.values == (None,) * (2 * leaves - 1)
            assert tree.node_count == 2 * leaves - 1


def test_parse_shape_code_of_a_deep_tree():
    # one join per level, 3,000 levels: deeper than the recursion limit
    for code in ("(" * 3000 + "•" + "•)" * 3000, "(•" * 3000 + "•" + ")" * 3000):
        tree = parse_shape_code(code)
        assert tree.shape_code() == code
        assert tree.values == (None,) * 6001


def path_merge_tree(n: int) -> MergeTree:
    """The n-vertex path valued in vertex order, then edge order: a left
    chain of joins, each with a new right leaf, n - 1 levels deep."""
    names = [f"v{i:04d}" for i in range(n)]
    tree = build_tree(names, zip(names, names[1:]))
    values = dict(zip(names, range(n)))
    values.update(zip(sorted(tree.edges), range(n, 2 * n - 1)))
    return induce_merge_tree(validate(tree, values))


def test_repr_of_a_deep_merge_tree_needs_no_recursion():
    # a MergeTree shows its two flat fields, however deep the tree
    deep = path_merge_tree(3_001)
    code, values = "(" * 3_000 + "•" + "•)" * 3_000, (*range(6_000, 3_000, -1), *range(3_001))
    assert (deep.code, deep.values) == (code, values)
    assert repr(deep) == f"MergeTree(code={code!r}, values={values!r})"
    tree = induce_merge_tree(big_caterpillar())
    assert tree.node_count > 99_000
    assert repr(tree) == f"MergeTree(code={tree.code!r}, values={tree.values!r})"
    # equal fields, equal trees, however each was built
    assert MergeTree(code, values) == deep and hash(MergeTree(code, values)) == hash(deep)


def relabel(node, values):
    """node's shape with the next of values at each node, in preorder."""
    value = next(values)
    if node.left is None:
        return helpers.Node(value)
    left = relabel(node.left, values)
    return helpers.Node(value, left, relabel(node.right, values))


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
    # one pass over the code: a join's first child is tagged L, and whatever
    # follows a leaf or a closed join is a right child, tagged R
    joins, least, pairs = [], [[]], []  # least: per open join, its finished children's least leaves
    values, tag = iter(tree.values), "L"
    for c in tree.code:
        if c == "(":
            joins.append((next(values), tag))
            least.append([])
            tag = "L"
            continue
        if c == ")":
            value, joined = joins.pop()
            left, right = least.pop()
            heir, other = (left, right) if joined == "L" else (right, left)
            pairs.append((other, value))
            least[-1].append(min(heir, other))
        else:
            least[-1].append(next(values))
        tag = "R"
    pairs.append((least[0][0], math.inf))
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


@functools.cache
def contracted_recursive_function() -> MorseFunction:
    """big_recursive_function() with each gradient pair's edge contracted
    into its other endpoint, chains followed by a union-find: every simplex
    of what is left is critical."""
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
    return validate(tree, values)


def test_contracting_the_gradient_pairs_keeps_the_joins():
    # a third law with no oracle: a gradient pair (v, e) acts like
    # contracting e into its other endpoint u. v comes right before e and
    # joins u's older component, and f(u) < f(v), or three simplices would
    # share a value, so no minimum and no label changes: the contracted
    # document has the same joins, and so the same merge tree
    gc.disable()
    try:
        contracted = contracted_recursive_function()
        assert len(contracted.gradient_vector_field) == 0
        assert contracted.sweep.joins == big_recursive_function().sweep.joins
    finally:
        gc.enable()


def mirror(code: str) -> str:
    """The code of the same merge tree with its top node tagged R: read
    backwards, with its parentheses swapped."""
    return "".join({"(": ")", ")": "("}.get(c, c) for c in reversed(code))


def test_removing_the_top_edge_splits_the_shape_code():
    # a fourth law with no oracle: without the top edge, the largest
    # simplex of an injective function, the tree falls into two sides, and
    # the root joins their merge trees. The heir, the side that holds the
    # global minimum, keeps the root's tag L; the other side is tagged R,
    # which mirrors its code
    gc.disable()
    try:
        for f in (big_caterpillar(), contracted_recursive_function()):
            assert f.domain.simplex_count > 75_000 and len(f.gradient_vector_field) == 0
            top = max(f.domain.edges, key=f.values.__getitem__)
            rest = f.domain.edges - {top}
            neighbours = {v: [] for v in f.domain.vertices}
            for u, v in rest:
                neighbours[u].append(v)
                neighbours[v].append(u)
            codes = {}
            for start in top:
                side, seen = [start], {start}
                for u in side:  # side grows while it is walked
                    fresh = [v for v in neighbours[u] if v not in seen]
                    seen.update(fresh)
                    side += fresh
                edges = [e for e in rest if e[0] in seen]
                g = validate(build_tree(side, edges), {s: f.values[s] for s in [*side, *edges]})
                codes[min(g.values.values())] = induce_merge_tree(g).shape_code()
            (_, heir), (_, other) = sorted(codes.items())
            assert induce_merge_tree(f).shape_code() == "(" + heir + mirror(other) + ")"
    finally:
        gc.enable()


def joins_of_two_leaves(code: str) -> int:
    """The impasses of a shape code, counted by a walk that keeps each open
    join's finished children, True for a leaf, rather than by matching text."""
    children, count = [[]], 0
    for c in code:
        if c == "(":
            children.append([])
        elif c == ")":
            count += children.pop() == [True, True]
            children[-1].append(False)
        else:
            children[-1].append(True)
    return count


@functools.cache
def impasse_cases() -> tuple:
    """(merge tree, its function or None, its joins_of_two_leaves) for the
    reference tree of every function in the shared small corpus, as a
    MergeTree of its code and values, and the induced tree of its collapsed
    twin, every shape with up to seven leaves parsed from its code, and a
    10^5-simplex caterpillar's tree."""
    cases = [(MergeTree(helpers.reference_shape_code(root), helpers.reference_values(root)), f)
             for *_, functions in helpers.small_corpus() for f, _, root in functions]
    cases += [(induce_merge_tree(g), g) for *_, functions in helpers.small_corpus() for _, g, _ in functions]
    cases += [(parse_shape_code(code), None) for leaves in range(1, 8) for code in all_shape_codes(leaves)]
    big = big_caterpillar()
    cases.append((induce_merge_tree(big), big))
    return tuple((tree, f, joins_of_two_leaves(tree.code)) for tree, f in cases)


def test_impasse_count_reads_the_shape_code():
    def mismatches(count) -> list:
        return [tree for tree, _, expected in impasse_cases() if count(tree) != expected]

    assert mismatches(MergeTree.impasse_count) == []
    # the tree induced from each case's function, so a reference tree's count is read a second way
    assert [f for _, f, expected in impasse_cases() if f and induce_merge_tree(f).impasse_count() != expected] == []
    # doctored: a join whose left child alone is a leaf is no impasse
    assert mismatches(lambda tree: tree.shape_code().count("(•")) != []


def test_impasses_are_the_local_minima_of_the_edge_order():
    # with the gradient pairs contracted, the impasses are the critical
    # edges below every other critical edge they touch; two such edges never
    # share an end, so they form a matching and number at most ν, and the
    # least critical edge is one, so there is one whenever an edge is critical
    seen = Counter()
    for n, edges, tree, functions in helpers.small_corpus():
        nu = helpers.brute_matching_number(tree)
        for f in (g for pair in functions for g in pair[:2]):
            impasses = helpers.local_minimum_impasses(f)
            assert impasses == induce_merge_tree(f).impasse_count(), f.values
            critical_edge = any(is_edge(s) for s in f.critical_simplices)
            assert int(critical_edge) <= impasses <= nu, f.values
            seen[len(set(f.values.values())) < len(f.values), critical_edge] += 1
    # by (a gradient pair, a critical edge): every edge is paired in 29
    # functions, which read no impasse; the two without either are on one vertex
    assert seen == {(False, True): 42_020, (True, True): 10_307, (True, False): 29, (False, False): 2}


def test_parse_shape_code_rejects_malformed():
    for bad in ["", "(", "(••", "x", "(•)", "(•••)", "(••)•", "((••)•))"]:
        with pytest.raises(ValueError):
            parse_shape_code(bad)


def test_parse_shape_code_refuses_non_strings():
    # a list of the code's characters counts and indexes like the code, and
    # bytes hold its UTF-8; neither is a code
    for bad in [None, 5, b"\xe2\x80\xa2", ["(", "•", "•", ")"]]:
        with pytest.raises(MalformedMergeTreeError, match=f"must be a str, not {type(bad).__name__}"):
            parse_shape_code(bad)


def test_malformed_merge_trees_are_refused():
    # a node's tag is its position, so a misplaced tag cannot be written;
    # what can still go wrong is the code, its type, the values' type and
    # number, and a value that is a boolean or not a finite real
    for code, message in [
        ("((••)", "truncated shape code"),
        ("(•x)", "unexpected character 'x' at position 2"),
        ("(•••)", "unbalanced parentheses at position 3"),
        ("(••)•", "trailing characters after position 4"),
    ]:
        with pytest.raises(MalformedMergeTreeError) as raised:
            MergeTree(code, (None,) * 5)
        assert str(raised.value) == message
    with pytest.raises(MalformedMergeTreeError, match="must be a str, not list"):
        MergeTree(["(", "•", "•", ")"], (0, 1, 2))
    for values in [(), (2, 0), (2, 0, 1, None)]:
        with pytest.raises(MalformedMergeTreeError, match=f"3 nodes needs 3 values, not {len(values)}"):
            MergeTree("(••)", values)
    # True == 1 and False == 0, so a tree of booleans would equal, and hash
    # like, a tree of numbers that renders differently
    assert MergeTree("(••)", (1, 0, 0.5)).to_text() == "1 L\n  0 L\n  0.5 R"
    for values in [(True, False, 0.5), (1, False, 0.5), (None, None, True)]:
        with pytest.raises(MalformedMergeTreeError, match="a node value is a bool, not a number"):
            MergeTree("(••)", values)
    # any other value is a finite real, as validate requires of a function's
    # values, so that a tree compares as numbers and a quoted DOT label holds
    # no quote; a Rational is finite however large
    for bad in ['a"b', "1", b"1", math.nan, math.inf, -math.inf, 1j, [1]]:
        with pytest.raises(MalformedMergeTreeError) as raised:
            MergeTree("(••)", (0, 1, bad))
        assert str(raised.value) == f"a node value is {bad!r}, not a finite real number"
    for bad in [None, 5, 2.5]:
        with pytest.raises(MalformedMergeTreeError) as raised:
            MergeTree("•", bad)
        assert str(raised.value) == f"values must be iterable, not {type(bad).__name__}"
    for value in [Fraction(1, 3), 10**400, -2.5, 0, None]:
        assert MergeTree("•", [value]).values == (value,)
    assert MergeTree("•", [Fraction(1, 3)]).to_dot().splitlines()[2] == '  n0 [label="1/3"];'
    # a chain 3,000 joins deep is checked without recursion
    assert MergeTree("(•" * 3000 + "•" + ")" * 3000, range(6001)).values == tuple(range(6001))
    assert issubclass(MalformedMergeTreeError, ValueError)


def test_library_builders_skip_the_full_binary_check(monkeypatch):
    checks, walks = [], []
    init, node_count = MergeTree.__init__, merge_tree._node_count
    monkeypatch.setattr(
        MergeTree, "__init__", lambda tree, code, values: checks.append(code) or init(tree, code, values)
    )
    monkeypatch.setattr(merge_tree, "_node_count", lambda code: walks.append(code) or node_count(code))
    point = validate(build_tree(["a"], []), {"a": 0})
    for f in (point, helpers.deep_function(), helpers.narrow_function(), helpers.star_function()):
        induce_merge_tree(f)
    thin_from_lr("LRRL")
    assert checks == walks == []
    # a code from outside is walked once: to parse it, outside the
    # constructor, or when it is given by hand, inside it
    tree = parse_shape_code("((••)(••))")
    assert (tree.code, tree.values) == ("((••)(••))", (None,) * 7)
    assert checks == [] and walks == ["((••)(••))"]
    with pytest.raises(MalformedMergeTreeError, match="unbalanced parentheses"):
        MergeTree("(•••)", (None,) * 5)
    assert checks == ["(•••)"] and walks == ["((••)(••))", "(•••)"]


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


def assert_renders_as(tree: MergeTree, root, text: bool = True) -> None:
    """The tree's code, values and renderings equal the node-walk oracles' on root."""
    assert tree.shape_code() == helpers.reference_shape_code(root)
    assert tree.values == helpers.reference_values(root)
    assert tree.to_dot() == helpers.reference_dot(root)
    if text:
        assert tree.to_text() == helpers.reference_text(root)


def thin_root(seq: str):
    """The value-free thin tree of an LR string as nodes, impasse first:
    entry i says on which side internal node i + 1 hangs below node i."""
    leaf = helpers.Node(None)
    node = helpers.Node(None, leaf, leaf)
    for step in reversed(seq):
        node = helpers.Node(None, node, leaf) if step == "L" else helpers.Node(None, leaf, node)
    return node


def nodes_of(tree: MergeTree):
    """The tree's root as a helpers.Node, built from its code and values with
    an explicit stack, so at any depth."""
    values, open_joins = iter(tree.values), [[]]  # per open join: its value, then its finished children
    for c in tree.code:
        if c == "(":
            open_joins.append([next(values)])
        else:
            node = helpers.Node(*open_joins.pop()) if c == ")" else helpers.Node(next(values))
            open_joins[-1].append(node)
    (root,) = open_joins[0]
    return root


def bench_documents(seed: int) -> list:
    """The large_documents workload's 2,000-vertex documents of a seed, made
    by the benchmark's own input module, which imports only the standard
    library."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [doc["original"] for doc in module.workload_inputs("large_documents", seed)["documents"]]


def test_renderings_match_the_node_walk_oracles():
    # the code, text and DOT read off the stored code and values equal what
    # a walk over the nodes of an independently built tree gives
    for *_, functions in helpers.small_corpus():
        for f, g, reference in functions:
            assert_renders_as(induce_merge_tree(f), reference)
            assert_renders_as(induce_merge_tree(g), helpers.reference_merge_tree(g))
    for leaves in range(1, 8):
        for code, shape in zip(all_shape_codes(leaves), all_shapes(leaves), strict=True):
            assert_renders_as(parse_shape_code(code), shape)
    for length in range(9):
        for steps in itertools.product("LR", repeat=length):
            assert_renders_as(thin_from_lr("".join(steps)), thin_root("".join(steps)))
    # values that are no int, which the renderings format one by one: floats,
    # integral or not, a Fraction, an int past a float's range, and None
    odd = [2.0, 2.5, Fraction(7, 3), 10**400, None]
    for leaves in range(1, 5):
        for code, shape in zip(all_shape_codes(leaves), all_shapes(leaves)):
            for k in range(len(odd)):
                values = list(itertools.islice(itertools.cycle(odd[k:] + odd[:k]), 2 * leaves - 1))
                assert_renders_as(MergeTree(code, values), relabel(shape, iter(values)))
    names = ["a", "b", "c", "d"]
    f = validate(build_tree(names, zip(names, names[1:])), {
        "a": 2.0, "b": Fraction(1, 3), "c": 2.5, "d": 10**400,
        ("a", "b"): Fraction(7, 3), ("b", "c"): 3.0, ("c", "d"): 10**400 + 1,
    })
    assert_renders_as(induce_merge_tree(f), helpers.reference_merge_tree(f))
    assert induce_merge_tree(f).to_text().splitlines()[:2] == [f"{10**400 + 1} L", "  3 L"]
    # at 2,000 vertices and at 10^5 simplices the nodes are those built from
    # the code and values; text is left out at 10^5, where it grows with the
    # square of the depth
    gc.disable()
    try:
        for doc in bench_documents(1):
            tree = induce_merge_tree(parse_morse_document(json.dumps(doc)))
            assert tree.node_count > 1_000
            assert_renders_as(tree, nodes_of(tree))
        tree = induce_merge_tree(big_caterpillar())
        assert_renders_as(tree, nodes_of(tree), text=False)
        by_hand = MergeTree(tree.code, tree.values)
        assert by_hand == tree
        assert (by_hand.shape_code(), by_hand.to_dot()) == (tree.shape_code(), tree.to_dot())
    finally:
        gc.enable()


def test_renderers_refuse_a_value_too_long_to_print():
    # Python converts no int of more than sys.get_int_max_str_digits() digits
    # to str; each renderer says so with a typed error, and leaves the limit
    limit = sys.get_int_max_str_digits()
    message = f"a value has more than sys.get_int_max_str_digits() = {limit} digits"
    vertex, names = build_tree(["a"], []), ["a", "b"]
    edge_tree = build_tree(names, [names])
    for huge in [10**5000, Fraction(10**4999 + 1, 3)]:
        # the one value of a vertex, and a join's value beside small ones
        for f in [validate(vertex, {"a": huge}), validate(edge_tree, {"a": 0, "b": 1, ("a", "b"): huge})]:
            merge, diagram = induce_merge_tree(f), persistence_diagram(f)
            for render in (merge.to_text, merge.to_dot, diagram.to_text):
                with pytest.raises(UnprintableValueError) as raised:
                    render()
                assert str(raised.value) == message
    assert issubclass(UnprintableValueError, TreemorseError) and issubclass(UnprintableValueError, ValueError)
    assert sys.get_int_max_str_digits() == limit
    # a value of as many digits as the limit allows prints as str prints it
    most = 10 ** (limit - 1)
    f = validate(edge_tree, {"a": 0, "b": 1, ("a", "b"): most})
    assert induce_merge_tree(f).to_text() == f"{most} L\n  0 L\n  1 R"
    assert induce_merge_tree(f).to_dot().splitlines()[2] == f'  n0 [label="{most}"];'
    assert persistence_diagram(f).to_text() == f"0 inf\n1 {most}"


def assert_same_merge_tree(actual: MergeTree, reference) -> None:
    assert MergeTree(actual.code, actual.values) == actual  # the constructor rechecks the assembled code
    # equal codes and equal preorder values: the same values in the same
    # positions, so under the same tags
    assert actual.shape_code() == helpers.reference_shape_code(reference)
    assert actual.values == helpers.reference_values(reference)


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
        assert merge.impasse_count() == joins_of_two_leaves(helpers.reference_shape_code(reference))
