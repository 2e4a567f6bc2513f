import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treemorse import (
    build_tree,
    count_merge_classes,
    count_realizable_on_star,
    enumerate_critical_dmfs,
    enumerate_thin,
    induce_merge_tree,
    lr_sequence,
    merge_equivalent,
    realize_on_star,
    star_graph,
    thin_from_lr,
    validate,
)
from treemorse.errors import MalformedSequenceError, NonPositiveSizeError, NotThinError


def test_star_graph_shape():
    star = star_graph(3)
    assert star.center == "c"
    assert star.edge_count == 3
    assert star.tree.degree("c") == 3
    assert all(star.tree.degree(f"l{i}") == 1 for i in (1, 2, 3))
    with pytest.raises(ValueError):
        star_graph(0)


def test_sizes_must_be_positive_integers():
    # a bool is an int to compare and count, but no size; neither is a float
    # or a string, whatever it holds
    for build in (star_graph, enumerate_thin, count_realizable_on_star):
        for bad in (True, False, 2.5, 3.0, "3", None, 0, -1):
            with pytest.raises(NonPositiveSizeError, match=f"must be a positive integer, not {bad!r}"):
                build(bad)
    assert issubclass(NonPositiveSizeError, ValueError)
    assert (star_graph(1).edge_count, len(enumerate_thin(1)), count_realizable_on_star(1)) == (1, 1, 1)


def test_lr_of_examples():
    assert lr_sequence(induce_merge_tree(helpers.narrow_function())) == "LR"
    single_edge = validate(
        build_tree(["u", "v"], [("u", "v")]), {"u": 0, "v": 1, ("u", "v"): 2}
    )
    assert lr_sequence(induce_merge_tree(single_edge)) == ""


def test_lr_rejects_non_thin_trees():
    with pytest.raises(NotThinError):
        lr_sequence(induce_merge_tree(helpers.deep_function()))
    single_node = induce_merge_tree(
        validate(build_tree(["a"], []), {"a": 0})
    )
    with pytest.raises(NotThinError):
        lr_sequence(single_node)


def test_thin_from_lr_rejects_other_characters():
    for bad in ["LXR", "lr", "L R", "01"]:
        with pytest.raises(MalformedSequenceError):
            thin_from_lr(bad)
    # a sequence of the right letters that is no str
    for bad in [None, ["L", "R"], ("L",), b"LR", 5]:
        with pytest.raises(MalformedSequenceError, match=f"must be a str, not {type(bad).__name__}"):
            thin_from_lr(bad)


def test_thin_from_lr_smallest_cases():
    point = thin_from_lr("")
    assert point.node_count == 3
    assert point.values == (None, None, None)
    assert point.shape_code() == "(••)"

    left = thin_from_lr("L")
    assert left.shape_code() == "((••)•)"
    right = thin_from_lr("R")
    assert right.shape_code() == "(•(••))"


def test_thin_from_lr_of_a_deep_sequence():
    # 3,001 internal nodes: deeper than the recursion limit
    tree = thin_from_lr("L" * 3000)
    assert tree.impasse_count() == 1
    assert tree.node_count - tree.shape_code().count("•") == 3001
    assert lr_sequence(tree) == "L" * 3000


def test_lr_round_trip_on_all_short_sequences():
    for length in range(8):
        for steps in itertools.product("LR", repeat=length):
            seq = "".join(steps)
            tree = thin_from_lr(seq)
            assert tree.is_thin()
            assert tree.node_count - tree.shape_code().count("•") == length + 1
            assert tree.shape_code().count("•") == length + 2
            assert lr_sequence(tree) == seq


def test_lr_sequence_matches_a_node_walk():
    # lr_sequence splits the shape code at each "("; this walks down the
    # path, one join at a time, until both children are leaves
    def walk(tree) -> str:
        code, i, steps = tree.shape_code(), 0, []  # code[i] opens the join on the path
        while not code.startswith("(••)", i):
            # the one internal child continues the path; a leaf on the left
            # puts the right child's "(" after it
            i, step = (i + 2, "R") if code[i + 1] == "•" else (i + 1, "L")
            steps.append(step)
        return "".join(steps)

    thin = [tree for k in range(1, 11) for tree in enumerate_thin(k)]
    assert len(thin) == 2 ** 10 - 1
    induced = [
        tree
        for *_, functions in helpers.small_corpus()
        for f, g, _ in functions
        for tree in (induce_merge_tree(f), induce_merge_tree(g))
        if tree.impasse_count() == 1
    ]
    assert induced
    assert [tree for tree in thin + induced if lr_sequence(tree) != walk(tree)] == []


def test_round_trip_through_a_valued_tree():
    narrow = induce_merge_tree(helpers.narrow_function())
    rebuilt = thin_from_lr(lr_sequence(narrow))
    assert merge_equivalent(narrow, rebuilt)


def test_enumerate_thin():
    assert [t.shape_code() for t in enumerate_thin(1)] == ["(••)"]
    assert [t.shape_code() for t in enumerate_thin(2)] == [
        "((••)•)", "(•(••))",
    ]
    for n in range(1, 7):
        trees = enumerate_thin(n)
        assert len(trees) == 2 ** (n - 1)
        codes = {t.shape_code() for t in trees}
        assert len(codes) == len(trees)
        assert all(t.is_thin() for t in trees)
        assert all(t.node_count - t.shape_code().count("•") == n for t in trees)
    with pytest.raises(ValueError):
        enumerate_thin(0)


def test_realization_of_the_worked_example():
    star, f = realize_on_star(thin_from_lr("LRRL"))
    assert star.center == "2"
    assert star.edge_count == 5
    assert star.tree.degree("2") == 5
    assert sorted(star.tree.vertices) == ["0", "1", "2", "3", "4", "5"]
    assert all(f(v) == int(v) for v in star.tree.vertices)
    assert {e: f(e) for e in star.tree.edges} == {
        ("0", "2"): 9,
        ("1", "2"): 7,
        ("2", "3"): 6,
        ("2", "4"): 8,
        ("2", "5"): 10,
    }
    induced = induce_merge_tree(f)
    assert lr_sequence(induced) == "LRRL"
    assert merge_equivalent(induced, thin_from_lr("LRRL"))


def test_realization_of_the_single_impasse():
    star, f = realize_on_star(thin_from_lr(""))
    assert star.center == "0"
    assert star.edge_count == 1
    assert f("0") == 0 and f("1") == 1 and f(("0", "1")) == 2
    assert lr_sequence(induce_merge_tree(f)) == ""


def test_realization_rejects_non_thin_trees():
    with pytest.raises(NotThinError):
        realize_on_star(induce_merge_tree(helpers.deep_function()))


def test_realization_is_deterministic():
    a = realize_on_star(thin_from_lr("RLLR"))[1]
    b = realize_on_star(thin_from_lr("RLLR"))[1]
    assert a.values == b.values


def test_realizations_are_injective_and_faithful():
    # every thin tree with up to 6 internal nodes, and one whose sequence
    # has 3,000 entries
    cases = [(n, thin) for n in range(1, 7) for thin in enumerate_thin(n)]
    rng = random.Random(3000)
    cases.append((3001, thin_from_lr("".join(rng.choice("LR") for _ in range(3000)))))
    for n, thin in cases:
        star, f = realize_on_star(thin)
        assert star.edge_count == n
        assert star.tree.degree(star.center) == n
        assert sorted(f.values.values()) == list(range(2 * n + 1))
        assert len(f.critical_simplices) == 2 * n + 1
        induced = induce_merge_tree(f)
        assert merge_equivalent(induced, thin)
        assert lr_sequence(induced) == lr_sequence(thin)


def test_star_class_counts_match_the_oracle():
    for k in range(1, 5):
        expected = count_realizable_on_star(k)
        assert expected == 2 ** (k - 1)
        assert expected == count_merge_classes(star_graph(k).tree)
    with pytest.raises(ValueError):
        count_realizable_on_star(0)


def test_star_classes_are_exactly_the_thin_shapes():
    for k in range(1, 4):
        star = star_graph(k)
        induced = {
            induce_merge_tree(f).shape_code()
            for f in enumerate_critical_dmfs(star.tree)
        }
        assert induced == {t.shape_code() for t in enumerate_thin(k)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_long_sequences_round_trip(data):
    length = data.draw(st.integers(min_value=0, max_value=40))
    seq = "".join(
        data.draw(st.sampled_from("LR")) for _ in range(length)
    )
    tree = thin_from_lr(seq)
    assert lr_sequence(tree) == seq
    star, f = realize_on_star(tree)
    assert merge_equivalent(induce_merge_tree(f), tree)
