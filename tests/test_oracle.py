import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import helpers
import treemorse
from treemorse import (
    DEFAULT_SIMPLEX_BUDGET,
    MorseFunction,
    build_tree,
    check_invariants,
    count_merge_classes,
    enumerate_critical_dmfs,
    induce_merge_tree,
    validate,
)
from treemorse.errors import BudgetExceededError, NonPositiveSizeError, TreemorseError
from treemorse.complexes import SimplicialTree
from treemorse.merge_tree import LEAF_GLYPH
from treemorse.oracle import (
    WITNESS_CAP,
    _final_tally,
    _fold,
    _merge_shapes,
    _mirror,
    _splits,
    _witness,
)


def single_edge():
    return build_tree(["u", "v"], [("u", "v")])


def impasse_values(code: str, values: tuple) -> list:
    """The value of each join written "(••)" in code, read from the preorder
    values at its position: the k-th node is the k-th character not ")"."""
    at = [i for i, c in enumerate(code) if c != ")"]
    return [values[k] for k, i in enumerate(at) if code.startswith("(••)", i)]


NON_TREES = {
    "triangle": ({"a", "b", "c"}, {("a", "b"), ("b", "c"), ("a", "c")}),
    "two isolated vertices": ({"a", "b"}, set()),
    "dangling edge": ({"a"}, {("a", "b")}),
}


@pytest.mark.parametrize("vertices, edges", NON_TREES.values(), ids=NON_TREES)
def test_a_hand_built_non_tree_never_reaches_a_reading(vertices, edges):
    # the leaf greedy behind the matching number and the top-edge recursion
    # behind the counts are exact only on trees; the constructor must raise
    # before any of them runs, where they would answer wrongly or KeyError
    readings = (
        lambda tree: tree.matching_number(),
        count_merge_classes,
        check_invariants,
        lambda tree: list(enumerate_critical_dmfs(tree)),
    )
    for read in readings:
        with pytest.raises(TreemorseError):
            read(SimplicialTree(frozenset(vertices), frozenset(edges)))


def test_counts_on_smallest_trees():
    assert len(list(enumerate_critical_dmfs(single_edge()))) == 2
    assert len(list(enumerate_critical_dmfs(helpers.path3_tree()))) == 16


def test_counts_match_permutation_filter():
    shapes = [
        build_tree(["a", "b"], [("a", "b")]),
        helpers.path3_tree(),
        build_tree(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")]),
        build_tree(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
    ]
    for tree in shapes:
        # the same labelings in the same order, each with its dict order
        enumerated = [list(f.values.items()) for f in enumerate_critical_dmfs(tree)]
        filtered = [list(position.items()) for position in helpers.brute_extensions(tree)]
        assert enumerated == filtered
        assert len(filtered) == helpers.extension_count(tree)


def test_enumeration_is_deterministic_and_duplicate_free():
    tree = helpers.path3_tree()
    first = [f.values for f in enumerate_critical_dmfs(tree)]
    second = [f.values for f in enumerate_critical_dmfs(tree)]
    assert first == second
    as_tuples = {tuple(sorted(v.items(), key=str)) for v in first}
    assert len(as_tuples) == len(first)


def test_enumeration_starts_with_sorted_vertices():
    first = next(iter(enumerate_critical_dmfs(helpers.path3_tree())))
    assert first.values == {
        "a": 0, "b": 1, "c": 2, ("a", "b"): 3, ("b", "c"): 4,
    }


def test_every_enumerated_function_is_a_critical_dmf():
    tree = build_tree(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    n = tree.simplex_count
    for f in enumerate_critical_dmfs(tree):
        validate(tree, f.values)
        assert sorted(f.values.values()) == list(range(n))
        assert len(f.critical_simplices) == n


def test_enumerated_labelings_store_what_the_check_finds():
    # enumerate_critical_dmfs skips the constructor's check, as its
    # labelings are valid by construction; the pairs and least value it
    # stores in place of the check's must be the ones the check finds
    for n, edges, tree, functions in helpers.small_corpus():
        for f, _, _ in functions:
            checked = MorseFunction(f.domain, f.values)
            assert (f._pairs, f._least) == (checked._pairs, checked._least), (edges, f.values)


def test_sweep_matches_both_merge_tree_builders():
    # check_invariants reads the weighted top-edge recursion, never a
    # labeling; hold its tally to the merge trees that both builders
    # assemble from every labeling the sweep visits, the literal reference
    # among them, so the invariants cannot become true by construction
    for n, edges, tree, functions in helpers.small_corpus():
        # the enumerator under test builds the corpus; the down-set count is independent
        assert len(functions) == helpers.extension_count(tree), edges
        splits, memo = _final_tally(tree, DEFAULT_SIMPLEX_BUDGET)
        simplices = list(tree.simplices())
        weighted = Counter()
        for (shape, on_impasse), count in memo[next(iter(splits))].items():
            nodes, k = len(shape) - shape.count(")"), shape.count("(••)")
            on = frozenset(simplices[v] for v in range(n) if on_impasse >> v & 1)
            weighted[shape, nodes, k, on] += count
        induced, referenced = Counter(), Counter()
        for f, _, reference in functions:
            f = validate(tree, f.values)
            # critical labelings are injective, so values name simplices
            simplex_at = {value: s for s, value in f.values.items()}
            merge, reference_code = induce_merge_tree(f), helpers.reference_shape_code(reference)
            for built, code, values, impasses in (
                (induced, merge.shape_code(), merge.values, merge.impasse_count()),
                (referenced, reference_code, helpers.reference_values(reference), reference_code.count("(••)")),
            ):
                on = frozenset(w for value in impasse_values(code, values) for w in simplex_at[value])
                built[(code, len(values), impasses, on)] += 1
        for built in (induced, referenced):
            assert built == weighted, edges
    assert sum(len(functions) for *_, functions in helpers.small_corpus()) == 26_179


def test_final_states_of_the_three_vertex_path():
    # the tally maps each final state, (root shape code, mask of vertices on
    # impasse edges), to the labelings that end in it; the impasse count is
    # read off the code
    splits, memo = _final_tally(helpers.path3_tree(), DEFAULT_SIMPLEX_BUDGET)
    assert list(memo[next(iter(splits))].items()) == [
        (("(•(••))", 0b110), 2),
        (("((••)•)", 0b110), 6),
        (("((••)•)", 0b011), 6),
        (("(•(••))", 0b011), 2),
    ]


def test_mirror_is_the_code_read_backwards_with_parentheses_swapped():
    # the join puts the other side's code in mirrored, so on every shape of
    # every tree with up to six vertices _mirror must agree with a mirror
    # built one character at a time, undo itself, and keep the shapes
    swap = {"(": ")", ")": "(", LEAF_GLYPH: LEAF_GLYPH}
    codes = 0
    for n in range(1, 7):
        for edges in helpers.trees_up_to_iso(n):
            shapes = _merge_shapes(helpers.tree_from_edges(n, edges), DEFAULT_SIMPLEX_BUDGET)
            for code in shapes:
                assert _mirror(code) == "".join(swap[c] for c in reversed(code)), code
                assert _mirror(_mirror(code)) == code
            assert {_mirror(code) for code in shapes} == shapes, edges
            codes += len(shapes)
    assert codes == 253


def test_fold_joins_each_set_once_smallest_first():
    # _merge_shapes and _final_tally are two joins on one fold: it must call
    # join once per set of _splits, by increasing size, with every smaller
    # set in memo, and give a single vertex, which join leaves empty, leaf
    leaf = object()
    for n in range(1, 7):
        for edges in helpers.trees_up_to_iso(n):
            splits = _splits(helpers.tree_from_edges(n, edges), DEFAULT_SIMPLEX_BUDGET)
            calls = []

            def join(part, sides, memo):
                assert sides is splits[part]
                assert part not in memo
                assert {p for p in splits if p.bit_count() < part.bit_count()} <= memo.keys()
                calls.append(part)
                return len(sides)

            memo = _fold(splits, leaf, join)
            assert sorted(calls) == sorted(splits), edges
            assert [p.bit_count() for p in calls] == sorted(p.bit_count() for p in calls), edges
            assert list(memo) == calls
            for part, value in memo.items():
                assert value is leaf if part.bit_count() == 1 else value == len(splits[part]) > 0, edges


def test_the_recursion_answers_as_pinned(monkeypatch):
    # the report, its witnesses and the class count on the 25 trees with up
    # to seven vertices, each at budget N; with the matching number patched
    # to 0 every witness is named, in the tally's order
    trees = [helpers.tree_from_edges(n, e) for n in range(1, 8) for e in helpers.trees_up_to_iso(n)]
    assert len(trees) == 25
    answers = [[check_invariants(t, budget=t.simplex_count).to_dict(), count_merge_classes(t, budget=t.simplex_count)]
               for t in trees]
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == "c1e17da82cb6e4536b3434c1527cae4ca579c70f74c88234f6f90013d1a4eff8"
    monkeypatch.setattr(SimplicialTree, "matching_number", lambda self: 0)
    reports = [check_invariants(t, budget=t.simplex_count).to_dict() for t in trees]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "128a7bea9566deb215a5a4f63b6e67d5051758a7f713338f8a5f9b13c23d1009"


def test_every_tally_entry_has_a_witness():
    # a failed check names each failing entry by _witness's labeling, so on
    # every tree with up to six vertices every entry's witness must be a
    # labeling by 0..N-1 that both merge-tree builders turn back into the
    # entry's root code and impasse vertices; the entries' codes are the
    # shapes count_merge_classes counts
    entries = 0
    for n in range(1, 7):
        for edges in helpers.trees_up_to_iso(n):
            tree = helpers.tree_from_edges(n, edges)
            simplices = list(tree.simplices())
            splits, memo = _final_tally(tree, DEFAULT_SIMPLEX_BUDGET)
            whole = next(iter(splits))
            assert {code for code, _ in memo[whole]} == _merge_shapes(tree, DEFAULT_SIMPLEX_BUDGET), edges
            for code, on_impasse in memo[whole]:
                order = _witness(splits, memo, whole, (code, on_impasse))
                assert sorted(order) == list(range(len(simplices))), edges
                f = validate(tree, {simplices[s]: label for label, s in enumerate(order)})
                simplex_at = {value: s for s, value in f.values.items()}
                on = {simplices[v] for v in range(n) if on_impasse >> v & 1}
                merge, reference = induce_merge_tree(f), helpers.reference_merge_tree(f)
                for written, values in (
                    (merge.shape_code(), merge.values),
                    (helpers.reference_shape_code(reference), helpers.reference_values(reference)),
                ):
                    assert written == code, (edges, order)
                    assert {w for value in impasse_values(code, values) for w in simplex_at[value]} == on, (edges, order)
                entries += 1
    assert entries == 1_059


WITNESS_SCRIPT = """
import helpers
from treemorse.oracle import _final_tally, _witness
for n in range(2, 7):
    for edges in helpers.trees_up_to_iso(n):
        splits, memo = _final_tally(helpers.tree_from_edges(n, edges), 11)
        whole = next(iter(splits))
        print([(key, _witness(splits, memo, whole, key)) for key in memo[whole]])
"""


def test_witnesses_do_not_depend_on_the_hash_seed():
    # a tree's edges are a frozenset, iterated in string-hash order; the
    # splits follow the sorted edges instead, so the tally's order and each
    # witness are the same in every interpreter
    path = [str(Path(treemorse.__file__).parents[1]), str(Path(helpers.__file__).parent)]
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(path)}
        result = subprocess.run([sys.executable, "-c", WITNESS_SCRIPT], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        runs.append(result.stdout)
    assert runs[0] == runs[1]
    assert runs[0].count("\n") == 13


def test_star_with_eight_leaves_is_checked_quickly():
    # the tally's work follows the star's connected vertex sets, not its 8!
    # automorphisms, its search states or its labelings
    star = helpers.tree_from_edges(9, [("v0", f"v{i}") for i in range(1, 9)])
    start = time.perf_counter()
    report = check_invariants(star, budget=17)
    elapsed = time.perf_counter() - start
    assert report.function_count == helpers.extension_count(star) == 416_179_814_400
    assert report.ok
    assert (report.min_impasse_count, report.max_impasse_count) == (1, 1)
    assert elapsed < 1.0


def test_failing_star_with_eight_leaves_is_reported_quickly(monkeypatch):
    # every labeling fails once the matching number reads 0; the witnesses
    # are walked back through the tally, not searched for among the star's
    # labelings or states
    monkeypatch.setattr(SimplicialTree, "matching_number", lambda self: 0)
    star = helpers.tree_from_edges(9, [("v0", f"v{i}") for i in range(1, 9)])
    start = time.perf_counter()
    report = check_invariants(star, budget=17)
    elapsed = time.perf_counter() - start
    assert report.function_count == 416_179_814_400
    assert not report.ok
    for check in report.checks:
        failing = check.name == "impasse count <= matching number"
        assert check.failed == (report.function_count if failing else 0), check.name
        assert len(check.witnesses) == (WITNESS_CAP if failing else 0), check.name
    assert elapsed < 1.0


def test_final_states_keep_nothing_between_calls():
    # the splits, the tally's memo and the placement's memo live for one
    # call; one that outlived it would mean another answer in the next call
    path4 = helpers.tree_from_edges(4, [("v0", "v1"), ("v1", "v2"), ("v2", "v3")])
    star4 = helpers.tree_from_edges(4, [("v0", "v1"), ("v0", "v2"), ("v0", "v3")])
    trees = (path4, star4, path4)
    runs = [(check_invariants(tree).to_dict(), count_merge_classes(tree)) for tree in trees]
    assert runs[0] == runs[2]
    assert [classes for _, classes in runs] == [5, 4, 5]
    assert [report["functions"] for report, _ in runs] == [helpers.extension_count(t) for t in trees]
    assert all(report["ok"] for report, _ in runs)


def test_budget_is_enforced_eagerly():
    path7 = build_tree(
        [f"v{i}" for i in range(7)],
        [(f"v{i}", f"v{i+1}") for i in range(6)],
    )
    assert path7.simplex_count == 13 > DEFAULT_SIMPLEX_BUDGET
    with pytest.raises(BudgetExceededError):
        enumerate_critical_dmfs(path7)
    # raising the budget lets the same tree through
    stream = enumerate_critical_dmfs(path7, budget=13)
    assert len(list(itertools.islice(stream, 5))) == 5
    with pytest.raises(BudgetExceededError):
        count_merge_classes(path7)
    with pytest.raises(BudgetExceededError):
        check_invariants(path7)


def test_a_budget_that_is_not_a_positive_integer_is_refused():
    # a budget is a size, checked as star_graph checks its edge count; a
    # positive one the tree exceeds stays an exceeded budget
    tree = build_tree(["a", "b"], [("a", "b")])
    entries = (enumerate_critical_dmfs, count_merge_classes, check_invariants)
    for budget in [None, "x", True, False, 2.5, 3.0, 0, -1]:
        for entry in entries:
            with pytest.raises(NonPositiveSizeError) as raised:
                entry(tree, budget=budget)
            assert str(raised.value) == f"a simplex budget must be a positive integer, not {budget!r}"
    for entry in entries:
        with pytest.raises(BudgetExceededError, match="^3 simplices exceed the budget of 1$"):
            entry(tree, budget=1)
    assert [len(list(enumerate_critical_dmfs(tree, budget=3))), count_merge_classes(tree, budget=3)] == [2, 1]
    assert check_invariants(tree, budget=3).ok


def test_an_over_budget_tree_is_refused_before_its_matching_number(monkeypatch):
    # at 10^5 simplices the matching number takes tens of milliseconds,
    # and the tree would keep it cached
    calls = []
    matching_number = SimplicialTree.matching_number
    monkeypatch.setattr(SimplicialTree, "matching_number", lambda self: calls.append(self) or matching_number(self))
    path7 = helpers.tree_from_edges(7, [(f"v{i}", f"v{i + 1}") for i in range(6)])
    with pytest.raises(BudgetExceededError):
        check_invariants(path7)
    assert calls == []
    assert "_matching_number" not in vars(path7)
    assert check_invariants(path7, budget=13).matching_number == 3
    assert calls == [path7]


def test_state_search_matches_the_sweep():
    # count_merge_classes recurses on the top edge; the sweep visits every
    # labeling, so the reference shapes of its labelings are the oracle for
    # the count
    for _, edges, tree, functions in helpers.small_corpus():
        swept = {helpers.reference_shape_code(reference) for _, _, reference in functions}
        assert count_merge_classes(tree) == len(swept), edges


def test_merge_class_counts():
    assert count_merge_classes(single_edge()) == 1
    assert count_merge_classes(helpers.path3_tree()) == 2
    path4 = build_tree(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    assert count_merge_classes(path4) == 5
    star3 = build_tree(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    assert count_merge_classes(star3) == 4
    # the six trees with six vertices; `python3 bench/checks.py
    # --recount-classes` recounts them without treemorse
    six_vertex_trees = {
        "star5": ([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], 16),
        "broom4": ([(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)], 36),
        "double_star": ([(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)], 32),
        "spider113": ([(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)], 40),
        "spider122": ([(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)], 38),
        "path6": ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 42),
    }
    for name, (edges, classes) in six_vertex_trees.items():
        tree = helpers.tree_from_edges(6, [(f"v{a}", f"v{b}") for a, b in edges])
        assert count_merge_classes(tree) == classes, name
    # the eleven trees with seven vertices
    counts = [count_merge_classes(helpers.tree_from_edges(7, edges), budget=13)
              for edges in helpers.trees_up_to_iso(7)]
    assert sorted(counts) == [32, 88, 96, 96, 104, 104, 112, 132, 132, 132, 132]
    # a path realizes every full binary tree with n leaves: Catalan(n - 1)
    for n in range(2, 11):
        path = helpers.tree_from_edges(n, [(f"v{i}", f"v{i + 1}") for i in range(n - 1)])
        catalan = math.comb(2 * (n - 1), n - 1) // n
        assert count_merge_classes(path, budget=2 * n - 1) == catalan, n


def test_invariant_report_on_single_edge():
    report = check_invariants(single_edge())
    assert report.function_count == 2
    assert report.ok
    assert (report.min_impasse_count, report.max_impasse_count) == (1, 1)
    assert report.matching_number == 1
    for check in report.checks:
        assert check.checked == 2
        assert check.failed == 0
        assert check.witnesses == []


def test_invariant_report_on_single_vertex():
    report = check_invariants(build_tree(["a"], []))
    assert report.function_count == 1
    assert report.ok
    assert (report.min_impasse_count, report.max_impasse_count) == (0, 0)
    assert report.matching_number == 0


def test_invariant_report_on_the_narrow_tree():
    report = check_invariants(helpers.narrow_function().domain)
    assert report.function_count == 272
    assert report.ok
    # some labeling leaves the impasse count strictly below the matching number
    assert report.min_impasse_count == 1
    assert report.max_impasse_count == 2
    assert report.matching_number == 2


def test_report_text_and_dict():
    report = check_invariants(single_edge())
    text = report.to_text()
    assert "functions checked: 2" in text
    assert "all invariants hold" in text
    assert "impasse counts observed: 1..1 (matching number 1)" in text
    assert "witness" not in text

    data = report.to_dict()
    assert data["functions"] == 2
    assert data["ok"] is True
    assert data["matching_number"] == 1
    assert {c["name"] for c in data["checks"]} == {
        "full binary",
        "node count = critical values",
        "impasse exists (n > 1)",
        "impasse count <= matching number",
        "impasse edges disjoint",
        "critical vertices = edges + 1",
    }


def _impasse_witnesses(tree):
    """Labelings and impasse-check witnesses when nu reads 0."""
    # "a=0 b=1 a-b=2": each simplex and its label, in label order, as f.values is
    labelings = {
        " ".join(f"{'-'.join(s) if isinstance(s, tuple) else s}={x}" for s, x in f.values.items())
        for f in enumerate_critical_dmfs(tree)
    }
    report = check_invariants(tree)
    assert not report.ok
    assert report.function_count == len(labelings)
    assert [check.checked for check in report.checks] == [report.function_count] * 6
    for check in report.checks:
        if check.name != "impasse count <= matching number":
            assert check.failed == 0, check.name
            continue
        assert check.failed == report.function_count
        assert len(set(check.witnesses)) == len(check.witnesses)
        assert set(check.witnesses) <= labelings
        return len(labelings), check.witnesses


def test_witnesses_are_distinct_labelings_of_the_failing_entries(monkeypatch):
    monkeypatch.setattr(SimplicialTree, "matching_number", lambda self: 0)
    # all 16 labelings of the 3-vertex path fail, and they end in 4 tally
    # entries, 2 shapes times 2 impasse edges: heir first, then the other
    # side, then the top edge
    assert _impasse_witnesses(helpers.path3_tree()) == (16, [
        "a=0 b=1 c=2 b-c=3 a-b=4",
        "b=0 c=1 b-c=2 a=3 a-b=4",
        "a=0 b=1 a-b=2 c=3 b-c=4",
        "c=0 a=1 b=2 a-b=3 b-c=4",
    ])
    path4 = build_tree(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    count, witnesses = _impasse_witnesses(path4)
    assert (count, len(witnesses)) == (272, WITNESS_CAP)
    star3 = build_tree(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
    count, witnesses = _impasse_witnesses(star3)
    assert (count, len(witnesses)) == (288, WITNESS_CAP)


def test_a_patched_matching_number_holds_over_a_cached_one(monkeypatch):
    # the failing-path tests patch the public method, so a tree whose
    # matching number is already cached reports through the patch
    tree = helpers.path3_tree()
    assert check_invariants(tree).ok
    assert vars(tree)["_matching_number"] == 1
    monkeypatch.setattr(SimplicialTree, "matching_number", lambda self: 0)
    report = check_invariants(tree)
    assert (report.ok, report.matching_number) == (False, 0)
    assert [check.failed for check in report.checks if check.failed] == [16]


def test_labeling_counts_match_the_down_set_count():
    for n in range(1, 7):
        for edges in helpers.trees_up_to_iso(n):
            tree = helpers.tree_from_edges(n, edges)
            report = check_invariants(tree, budget=2 * n - 1)
            assert report.ok, edges
            assert report.function_count == helpers.extension_count(tree), edges
            assert all(check.checked == report.function_count for check in report.checks), edges
    # on the 7-vertex path and star the impasses range over 1..matching number
    path7 = helpers.tree_from_edges(7, [(f"v{i}", f"v{i + 1}") for i in range(6)])
    star7 = helpers.tree_from_edges(7, [("v0", f"v{i}") for i in range(1, 7)])
    for tree, nu in ((path7, 3), (star7, 1)):
        report = check_invariants(tree, budget=13)
        assert report.ok
        assert report.function_count == helpers.extension_count(tree)
        assert all(check.checked == report.function_count for check in report.checks)
        assert (report.min_impasse_count, report.max_impasse_count) == (1, nu)
        assert report.matching_number == nu
