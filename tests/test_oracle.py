import itertools
import math
from collections import Counter

import pytest

import helpers
from treemorse import (
    DEFAULT_SIMPLEX_BUDGET,
    build_tree,
    check_invariants,
    count_merge_classes,
    enumerate_critical_dmfs,
    induce_merge_tree,
    validate,
)
from treemorse.errors import BudgetExceededError
from treemorse.complexes import SimplicialTree
from treemorse.oracle import (
    WITNESS_CAP,
    LabelingSweep,
    PropertyCheck,
    _describe,
    final_states,
)


def single_edge():
    return build_tree(["u", "v"], [("u", "v")])


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
        enumerated = len(list(enumerate_critical_dmfs(tree)))
        assert enumerated == helpers.brute_extension_count(tree)


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


def test_sweep_matches_both_merge_tree_builders():
    # check_invariants reads merged search states, never a labeling; hold
    # the count-weighted final states to the merge trees that both builders
    # assemble from every labeling the sweep visits, so the invariants
    # cannot become true by construction
    labelings = 0
    for n in range(1, 6):
        for edges in helpers.trees_up_to_iso(n):
            tree = helpers.tree_from_edges(n, edges)
            final, simplices, table = final_states(tree)
            searched = Counter()
            for (_, _, shapes, on_impasse, k, _), (count, *_) in final.items():
                shape = shapes[0][0]
                on = frozenset(simplices[v] for v in range(n) if on_impasse >> v & 1)
                searched[table.shape_code(shape), table.node_count(shape), k, on] += count
            for builder in (induce_merge_tree, helpers.reference_merge_tree):
                built = Counter()
                for values in LabelingSweep(tree):
                    f = validate(tree, values)
                    merge = builder(f)
                    # critical labelings are injective, so values name simplices
                    simplex_at = {value: s for s, value in f.values.items()}
                    on = frozenset(w for m in merge.impasses() for w in simplex_at[m.value])
                    built[merge.shape_code(), merge.node_count, merge.impasse_count(), on] += 1
                assert searched == built, edges
            labelings += sum(built.values())
    assert labelings == 26_179


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


def test_state_search_matches_the_sweep():
    # count_merge_classes merges equal enumeration states; the sweep visits
    # every labeling, so the reference shapes of its labelings are the
    # oracle for the count
    for n in range(1, 6):
        for edges in helpers.trees_up_to_iso(n):
            tree = helpers.tree_from_edges(n, edges)
            swept = {
                helpers.reference_merge_tree(validate(tree, values)).shape_code()
                for values in LabelingSweep(tree)
            }
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
    # a path realizes every full binary tree with n leaves: Catalan(n - 1)
    for n in range(2, 8):
        path = helpers.tree_from_edges(n, [(f"v{i}", f"v{i + 1}") for i in range(n - 1)])
        catalan = math.comb(2 * (n - 1), n - 1) // n
        assert count_merge_classes(path, budget=2 * n - 1) == catalan, n


def test_property_check_records_witnesses():
    check = PropertyCheck("demo")
    f = helpers.left_path_function()
    check.record(True, f)
    assert (check.checked, check.failed, check.witnesses) == (1, 0, [])
    for _ in range(WITNESS_CAP + 2):
        check.record(False, f)
    assert check.failed == WITNESS_CAP + 2
    assert len(check.witnesses) == WITNESS_CAP
    assert check.witnesses[0] == "a=0 b=1 c=2 a-b=3 b-c=4"


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


def _impasse_witness_positions(tree):
    """Failures and witness positions in the enumeration when nu reads 0."""
    order = [_describe(f) for f in enumerate_critical_dmfs(tree)]
    report = check_invariants(tree)
    assert not report.ok
    assert report.function_count == len(order)
    for check in report.checks:
        if check.name != "impasse count <= matching number":
            assert check.failed == 0, check.name
            continue
        assert check.failed == report.function_count
        positions = [order.index(w) for w in check.witnesses]
        assert positions[0] == 0
        assert positions == sorted(set(positions))
        return len(order), len(positions)


def test_witnesses_are_the_earliest_labeling_of_each_failing_state(monkeypatch):
    monkeypatch.setattr(SimplicialTree, "matching_number", lambda self: 0)
    # all 16 labelings of the 3-vertex path fail, and they end in 4 states:
    # 2 shapes times 2 impasse edges
    assert _impasse_witness_positions(helpers.path3_tree()) == (16, 4)
    path4 = build_tree(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    assert _impasse_witness_positions(path4) == (272, WITNESS_CAP)


def test_labeling_counts_match_the_down_set_count():
    for n in range(1, 7):
        for edges in helpers.trees_up_to_iso(n):
            tree = helpers.tree_from_edges(n, edges)
            report = check_invariants(tree, budget=2 * n - 1)
            assert report.function_count == helpers.extension_count(tree), edges
    # on the 7-vertex path and star the impasses range over 1..matching number
    path7 = helpers.tree_from_edges(7, [(f"v{i}", f"v{i + 1}") for i in range(6)])
    star7 = helpers.tree_from_edges(7, [("v0", f"v{i}") for i in range(1, 7)])
    for tree, nu in ((path7, 3), (star7, 1)):
        report = check_invariants(tree, budget=13)
        assert report.ok
        assert report.function_count == helpers.extension_count(tree)
        assert (report.min_impasse_count, report.max_impasse_count) == (1, nu)
        assert report.matching_number == nu
