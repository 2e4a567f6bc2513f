"""Acceptance suite: one test per shipping criterion.

Each test records its verdict through the conftest hook, so a plain
`pytest -v` run ends with an `ACCEPTANCE PASS/FAIL criterion N` line per
criterion. Wall-clock budgets are part of the criteria with one, so those
tests assert on a timer as well as on the values.
"""

import math
import time
from contextlib import contextmanager

import helpers
from conftest import record_criterion

from treemorse.equivalence import (
    forman_equivalent,
    homological_sequence,
    homologically_equivalent,
    persistence_diagram,
    persistence_equivalent,
)
from treemorse.merge_tree import induce_merge_tree, merge_equivalent
from treemorse.oracle import (
    check_invariants,
    count_merge_classes,
    enumerate_critical_dmfs,
)
from treemorse.stars import enumerate_thin, lr_sequence, realize_on_star, star_graph

INF = math.inf


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        record_criterion(number, False, text)
        raise
    record_criterion(number, True, text)


def test_criterion_1_six_vertex_construction():
    with criterion(1, "the six-vertex function induces its known 11-node merge tree"):
        start = time.perf_counter()
        tree = induce_merge_tree(helpers.deep_function())
        # the figure read by position: the root is tagged L, every left
        # child L and every right child R. Root 10 joins 9 and 3; 9 joins
        # 5 and 8; 5 joins leaves 0 and 4, 8 leaves 7 and 6, 3 leaves 2 and 1
        assert tree.shape_code() == "(((••)(••))(••))"
        assert tree.values == (10, 9, 5, 0, 4, 8, 7, 6, 3, 2, 1)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_equivalence_matrix():
    with criterion(2, "the three counterexample pairs separate the four relations"):
        start = time.perf_counter()

        # same gradient field (both empty) and same Betti sequence, but the
        # merge trees lean opposite ways
        lean_left = helpers.left_path_function()
        lean_right = helpers.right_path_function()
        assert forman_equivalent(lean_left, lean_right)
        assert homologically_equivalent(lean_left, lean_right)
        assert not merge_equivalent(
            induce_merge_tree(lean_left), induce_merge_tree(lean_right)
        )

        # same merge tree, but the gapped labeling closes a component early
        gapped = helpers.gapped_path_function()
        assert merge_equivalent(induce_merge_tree(lean_left), induce_merge_tree(gapped))
        assert not homologically_equivalent(lean_left, gapped)
        assert not persistence_equivalent(lean_left, gapped)

        # same diagram on two different trees, different merge trees
        branched = helpers.star_function()
        assert persistence_equivalent(lean_right, branched)
        assert not merge_equivalent(
            induce_merge_tree(lean_right), induce_merge_tree(branched)
        )

        assert time.perf_counter() - start < 1.0


def test_criterion_3_sequences_and_shared_diagram():
    with criterion(3, "known Betti sequences and the shared persistence diagram"):
        assert homological_sequence(helpers.left_path_function()).b0_values == (
            1,
            2,
            3,
            2,
            1,
        )
        assert homological_sequence(helpers.gapped_path_function()).b0_values == (
            1,
            2,
            1,
            2,
            1,
        )
        expected = ((0, INF), (1, 4), (2, 3))
        assert persistence_diagram(helpers.right_path_function()).pairs == expected
        assert persistence_diagram(helpers.star_function()).pairs == expected


def test_criterion_4_star_class_counts():
    with criterion(4, "merge classes on stars double with each added edge"):
        start = time.perf_counter()
        counts = [count_merge_classes(star_graph(k).tree) for k in (1, 2, 3, 4)]
        assert counts == [1, 2, 4, 8]
        assert time.perf_counter() - start < 30.0


def test_criterion_5_thin_tree_census():
    with criterion(5, "thin trees double per internal node, all codes distinct"):
        start = time.perf_counter()
        for n in range(1, 11):
            trees = enumerate_thin(n)
            assert len(trees) == 2 ** (n - 1)
            assert len({t.shape_code() for t in trees}) == len(trees)
        assert time.perf_counter() - start < 5.0


def test_criterion_6_realization_round_trip():
    with criterion(6, "realizing each small thin tree on a star reproduces it"):
        start = time.perf_counter()
        seen = 0
        for n in range(1, 8):
            for thin in enumerate_thin(n):
                _, f = realize_on_star(thin)
                induced = induce_merge_tree(f)
                assert induced.shape_code() == thin.shape_code()
                assert lr_sequence(induced) == lr_sequence(thin)
                seen += 1
        assert seen == 127
        assert time.perf_counter() - start < 10.0


def test_criterion_7_exhaustive_property_suite():
    with criterion(7, "every invariant holds across all small-tree labelings"):
        start = time.perf_counter()
        total = 0
        names = None
        for n in range(1, 7):
            for edges in helpers.trees_up_to_iso(n):
                report = check_invariants(helpers.tree_from_edges(n, edges))
                assert report.ok, report.to_text()
                assert all(check.failed == 0 for check in report.checks)
                if names is None:
                    names = {check.name for check in report.checks}
                total += report.function_count
        assert names == {
            "full binary",
            "node count = critical values",
            "impasse exists (n > 1)",
            "impasse count <= matching number",
            "impasse edges disjoint",
            "critical vertices = edges + 1",
        }
        assert total == 2_413_635
        assert time.perf_counter() - start < 120.0


def test_criterion_8_impasse_matching_gap():
    with criterion(8, "the four-vertex witness: one impasse, matching number two"):
        f = helpers.narrow_function()
        assert induce_merge_tree(f).impasse_count() == 1
        assert f.domain.matching_number() == 2


def test_criterion_9_star_functions_are_thin():
    with criterion(9, "every critical labeling of a small star has one impasse"):
        checked = 0
        for k in (1, 2, 3, 4):
            for f in enumerate_critical_dmfs(star_graph(k).tree):
                assert induce_merge_tree(f).impasse_count() == 1
                checked += 1
        assert checked == 2 + 16 + 288 + 9216
