import itertools
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from treemorse import (
    MorseFunction,
    build_tree,
    forman_equivalent,
    homological_sequence,
    homologically_equivalent,
    induce_merge_tree,
    merge_equivalent,
    persistence_diagram,
    persistence_equivalent,
    validate,
)
from treemorse.errors import (
    DomainMismatchError,
    MorseValidationError,
    NotWeaklyIncreasingError,
    ValueSharedByNonIncidentError,
)

INF = math.inf


def lower_pair_function():
    """Path function pairing (c, bc); critical values 0, 2, 5."""
    return validate(
        helpers.path3_tree(),
        {"a": 0, "b": 2, "c": 3, ("a", "b"): 5, ("b", "c"): 3},
    )


def upper_pair_function():
    """Path function pairing (b, ab); same merge tree and diagram as above."""
    return validate(
        helpers.path3_tree(),
        {"a": 0, "b": 1, "c": 2, ("a", "b"): 1, ("b", "c"): 5},
    )


# ----------------------------------------------------------------- forman

def test_forman_requires_equal_domains():
    with pytest.raises(DomainMismatchError):
        forman_equivalent(helpers.left_path_function(), helpers.star_function())


def test_forman_on_fully_critical_functions():
    assert forman_equivalent(
        helpers.left_path_function(), helpers.right_path_function()
    )
    assert forman_equivalent(
        helpers.left_path_function(), helpers.gapped_path_function()
    )


def test_forman_distinguishes_gradient_fields():
    assert not forman_equivalent(lower_pair_function(), upper_pair_function())
    assert not forman_equivalent(
        helpers.left_path_function(), upper_pair_function()
    )


# ------------------------------------------------------------ homological

def test_sequences_of_examples():
    cases = [
        (helpers.left_path_function(), (1, 2, 3, 2, 1)),
        (helpers.right_path_function(), (1, 2, 3, 2, 1)),
        (helpers.gapped_path_function(), (1, 2, 1, 2, 1)),
        (helpers.narrow_function(), (1, 2, 3, 4, 3, 2, 1)),
        (helpers.deep_function(), (1, 2, 3, 2, 3, 2, 3, 4, 3, 2, 1)),
        # a paired vertex and edge enter together and leave b0 as it was
        (
            validate(
                build_tree(["u", "v"], [("u", "v")]),
                {"u": 0, "v": 1, ("u", "v"): 1},
            ),
            (1,),
        ),
    ]
    for f, expected in cases:
        assert homological_sequence(f).b0_values == expected


def test_sequence_skips_paired_steps():
    tree = build_tree(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
    )
    f = validate(
        tree,
        {"a": 0, "b": 1, "c": 2, "d": 3,
         ("a", "b"): 4, ("b", "c"): 5, ("c", "d"): 3},
    )
    assert homological_sequence(f).b0_values == (1, 2, 3, 2, 1)


def test_homological_verdicts():
    assert homologically_equivalent(
        helpers.left_path_function(), helpers.right_path_function()
    )
    assert not homologically_equivalent(
        helpers.left_path_function(), helpers.gapped_path_function()
    )
    # different underlying trees are allowed
    assert homologically_equivalent(
        helpers.right_path_function(), helpers.star_function()
    )
    assert homologically_equivalent(lower_pair_function(), upper_pair_function())


def test_single_vertex_sequence():
    f = validate(build_tree(["a"], []), {"a": 0})
    assert homological_sequence(f).entries == (1,)


def test_sequence_matches_the_literal_component_count():
    # every labeling of every tree with up to 5 vertices, each again with
    # some vertex-edge pairs collapsed
    for *_, functions in helpers.small_corpus():
        for f, g, _ in functions:
            for function in (f, g):
                assert homological_sequence(function).b0_values == helpers.reference_b0_sequence(function)


# ------------------------------------------------------------ persistence

def test_diagrams_of_examples():
    cases = [
        (helpers.left_path_function(), ((0, INF), (1, 3), (2, 4))),
        (helpers.right_path_function(), ((0, INF), (1, 4), (2, 3))),
        (helpers.gapped_path_function(), ((0, INF), (1, 2), (3, 4))),
        (helpers.star_function(), ((0, INF), (1, 4), (2, 3))),
        (helpers.narrow_function(), ((0, INF), (1, 5), (2, 6), (3, 4))),
        (
            helpers.deep_function(),
            ((0, INF), (1, 10), (2, 3), (4, 5), (6, 9), (7, 8)),
        ),
    ]
    for f, expected in cases:
        assert persistence_diagram(f).pairs == expected


def test_diagram_of_single_vertex():
    f = validate(build_tree(["a"], []), {"a": 0})
    assert persistence_diagram(f).pairs == ((0, INF),)


def test_paired_edges_leave_no_finite_pair():
    assert persistence_diagram(lower_pair_function()).pairs == (
        (0, INF), (2, 5),
    )
    assert persistence_diagram(upper_pair_function()).pairs == (
        (0, INF), (2, 5),
    )
    single_edge = validate(
        build_tree(["u", "v"], [("u", "v")]), {"u": 0, "v": 1, ("u", "v"): 1}
    )
    assert persistence_diagram(single_edge).pairs == ((0, INF),)


def test_diagram_matches_the_literal_elder_rule():
    # every labeling of every tree with up to 5 vertices, each again with
    # some vertex-edge pairs collapsed
    for *_, functions in helpers.small_corpus():
        for f, g, _ in functions:
            for function in (f, g):
                assert persistence_diagram(function).pairs == helpers.reference_persistence_diagram(function)


def test_corpus_twins_carry_gradient_pairs():
    # the two literal-oracle tests above rely on collapse_pairs for their
    # paired inputs; a twin has a gradient pair when two of its simplices
    # share a value, read straight off the values
    paired = 0
    for n, edges, _, functions in helpers.small_corpus():
        shared = sum(len(set(g.values.values())) < len(g.values) for _, g, _ in functions)
        assert shared > 0 or n == 1, edges
        paired += shared
    assert paired == 10_336


def test_diagram_text():
    text = persistence_diagram(helpers.right_path_function()).to_text()
    assert text == "0 inf\n1 4\n2 3"


def test_persistence_verdicts():
    assert not persistence_equivalent(
        helpers.left_path_function(), helpers.right_path_function()
    )
    # different trees carrying the same diagram
    assert persistence_equivalent(
        helpers.right_path_function(), helpers.star_function()
    )
    assert persistence_equivalent(lower_pair_function(), upper_pair_function())


def test_persistence_verdicts_skip_the_sweep_only_when_the_diagrams_must_differ():
    # pairs from the small corpus: each function with its twin, consecutive
    # labelings of one tree, the first functions of trees of different sizes,
    # and each tree's first function against itself shifted up by one
    corpus = helpers.small_corpus()
    pairs = []
    for *_, functions in corpus:
        pairs += [(f, g) for f, g, _ in functions]
        pairs += [(a, b) for (a, _, _), (b, _, _) in zip(functions, functions[1:])]
        first = functions[0][0]
        pairs.append((first, validate(first.domain, {s: x + 1 for s, x in first.values.items()})))
    firsts = [functions[0][0] for *_, functions in corpus]
    pairs += [(f, g) for f in firsts for g in firsts if len(f.domain.vertices) != len(g.domain.vertices)]
    references = {}  # by id, as a function is unhashable; every one stays alive
    for f in itertools.chain.from_iterable(pairs):
        if id(f) not in references:
            references[id(f)] = helpers.reference_persistence_diagram(f)
    skipped = {"minimum": 0, "length": 0}
    for f, g in pairs:
        ref_f, ref_g = references[id(f)], references[id(g)]
        # fresh copies, as the corpus is shared and its sweeps are cached
        a, b = MorseFunction(f.domain, f.values), MorseFunction(g.domain, g.values)
        assert persistence_equivalent(a, b) == (ref_f == ref_g)
        # the infinite pair is born at the minimum, and there is one pair per
        # critical vertex
        minimum, length = ref_f[0][0] != ref_g[0][0], len(ref_f) != len(ref_g)
        skipped["minimum"] += minimum
        skipped["length"] += length and not minimum
        swept = not (minimum or length)
        assert ("sweep" in vars(a), "sweep" in vars(b)) == (swept, swept)
    assert len(pairs) == 52_406
    assert skipped == {"minimum": 8, "length": 10_384}


def test_a_persistence_verdict_raises_the_first_functions_fault():
    tree = helpers.path3_tree()
    good = lower_pair_function()
    late = MorseFunction(tree, {**good.values, ("a", "b"): -1})  # below a and b
    shared = MorseFunction(tree, {**good.values, "a": 2})  # b's value, not incident
    late_error = (NotWeaklyIncreasingError, "f('a') = 0 exceeds f(('a', 'b')) = -1")
    shared_error = (ValueSharedByNonIncidentError, "value 2 shared by non-incident simplices 'a' and 'b'")
    for f, g, expected in [(good, late, late_error), (shared, good, shared_error), (shared, late, shared_error)]:
        with pytest.raises(MorseValidationError) as raised:
            persistence_equivalent(f, g)
        assert (type(raised.value), str(raised.value)) == expected


# ------------------------------------------------- the four are distinct

def test_forman_equivalent_but_nothing_else():
    f, g = helpers.left_path_function(), helpers.right_path_function()
    assert forman_equivalent(f, g)
    assert not merge_equivalent(induce_merge_tree(f), induce_merge_tree(g))
    assert not persistence_equivalent(f, g)


def test_merge_equivalent_but_not_homological():
    f, g = helpers.left_path_function(), helpers.gapped_path_function()
    assert merge_equivalent(induce_merge_tree(f), induce_merge_tree(g))
    assert not homologically_equivalent(f, g)
    assert not persistence_equivalent(f, g)


def test_persistence_equivalent_but_not_merge():
    f, g = helpers.right_path_function(), helpers.star_function()
    assert persistence_equivalent(f, g)
    assert not merge_equivalent(induce_merge_tree(f), induce_merge_tree(g))


def test_everything_but_forman():
    f, g = lower_pair_function(), upper_pair_function()
    assert merge_equivalent(induce_merge_tree(f), induce_merge_tree(g))
    assert homologically_equivalent(f, g)
    assert persistence_equivalent(f, g)
    assert not forman_equivalent(f, g)


# -------------------------------------------------------------- invariants

def assert_diagram_consistent(f):
    diagram = persistence_diagram(f)
    finite = [p for p in diagram.pairs if not math.isinf(p[1])]
    infinite = [p for p in diagram.pairs if math.isinf(p[1])]
    assert len(infinite) == 1
    assert infinite[0][0] == min(f(v) for v in f.domain.vertices)
    critical_edge_values = {
        f(s) for s in f.critical_simplices if isinstance(s, tuple)
    }
    assert {d for _, d in finite} == critical_edge_values
    assert all(b < d for b, d in finite)
    # alive pairs at each critical value reproduce the Betti sequence, which
    # the sweep and a literal component count agree on
    b0_values = homological_sequence(f).b0_values
    assert b0_values == helpers.reference_b0_sequence(f)
    for value, b0 in zip(f.critical_values, b0_values):
        alive = sum(1 for b, d in diagram.pairs if b <= value < d)
        assert alive == b0


def test_diagram_consistency_on_examples():
    for f in (
        helpers.deep_function(),
        helpers.narrow_function(),
        helpers.gapped_path_function(),
        lower_pair_function(),
    ):
        assert_diagram_consistent(f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_diagram_consistency_on_random_functions(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    trees = helpers.trees_up_to_iso(n)
    edges = trees[data.draw(st.integers(min_value=0, max_value=len(trees) - 1))]
    tree = helpers.tree_from_edges(n, edges)
    f = helpers.critical_function_from_choices(
        tree, lambda k: data.draw(st.integers(min_value=0, max_value=k - 1))
    )
    assert_diagram_consistent(f)
    assert_diagram_consistent(
        helpers.collapse_pairs(
            f, lambda k: data.draw(st.integers(min_value=0, max_value=k - 1))
        )
    )


# ---------------------------------------------------- cached readings

def test_readings_are_taken_once():
    f = helpers.deep_function()
    assert persistence_diagram(f) is persistence_diagram(f)
    assert homological_sequence(f) is homological_sequence(f)


def test_relations_compare_cached_readings(monkeypatch):
    counts = helpers.count_readings(monkeypatch)
    f, g = lower_pair_function(), upper_pair_function()
    a, b = induce_merge_tree(f), induce_merge_tree(g)
    verdicts = []
    for _ in range(3):
        verdicts.append((
            merge_equivalent(a, b),
            forman_equivalent(f, g),
            homologically_equivalent(f, g),
            persistence_equivalent(f, g),
        ))
        readings = (persistence_diagram(f), homological_sequence(g), a.shape_code(), b.impasse_count())
        # one computation of each reading per function, the first time; a
        # merge tree is its code and values, and has no reading to compute
        assert counts == {name: 2 for name in (
            "_partition", "sweep", "gradient_vector_field", "_betti", "_diagram",
        )}
    assert verdicts == [(True, False, True, True)] * 3
    diagram, sequence, code, impasses = readings
    assert (diagram.pairs, sequence.b0_values, code, impasses) == (((0, INF), (2, 5)), (1, 2, 1), "(••)", 1)


def test_a_failed_reading_caches_nothing():
    # built directly, with its edge valued below an endpoint: the sorted pass
    # raises, and so does every reading taken from it, each time it is read
    f = MorseFunction(build_tree(["a", "b"], [("a", "b")]), {"a": 0, "b": 2, ("a", "b"): 1})
    reads = (lambda: f.sweep, lambda: persistence_diagram(f), lambda: homological_sequence(f))
    for read in reads:
        errors = []
        for _ in range(2):
            with pytest.raises(MorseValidationError) as raised:
                read()
            errors.append((type(raised.value), str(raised.value)))
        assert errors == [(NotWeaklyIncreasingError, "f('b') = 2 exceeds f(('a', 'b')) = 1")] * 2
    assert not {"_partition", "sweep", "_diagram", "_betti"} & vars(f).keys()


def test_threads_racing_to_a_first_read_get_one_object():
    # the cache takes no lock: threads may all compute a first reading, but
    # every one of them must get the object stored first
    *_, corpus = helpers.small_corpus()[-1]
    functions = [MorseFunction(f.domain, f.values) for f, _, _ in corpus[:300]]
    seen = [[] for _ in range(6)]
    start = threading.Barrier(len(seen))

    def read(out: list) -> None:
        start.wait(timeout=30)
        out.extend(
            (persistence_diagram(f), homological_sequence(f), f.sweep)
            for f in functions
        )

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
    assert all(len(out) == len(functions) for out in seen)
    for first, *others in zip(*seen):
        assert all(a is b for other in others for a, b in zip(other, first))
