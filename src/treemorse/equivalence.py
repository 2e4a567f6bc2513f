"""Four ways to compare discrete Morse functions.

Merge equivalence lives with the merge tree itself; this module provides the
other three relations: equal gradient fields (Forman), equal Betti-number
sequences along the sublevel filtration, and equal sublevel persistence
diagrams. The last two, like the merge tree, are read off the one sweep
cached on the function, which records the joins and the Betti sequence in
the same pass, and are cached on it too, so a relation compares cached
readings. None of the three implies another, and none coincides
with merge equivalence; the test suite pins down witnesses for each
separation.
"""

from __future__ import annotations

from .errors import DomainMismatchError
from .morse import HomologicalSequence, MorseFunction, PersistenceDiagram


def forman_equivalent(f: MorseFunction, g: MorseFunction) -> bool:
    """Same gradient vector field on the same tree."""
    if f.domain != g.domain:
        raise DomainMismatchError("the two functions live on different trees")
    return f.gradient_vector_field == g.gradient_vector_field


def homological_sequence(f: MorseFunction) -> HomologicalSequence:
    """Running b0 over the sublevel sweep cached on f, taken once and cached on f.

    On a forest b0 is #vertices - #edges, so in increasing value order a
    critical vertex adds a component and a critical edge, exactly a join of
    :attr:`MorseFunction.sweep`, removes one. The sweep counts the
    components as it goes (:attr:`Sweep.b0`); a gradient pair enters at one
    value and leaves b0 as it was.
    """
    return f._betti


def homologically_equivalent(f: MorseFunction, g: MorseFunction) -> bool:
    """Equal Betti sequences; the two trees may differ."""
    return homological_sequence(f) == homological_sequence(g)


def persistence_diagram(f: MorseFunction) -> PersistenceDiagram:
    """Elder rule over the sublevel sweep cached on f, taken once and cached on f.

    Read off the same joins (:attr:`MorseFunction.sweep`) that
    :func:`induce_merge_tree` assembles. Every vertex births a component at
    its value. A critical edge joins two components and the one born later,
    the one the sweep records beside the heir, pairs its minimum with the
    edge value; a paired edge only attaches its own fresh vertex, which
    never lived alone at any threshold, so it joins nothing. The last
    component standing is (global minimum, infinity).
    """
    return f._diagram


def persistence_equivalent(f: MorseFunction, g: MorseFunction) -> bool:
    """Equal diagrams as multisets; the two trees may differ.

    Equal diagrams share the global minimum, their first birth, and their
    length, one pair per critical vertex: both are read without a sweep or a sort.
    """
    f_count, g_count = len(f.domain.vertices) - len(f._pairs), len(g.domain.vertices) - len(g._pairs)
    if f_count != g_count or f._least != g._least:
        return False
    return persistence_diagram(f) == persistence_diagram(g)
