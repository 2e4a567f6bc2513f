"""Four ways to compare discrete Morse functions.

Merge equivalence lives with the merge tree itself; this module provides the
other three relations: equal gradient fields (Forman), equal Betti-number
sequences along the filtration, and equal sublevel persistence diagrams.
None of the three implies another, and none coincides with merge
equivalence; the test suite pins down witnesses for each separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainMismatchError
from .merge_tree import format_value
from .morse import MorseFunction


def forman_equivalent(f: MorseFunction, g: MorseFunction) -> bool:
    """Same gradient vector field on the same tree."""
    if f.domain != g.domain:
        raise DomainMismatchError("the two functions live on different trees")
    return f.gradient_vector_field == g.gradient_vector_field


@dataclass(frozen=True)
class HomologicalSequence:
    """Betti numbers (b0, b1) of each level subcomplex, by critical value."""

    entries: tuple[tuple[int, int], ...]

    @property
    def b0_values(self) -> tuple[int, ...]:
        return tuple(b0 for b0, _ in self.entries)


def homological_sequence(f: MorseFunction) -> HomologicalSequence:
    entries = []
    for _, level in f.filtration():
        b0 = level.forest.component_count
        b1 = len(level.forest.edges) - len(level.forest.vertices) + b0
        entries.append((b0, b1))  # b1 is zero on forests; kept for the record
    return HomologicalSequence(tuple(entries))


def homologically_equivalent(f: MorseFunction, g: MorseFunction) -> bool:
    """Equal Betti sequences; the two trees may differ."""
    return homological_sequence(f) == homological_sequence(g)


@dataclass(frozen=True)
class PersistenceDiagram:
    """Birth-death pairs of sublevel components, sorted by birth.

    Exactly one pair per connected domain has infinite death.
    """

    pairs: tuple[tuple[float, float], ...]

    def to_text(self) -> str:
        """One `birth death` pair per line, `inf` for infinite death."""
        lines = []
        for birth, death in self.pairs:
            shown = "inf" if math.isinf(death) else format_value(death)
            lines.append(f"{format_value(birth)} {shown}")
        return "\n".join(lines)


def persistence_diagram(f: MorseFunction) -> PersistenceDiagram:
    """Elder rule over the sublevel sweep cached on f.

    Read off the same joins (:attr:`MorseFunction.sweep`) that
    :func:`induce_merge_tree` assembles. Every vertex births a component at
    its value. A critical edge joins two components and the one born later,
    with the larger minimum, dies at the edge value; a paired edge only
    attaches its own fresh vertex, which never lived alone at any threshold,
    so it joins nothing. The last component standing is (global minimum,
    infinity).

    Raises:
        MorseValidationError: f was built without :func:`validate` and the
            sweep cannot make sense of it.
    """
    joins, global_min = f.sweep
    pairs = [(max(min_a, min_b), value) for value, ((_, min_a), (_, min_b)) in joins.items()]
    pairs.append((global_min, math.inf))
    return PersistenceDiagram(tuple(sorted(pairs)))


def persistence_equivalent(f: MorseFunction, g: MorseFunction) -> bool:
    """Equal diagrams as multisets; the two trees may differ."""
    return persistence_diagram(f) == persistence_diagram(g)
