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

from .complexes import is_edge
from .errors import DomainMismatchError, MorseValidationError
from .merge_tree import format_value
from .morse import MorseFunction
from .union_find import UnionFind


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
    """Elder rule over the sublevel sweep.

    Every vertex births a component at its value. A critical edge joins two
    components and the one born later dies at the edge value; a paired edge
    only attaches its own fresh vertex, which never lived alone at any
    threshold, so no pair is recorded. The last component standing is
    (global minimum, infinity).
    """
    uf = UnionFind()
    birth: dict = {}
    pairs: list[tuple[float, float]] = []
    for simplex, value in f.sweep_order():
        if not is_edge(simplex):
            uf.add(simplex)
            birth[simplex] = value
        else:
            u, v = simplex
            birth_u = birth[uf.find(u)]
            birth_v = birth[uf.find(v)]
            kept, absorbed = uf.union(u, v)
            if f.is_critical(simplex):
                if birth_u == birth_v:  # distinct vertex values, no elder ties
                    raise MorseValidationError(
                        f"critical edge {simplex!r} joins two components born at {birth_u}"
                    )
                pairs.append((max(birth_u, birth_v), value))
            birth[kept] = min(birth_u, birth_v)
            birth.pop(absorbed, None)
    survivor = uf.find(next(iter(sorted(f.domain.vertices))))
    pairs.append((birth[survivor], math.inf))
    return PersistenceDiagram(tuple(sorted(pairs)))


def persistence_equivalent(f: MorseFunction, g: MorseFunction) -> bool:
    """Equal diagrams as multisets; the two trees may differ."""
    return persistence_diagram(f) == persistence_diagram(g)
