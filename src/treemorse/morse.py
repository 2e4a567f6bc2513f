"""Discrete Morse functions on trees and their sublevel structure.

A discrete Morse function here assigns one real value to every simplex so
that values weakly increase from a vertex into each incident edge, no value
is taken more than twice, and a repeated value is allowed only on an
incident vertex-edge pair. Each such pair is one arrow of the gradient
vector field; every unpaired simplex is critical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

from .complexes import (
    Edge,
    Forest,
    Simplex,
    SimplicialTree,
    Vertex,
    is_edge,
    simplex_sort_key,
)
from .errors import (
    MissingValueError,
    MoreThanTwoShareValueError,
    NotFiniteRealError,
    NotWeaklyIncreasingError,
    ValueSharedByNonIncidentError,
)


@dataclass(frozen=True)
class GradientVectorField:
    """The vertex-to-edge arrows given by equal-value incident pairs."""

    pairs: frozenset[tuple[Vertex, Edge]]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __contains__(self, pair: tuple[Vertex, Edge]) -> bool:
        return pair in self.pairs


@dataclass(frozen=True)
class LevelSubcomplex:
    """All simplices valued at or below a threshold; on a tree, a forest."""

    threshold: float
    forest: Forest


@dataclass(frozen=True)
class MorseFunction:
    """A discrete Morse function on a tree.

    Build through :func:`validate`; the constructor itself trusts its input
    (the enumeration oracle relies on that for speed).
    """

    domain: SimplicialTree
    values: Mapping[Simplex, float]

    def __call__(self, simplex: Simplex) -> float:
        return self.values[simplex]

    def sweep_order(self) -> list[tuple[Simplex, float]]:
        """Simplices by increasing value, a vertex before its paired edge."""
        # decorate with (value, dimension); for a valid function that pair is
        # unique, so the trailing simplex never gets compared
        decorated = [
            (value, 1 if is_edge(simplex) else 0, simplex)
            for simplex, value in self.values.items()
        ]
        decorated.sort()
        return [(simplex, value) for value, _, simplex in decorated]

    @cached_property
    def _partition(self) -> tuple[dict[float, Simplex], frozenset]:
        """(critical simplex by value, gradient pairs) in one pass.

        Everything downstream (critical sets, values, the field) unpacks
        this, so it stays a single iteration.
        """
        lone: dict[float, Simplex] = {}
        pairs = set()
        for simplex, value in self.values.items():
            other = lone.pop(value, None)
            if other is None:
                lone[value] = simplex
            else:
                vertex, e = sorted((other, simplex), key=simplex_sort_key)
                pairs.add((vertex, e))
        return lone, frozenset(pairs)

    @cached_property
    def critical_simplices(self) -> frozenset[Simplex]:
        """Simplices whose value is shared with no other simplex."""
        return frozenset(self._partition[0].values())

    @cached_property
    def critical_values(self) -> tuple[float, ...]:
        return tuple(sorted(self._partition[0]))

    def is_critical(self, simplex: Simplex) -> bool:
        return simplex in self.critical_simplices

    def critical_simplex_at(self, value: float) -> Simplex:
        """The unique critical simplex carrying this value."""
        return self._partition[0][value]

    @cached_property
    def gradient_vector_field(self) -> GradientVectorField:
        return GradientVectorField(self._partition[1])

    def _restrict(self, keep: Callable[[float], bool]) -> Forest:
        # A sublevel set of a valid function is closed under faces and acyclic,
        # so the plain constructor is safe here.
        return Forest(
            frozenset(v for v in self.domain.vertices if keep(self.values[v])),
            frozenset(e for e in self.domain.edges if keep(self.values[e])),
        )

    def level_subcomplex(self, threshold: float) -> LevelSubcomplex:
        """The subcomplex of simplices valued at or below the threshold."""
        return LevelSubcomplex(threshold, self._restrict(lambda x: x <= threshold))

    def sublevel_before(self, value: float) -> Forest:
        """Simplices valued strictly below `value`: the complex just before it."""
        return self._restrict(lambda x: x < value)

    def filtration(self) -> list[tuple[float, LevelSubcomplex]]:
        """One level subcomplex per critical value, in increasing order."""
        return [(c, self.level_subcomplex(c)) for c in self.critical_values]


def validate(tree: SimplicialTree, values: Mapping[Simplex, float]) -> MorseFunction:
    """Check the discrete Morse conditions and wrap the assignment.

    Raises:
        MissingValueError: a simplex of the tree has no value, or a value
            names a simplex the tree does not have.
        NotFiniteRealError: a value is a boolean, NaN or an infinity.
        NotWeaklyIncreasingError: an edge value is below an endpoint value.
        MoreThanTwoShareValueError: a value is taken three or more times.
        ValueSharedByNonIncidentError: a value is shared by two simplices
            that are not an incident vertex-edge pair.
    """
    declared = set(tree.vertices) | set(tree.edges)
    for simplex in tree.simplices():
        if simplex not in values:
            raise MissingValueError(f"no value for simplex {simplex!r}")
    for simplex, value in values.items():
        if simplex not in declared:
            raise MissingValueError(f"value given for unknown simplex {simplex!r}")
        if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
            raise NotFiniteRealError(f"f({simplex!r}) = {value!r} is not a finite real number")
    for e in sorted(tree.edges):
        for endpoint in e:
            if values[endpoint] > values[e]:
                raise NotWeaklyIncreasingError(
                    f"f({endpoint!r}) = {values[endpoint]} exceeds f({e!r}) = {values[e]}"
                )
    by_value: dict[float, list[Simplex]] = {}
    for simplex, value in values.items():
        by_value.setdefault(value, []).append(simplex)
    for value in sorted(by_value):
        group = sorted(by_value[value], key=simplex_sort_key)
        if len(group) > 2:
            raise MoreThanTwoShareValueError(
                f"value {value} is taken by {len(group)} simplices"
            )
        if len(group) == 2:
            a, b = group
            if is_edge(a) or not is_edge(b) or a not in b:
                raise ValueSharedByNonIncidentError(
                    f"value {value} shared by non-incident simplices {a!r} and {b!r}"
                )
    return MorseFunction(tree, dict(values))
