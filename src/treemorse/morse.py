"""Discrete Morse functions on trees and their sublevel structure.

A discrete Morse function here assigns one real value to every simplex so
that values weakly increase from a vertex into each incident edge, no value
is taken more than twice, and a repeated value is allowed only on an
incident vertex-edge pair. Each such pair is one arrow of the gradient
vector field; every unpaired simplex is critical.

One increasing sweep of the sublevel sets, cached on the function as
:attr:`MorseFunction.sweep`, records every join of two components; the merge
tree and the persistence diagram are both read off that one record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

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
    MorseValidationError,
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


class Sweep(NamedTuple):
    """What one increasing sublevel sweep records.

    ``joins`` maps each critical edge value, in increasing order, to the two
    components that edge joins, each as (label, minimum): the label is the
    largest critical value the component held just below the join, the
    minimum its smallest vertex value. ``global_min`` is the smallest vertex
    value of the whole tree.
    """

    joins: dict[float, tuple[tuple[float, float], tuple[float, float]]]
    global_min: float


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

    @cached_property
    def sweep(self) -> Sweep:
        """The joins of one increasing sublevel sweep; see :class:`Sweep`.

        The sweep tracks, for every component of the growing complex, its
        minimum value and the largest critical value it has reached (its
        label). The constructor trusts its input, so the sweep checks what
        it relies on, also when no edge is critical, and raises
        :class:`MorseValidationError` on an edge placed before one of its
        endpoints, a critical edge reaching an unlabeled component or
        joining two with equal minima, a paired edge that does not attach
        one unlabeled vertex to a labeled component, and a simplex left
        without a value. A function with no critical simplex always trips
        one of these.
        """
        # criticality drops out of the sort itself (a shared value shows up
        # as two consecutive entries); is_edge is inlined as the tuple test
        # on this hottest line
        decorated = sorted(
            [
                (value, 1 if type(simplex) is tuple else 0, simplex)
                for simplex, value in self.values.items()
            ]
        )
        total = len(decorated)
        paired = [False] * total
        for i in range(total - 1):
            if decorated[i][0] == decorated[i + 1][0]:
                paired[i] = paired[i + 1] = True

        # components tracked by a leader vertex, smaller side relabeled on a
        # join; at these sizes plain dicts beat a general union-find
        leader: dict = {}
        members: dict = {}
        # leader -> (component minimum, label or None before any critical value)
        state: dict = {}
        joins: dict = {}
        for i, (value, dim, simplex) in enumerate(decorated):
            if not dim:
                leader[simplex] = simplex
                members[simplex] = [simplex]
                state[simplex] = (value, None if paired[i] else value)
                continue
            root_u = leader.get(simplex[0])
            root_v = leader.get(simplex[1])
            if root_u is None or root_v is None:
                raise MorseValidationError(f"edge {simplex!r} comes before one of its endpoints")
            min_u, crit_u = state[root_u]
            min_v, crit_v = state[root_v]
            if not paired[i]:
                # both components already contain a critical vertex
                if crit_u is None or crit_v is None:
                    raise MorseValidationError(
                        f"critical edge {simplex!r} reaches a component with no critical vertex"
                    )
                if min_u == min_v:  # distinct vertex values keep the elder rule unambiguous
                    raise MorseValidationError(
                        f"the components joined at {value} share their minimum"
                    )
                joins[value] = ((crit_u, min_u), (crit_v, min_v))
                new_crit = value
            else:
                # a paired edge attaches its fresh paired vertex to an older
                # component; nothing merges and no new label appears
                if (crit_u is None) == (crit_v is None):
                    raise MorseValidationError(
                        f"paired edge {simplex!r} does not attach exactly one paired vertex"
                    )
                new_crit = crit_u if crit_v is None else crit_v
            if len(members[root_u]) < len(members[root_v]):
                root_u, root_v = root_v, root_u
            for w in members[root_v]:
                leader[w] = root_u
            members[root_u].extend(members[root_v])
            del members[root_v]
            state[root_u] = (min(min_u, min_v), new_crit)
            del state[root_v]
        # the domain is connected, so only an edge without a value leaves
        # more than one component
        if len(state) != 1:
            raise MorseValidationError(f"the sweep ends with {len(state)} components")
        ((global_min, _),) = state.values()
        return Sweep(joins, global_min)

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
