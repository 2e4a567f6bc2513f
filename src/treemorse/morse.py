"""Discrete Morse functions on trees and their sublevel sweep.

A discrete Morse function here assigns one real value to every simplex so
that values weakly increase from a vertex into each incident edge, no value
is taken more than twice, and a repeated value is allowed only on an
incident vertex-edge pair. Each such pair is one arrow of the gradient
vector field; every unpaired simplex is critical.

One sort of the values, cached on the function, decides both sharing rules
and which simplices are critical; :func:`validate` forces it. The increasing
sweep of the sublevel sets, cached as :attr:`MorseFunction.sweep`, walks that
sorted order and adds only the joins of two components; the merge tree, the
persistence diagram and the Betti sequence are all read off that one record.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from .complexes import Edge, Simplex, SimplicialTree, Vertex
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


class Sweep(NamedTuple):
    """What one increasing sublevel sweep records.

    ``joins`` maps each critical edge value, in increasing order, to the two
    components that edge joins, heir first, as (heir label, other label,
    other minimum). A component's label is the largest critical value it
    held just below the join, its minimum its smallest vertex value; the
    heir is the component with the smaller minimum, which keeps its
    parent's direction in the merge tree and outlives the other in the
    persistence diagram. ``global_min`` is the smallest vertex value of the
    whole tree.
    """

    joins: dict[float, tuple[float, float, float]]
    global_min: float


@dataclass(frozen=True)
class MorseFunction:
    """A discrete Morse function on a tree.

    Build through :func:`validate`; the constructor itself trusts its input.
    Besides validate, only the oracle's enumerate_critical_dmfs and
    _earliest_labeling call it, on labelings that respect the face order.
    """

    domain: SimplicialTree
    values: Mapping[Simplex, float]

    def __call__(self, simplex: Simplex) -> float:
        return self.values[simplex]

    @cached_property
    def _partition(self) -> tuple[list, dict[float, Simplex], frozenset]:
        """The one sorted pass that decides sharing and criticality.

        Returns the ``(value, dimension, simplex)`` entries in increasing
        order (a vertex before an edge of equal value), the critical simplex
        by value in that same order, and the gradient pairs. Walking the
        runs of equal values, it checks the two sharing rules in increasing
        value order: a value is taken at most twice, and twice only by a
        vertex and an edge containing it. Every other value is critical.

        Raises:
            MoreThanTwoShareValueError: a value is taken three or more times.
            ValueSharedByNonIncidentError: a value is shared by two
                simplices that are not an incident vertex-edge pair.
        """
        # the tuple test is is_edge inlined on this hot line
        entries = sorted(
            [
                (value, 1 if type(simplex) is tuple else 0, simplex)
                for simplex, value in self.values.items()
            ]
        )
        critical: dict[float, Simplex] = {}
        pairs = set()
        total = len(entries)
        i = 0
        while i < total:
            value, _, simplex = entries[i]
            end = i + 1
            while end < total and entries[end][0] == value:
                end += 1
            if end - i == 1:
                critical[value] = simplex
            elif end - i > 2:
                raise MoreThanTwoShareValueError(
                    f"value {value} is taken by {end - i} simplices"
                )
            else:
                (_, dim_a, a), (_, dim_b, b) = entries[i], entries[i + 1]
                if dim_a or not dim_b or a not in b:
                    raise ValueSharedByNonIncidentError(
                        f"value {value} shared by non-incident simplices {a!r} and {b!r}"
                    )
                pairs.add((a, b))
            i = end
        return entries, critical, frozenset(pairs)

    @cached_property
    def sweep(self) -> Sweep:
        """The joins of one increasing sublevel sweep; see :class:`Sweep`.

        The sweep walks :attr:`_partition`'s sorted entries, so sharing and
        criticality are already decided; it adds only the joins. It tracks,
        for every component of the growing complex, its minimum value and
        the largest critical value it has reached (its label). A paired
        vertex comes right before its edge, which attaches it to an older,
        labeled component; a critical edge joins two labeled components,
        whose minima differ because no two vertices share a value.

        The constructor trusts its input, so besides the sharing rules the
        sweep refuses an edge placed before one of its endpoints and a
        simplex left without a value.

        Raises:
            MorseValidationError: the values break a sharing rule (see
                :attr:`_partition`), or some simplex has no value.
            NotWeaklyIncreasingError: an edge value is below an endpoint
                value.
        """
        entries, critical, _ = self._partition
        # components tracked by a leader vertex, smaller side relabeled on a
        # join; at these sizes plain dicts beat a general union-find
        leader: dict = {}
        members: dict = {}
        # leader -> (component minimum, label or None before any critical value)
        state: dict = {}
        joins: dict = {}
        for value, dim, simplex in entries:
            if not dim:
                leader[simplex] = simplex
                members[simplex] = [simplex]
                state[simplex] = (value, value if value in critical else None)
                continue
            root_u = leader.get(simplex[0])
            root_v = leader.get(simplex[1])
            if root_u is None or root_v is None:
                endpoint = simplex[0] if root_u is None else simplex[1]
                if endpoint not in self.values:
                    raise MissingValueError(f"no value for simplex {endpoint!r}")
                raise NotWeaklyIncreasingError(
                    f"f({endpoint!r}) = {self.values[endpoint]} exceeds f({simplex!r}) = {value}"
                )
            min_u, crit_u = state[root_u]
            min_v, crit_v = state[root_v]
            if value in critical:
                if min_u < min_v:
                    joins[value] = (crit_u, crit_v, min_v)
                else:
                    joins[value] = (crit_v, crit_u, min_u)
                new_crit = value
            else:
                # the paired vertex just placed is the unlabeled side
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
    def critical_simplices(self) -> frozenset[Simplex]:
        """Simplices whose value is shared with no other simplex."""
        return frozenset(self._partition[1].values())

    @cached_property
    def critical_values(self) -> tuple[float, ...]:
        return tuple(self._partition[1])

    @cached_property
    def gradient_vector_field(self) -> GradientVectorField:
        return GradientVectorField(self._partition[2])


def validate(tree: SimplicialTree, values: Mapping[Simplex, float]) -> MorseFunction:
    """Check the discrete Morse conditions and wrap the assignment.

    The checks on the input itself (every simplex valued, every value a
    finite real) come first, then weak increase edge by edge in sorted edge
    order. The sharing rules are left to the function's one sorted pass,
    which this forces; the sweep itself is not run.

    Raises:
        MissingValueError: a simplex of the tree has no value, or a value
            names a simplex the tree does not have.
        NotFiniteRealError: a value is a boolean, not a real number at all,
            NaN or an infinity.
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
        kind = type(value)
        # exact int and finite float first: validate runs on every document
        if kind is not int and not (kind is float and math.isfinite(value)) and (
            kind is bool or not isinstance(value, numbers.Real) or not math.isfinite(value)
        ):
            raise NotFiniteRealError(f"f({simplex!r}) = {value!r} is not a finite real number")
    for e in sorted(tree.edges):
        for endpoint in e:
            if values[endpoint] > values[e]:
                raise NotWeaklyIncreasingError(
                    f"f({endpoint!r}) = {values[endpoint]} exceeds f({e!r}) = {values[e]}"
                )
    f = MorseFunction(tree, dict(values))
    f._partition  # the sorted pass raises on a broken sharing rule
    return f
