"""Discrete Morse functions on trees and their sublevel sweep.

A discrete Morse function here assigns one real value to every simplex so
that values weakly increase from a vertex into each incident edge, no value
is taken more than twice, and a repeated value is allowed only on an
incident vertex-edge pair. Each such pair is one arrow of the gradient
vector field; every unpaired simplex is critical.

One sort of the values, cached on the function, decides both sharing rules
and which simplices are critical; :func:`validate` forces it. The increasing
sweep of the sublevel sets, cached as :attr:`MorseFunction.sweep`, walks that
sorted order and adds only the joins of two components; the merge tree, its
impasses, the persistence diagram and the Betti sequence come from that record.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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

    def impasse_count(self) -> int:
        """The merge tree's impasses: joins of two critical vertex labels."""
        joins = self.joins
        return sum(1 for heir, other, _ in joins.values() if heir not in joins and other not in joins)


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

        Returns the ``(simplex, value)`` items in increasing value order, a
        gradient pair's vertex right before its edge, the critical simplex
        by value in that same order, and the gradient pairs. Walking the
        items, it checks the two sharing rules in increasing value order: a
        value is taken at most twice, and twice only by a vertex and an edge
        containing it. Every other value is critical.

        Raises:
            NotFiniteRealError: a value is NaN.
            MoreThanTwoShareValueError: a value is taken three or more times.
            ValueSharedByNonIncidentError: a value is shared by two
                simplices that are not an incident vertex-edge pair.
        """
        entries = sorted(self.values.items(), key=itemgetter(1))
        critical: dict[float, Simplex] = {}
        pairs = set()
        last = object()  # equal to no value, None included
        # a run of equal values is settled at its second item, so the walk
        # never reaches a third; the tuple test is is_edge inlined
        for i, (b, value) in enumerate(entries):
            if value != last:
                if value != value:  # NaN, unequal to everything, so never tied
                    raise NotFiniteRealError(f"f({b!r}) = {value!r} is not a finite real number")
                critical[value] = b
                last = value
                continue
            a = critical.pop(value)
            if type(a) is tuple:
                a, b = b, a
                entries[i - 1], entries[i] = entries[i], entries[i - 1]
            more = i + 1 < len(entries) and entries[i + 1][1] == value
            if more or type(a) is tuple or type(b) is not tuple or a not in b:
                # named as the (value, dimension, simplex) order names them
                run = sorted((x, type(s) is tuple, s) for s, x in entries[i - 1:] if x == value)
                (first, _, a), (_, _, b) = run[:2]
                if len(run) > 2:
                    raise MoreThanTwoShareValueError(f"value {first} is taken by {len(run)} simplices")
                raise ValueSharedByNonIncidentError(
                    f"value {first} shared by non-incident simplices {a!r} and {b!r}"
                )
            pairs.add((a, b))
        return entries, critical, frozenset(pairs)

    @cached_property
    def sweep(self) -> Sweep:
        """The joins of one increasing sublevel sweep; see :class:`Sweep`.

        The sweep walks :attr:`_partition`'s sorted items, so sharing and
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
        # union-find with path halving, as in complexes.keyed_tree; a root
        # maps to (component minimum, label), and a vertex starts labeled by
        # its own value, which is read only if it is critical
        parent: dict = {}
        state: dict = {}
        joins: dict = {}
        last = None
        for simplex, value in self._partition[0]:
            if type(simplex) is not tuple:
                parent[simplex] = simplex
                state[simplex] = (value, value)
                last = value
                continue
            root_u = parent.get(simplex[0])
            root_v = parent.get(simplex[1])
            if root_u is None or root_v is None:
                endpoint = simplex[0] if root_u is None else simplex[1]
                if endpoint not in self.values:
                    raise MissingValueError(f"no value for simplex {endpoint!r}")
                raise NotWeaklyIncreasingError(
                    f"f({endpoint!r}) = {self.values[endpoint]} exceeds f({simplex!r}) = {value}"
                )
            while (up := parent[root_u]) is not root_u:
                parent[root_u] = root_u = parent[up]
            while (up := parent[root_v]) is not root_v:
                parent[root_v] = root_v = parent[up]
            (min_u, crit_u), (min_v, crit_v) = state[root_u], state[root_v]
            # u becomes the heir; a paired edge shares its value with the
            # last vertex, just placed, and only attaches it to an older
            # component, whose label stands
            if min_v < min_u:
                root_u, root_v, min_u, min_v, crit_u, crit_v = root_v, root_u, min_v, min_u, crit_v, crit_u
            if value != last:
                joins[value] = (crit_u, crit_v, min_v)
                crit_u = value
            parent[root_v] = root_u
            state[root_u] = (min_u, crit_u)
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

    The fault reported is the first in this order: a simplex of the tree
    without a value, vertices before edges, each in sorted order; a value
    for a simplex the tree does not have, or a value that is not a finite
    real, in the order the values are given; an edge valued below an
    endpoint, the first such edge in sorted order and on it the first such
    endpoint; a broken sharing rule, in increasing value order. The sharing
    rules are left to the function's one sorted pass, which this forces;
    the other checks sort nothing but the simplices at fault. The sweep
    itself is not run.

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
    values = dict(values)
    vertices, edges, keys = tree.vertices, tree.edges, values.keys()
    # as many keys as the tree has simplices, and every simplex among them
    exact = len(keys) == tree.simplex_count and keys >= vertices and keys >= edges
    if not exact:
        for simplices in (vertices, edges):
            missing = [s for s in simplices if s not in values]
            if missing:
                raise MissingValueError(f"no value for simplex {min(missing)!r}")
    if not exact or set(map(type, values.values())) != {int}:
        for simplex, value in values.items():
            if simplex not in vertices and simplex not in edges:
                raise MissingValueError(f"value given for unknown simplex {simplex!r}")
            kind = type(value)
            if kind is not int and not (kind is float and math.isfinite(value)) and (
                kind is bool or not isinstance(value, numbers.Real) or not math.isfinite(value)
            ):
                raise NotFiniteRealError(f"f({simplex!r}) = {value!r} is not a finite real number")
    late = [s for s, x in values.items() if type(s) is tuple and (values[s[0]] > x or values[s[1]] > x)]
    if late:
        e = min(late)
        endpoint = e[0] if values[e[0]] > values[e] else e[1]
        raise NotWeaklyIncreasingError(f"f({endpoint!r}) = {values[endpoint]} exceeds f({e!r}) = {values[e]}")
    f = MorseFunction(tree, values)
    f._partition  # the sorted pass raises on a broken sharing rule
    return f
