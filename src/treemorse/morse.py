"""Discrete Morse functions on trees and their sublevel sweep.

A discrete Morse function here assigns one real value to every simplex so
that values weakly increase from a vertex into each incident edge, no value
is taken more than twice, and a repeated value is allowed only on an
incident vertex-edge pair. Each such pair is one arrow of the gradient
vector field; every unpaired simplex is critical.

One sorted pass, cached on the function, checks every Morse condition and
decides which simplices are critical. Everything derived from the values
reads it first, so a function built directly runs the same checks, with the
same errors, as :func:`validate`, which only forces it. The increasing sweep
of the sublevel sets, cached as :attr:`MorseFunction.sweep`, walks that order
once: its joins give the merge tree and the persistence diagram, its
component counts the Betti sequence, and the last two are cached too.
"""

from __future__ import annotations

import math
import numbers
import sys
from operator import itemgetter
from typing import Mapping

from .complexes import Edge, Simplex, SimplicialTree, Vertex, _cached, _Record
from .errors import (
    MissingValueError,
    MoreThanTwoShareValueError,
    NotFiniteRealError,
    NotWeaklyIncreasingError,
    UnprintableValueError,
    ValueSharedByNonIncidentError,
)


def format_value(value: float) -> str:
    """Integer-valued floats print without a trailing .0."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _labels(values, none: str) -> list[str]:
    """format_value of each value, and none for None, as the renderers print them."""
    try:
        return [str(x) if type(x) is int else none if x is None else format_value(x) for x in values]
    except ValueError as error:  # an int past Python's limit for int-to-str conversion
        limit = sys.get_int_max_str_digits()
        raise UnprintableValueError(f"a value has more than sys.get_int_max_str_digits() = {limit} digits") from error


class GradientVectorField(_Record):
    """The vertex-to-edge arrows given by equal-value incident pairs."""

    _fields = ("pairs",)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))

    def __contains__(self, pair: tuple[Vertex, Edge]) -> bool:
        return pair in self.pairs


def _is_finite_real(value) -> bool:
    """Whether value is a real number and not a bool, NaN or an infinity; a
    Rational is finite, and math.isfinite would overflow on a big one."""
    kind = type(value)
    if kind is int or kind is float:
        return kind is int or math.isfinite(value)
    return kind is not bool and isinstance(value, numbers.Real) and (
        isinstance(value, numbers.Rational) or math.isfinite(value))


class Sweep(_Record):
    """What one increasing sublevel sweep records; unhashable, as joins is a dict.

    ``joins`` maps each critical edge value, in increasing order, to the two
    components that edge joins, heir first, as (heir label, other label,
    other minimum). A component's label is the largest critical value it
    held just below the join, its minimum its smallest vertex value; the
    heir is the component with the smaller minimum, which keeps its
    parent's direction in the merge tree and outlives the other in the
    persistence diagram. ``global_min`` is the smallest vertex value of the
    whole tree. ``b0`` counts the components at each critical value, in
    increasing order: on a forest, the whole Betti sequence.
    """

    _fields = ("joins", "global_min", "b0")


class HomologicalSequence(_Record):
    """b0 of the sublevel set at each critical value, in increasing order.

    On a forest b1 is always 0, so b0 is the whole Betti sequence.
    """

    _fields = ("entries",)

    @property
    def b0_values(self) -> tuple[int, ...]:
        return self.entries


class PersistenceDiagram(_Record):
    """Birth-death pairs of sublevel components, sorted by birth.

    Exactly one pair per connected domain has infinite death.
    """

    _fields = ("pairs",)

    def to_text(self) -> str:
        """One `birth death` pair per line, `inf` for infinite death."""
        labels = _labels([x for birth, death in self.pairs for x in (birth, death)], "None")
        return "\n".join(f"{birth} {death}" for birth, death in zip(labels[::2], labels[1::2]))


class MorseFunction(_Record):
    """A discrete Morse function on a tree; unhashable, as its values are a dict.

    The constructor checks nothing. The Morse conditions are checked, as
    :func:`validate` documents, the first time anything derived from the
    values is read; :func:`validate` forces that check.
    """

    _fields = ("domain", "values")

    def __call__(self, simplex: Simplex) -> float:
        return self.values[simplex]

    @_cached
    def _partition(self) -> tuple[list, frozenset]:
        """The one sorted pass that checks the values and decides criticality.

        Returns the ``(simplex, value)`` items in increasing value order, a
        gradient pair's vertex right before its edge, and the gradient
        pairs; every simplex in no pair is critical. It runs
        :func:`validate`'s checks in the order validate documents: before
        the sort, sorting nothing but the simplices at fault, then the two
        sharing rules while walking the sorted items. An unshared value is
        critical.

        Raises:
            MorseValidationError: the first fault, with the type and the
                message that :func:`validate` documents.
        """
        tree, values = self.domain, self.values
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
                if not _is_finite_real(value):
                    raise NotFiniteRealError(f"f({simplex!r}) = {value!r} is not a finite real number")
        late = [s for s, x in values.items() if type(s) is tuple and (values[s[0]] > x or values[s[1]] > x)]
        if late:
            e = min(late)
            endpoint = e[0] if values[e[0]] > values[e] else e[1]
            raise NotWeaklyIncreasingError(f"f({endpoint!r}) = {values[endpoint]} exceeds f({e!r}) = {values[e]}")
        entries = sorted(values.items(), key=itemgetter(1))
        pairs = set()
        last = object()  # equal to no value, None included
        # a run of equal values is settled at its second item, so the walk
        # never reaches a third; the tuple test is is_edge inlined
        for i, (b, value) in enumerate(entries):
            if value != last:
                last = value
                continue
            a = entries[i - 1][0]
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
        return entries, frozenset(pairs)

    @_cached
    def sweep(self) -> Sweep:
        """The joins and b0 of one increasing sublevel sweep; see :class:`Sweep`.

        The sweep walks :attr:`_partition`'s sorted items, where the values
        are checked, criticality is decided and every edge comes after both
        its endpoints; it adds only the joins and the component counts. It
        tracks, for every component of the growing complex, its minimum
        value and the largest critical value it has reached (its label). A
        paired vertex comes right before its edge, which attaches it to an
        older, labeled component; a critical edge joins two labeled
        components, whose minima differ because no two vertices share a value.

        Raises:
            MorseValidationError: the values break a Morse condition (see
                :attr:`_partition`).
        """
        # union-find with path halving, as in SimplicialTree.__init__; low and
        # label hold a vertex's value, then a root's component minimum and label;
        # the first item, the least value, is a vertex: the tree's minimum
        parent, low, label, joins = {}, {}, {}, {}
        entries, b0, live, last = self._partition[0], [], 0, None
        for simplex, value in entries:
            if type(simplex) is not tuple:
                parent[simplex] = simplex
                last = low[simplex] = label[simplex] = value
                live += 1
                b0.append(live)
                continue
            root_u, root_v = parent[simplex[0]], parent[simplex[1]]
            while (up := parent[root_u]) is not root_u:
                parent[root_u] = root_u = parent[up]
            while (up := parent[root_v]) is not root_v:
                parent[root_v] = root_v = parent[up]
            # u becomes the heir; a paired edge shares its value with the
            # last vertex, just placed, and only attaches it to an older
            # component, whose label stands, and takes back the vertex's count
            if low[root_v] < low[root_u]:
                root_u, root_v = root_v, root_u
            if value != last:
                joins[value] = (label[root_u], label[root_v], low[root_v])
                label[root_u] = value
                b0.append(live - 1)
            else:
                b0.pop()
            live -= 1
            parent[root_v] = root_u
        return Sweep(joins, entries[0][1], tuple(b0))

    @_cached
    def _betti(self) -> HomologicalSequence:
        """The Betti sequence; see :func:`treemorse.homological_sequence`."""
        return HomologicalSequence(self.sweep.b0)

    @_cached
    def _diagram(self) -> PersistenceDiagram:
        """The persistence diagram; see :func:`treemorse.persistence_diagram`."""
        pairs = sorted((born, value) for value, (_, _, born) in self.sweep.joins.items())  # births are distinct
        return PersistenceDiagram(((self.sweep.global_min, math.inf), *pairs))  # global_min is the least birth

    @_cached
    def critical_simplices(self) -> frozenset[Simplex]:
        """Simplices whose value is shared with no other simplex."""
        return frozenset(self.values).difference(*self._partition[1])  # less each pair's vertex and edge

    @_cached
    def critical_values(self) -> tuple[float, ...]:
        return tuple(x for s, x in self._partition[0] if s in self.critical_simplices)

    @_cached
    def gradient_vector_field(self) -> GradientVectorField:
        return GradientVectorField(self._partition[1])


def validate(tree: SimplicialTree, values: Mapping[Simplex, float]) -> MorseFunction:
    """Check the discrete Morse conditions and wrap the assignment.

    The fault reported is the first in this order: a simplex of the tree
    without a value, vertices before edges, each in sorted order; a value
    for a simplex the tree does not have, or a value that is not a finite
    real, in the order the values are given; an edge valued below an
    endpoint, the first such edge in sorted order and on it the first such
    endpoint; a broken sharing rule, in increasing value order. The checks
    are the function's one sorted pass, which this forces; the sweep itself
    is not run.

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
    f = MorseFunction(tree, dict(values))
    f._partition  # the sorted pass raises on the first fault
    return f
