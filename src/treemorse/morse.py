"""Discrete Morse functions on trees and their sublevel sweep.

A discrete Morse function here assigns one real value to every simplex so
that values weakly increase from a vertex into each incident edge, no value
is taken more than twice, and a repeated value is allowed only on an
incident vertex-edge pair. Each such pair is one arrow of the gradient
vector field; every unpaired simplex is critical.

The constructor, which :func:`validate` names, copies the values and
checks every Morse condition in one pass, sorting them only if one
repeats, and decides which simplices are critical, so every function is
checked once, where it is built, and owns the values it was checked on. The
sublevel sweep, cached as :attr:`MorseFunction.sweep`, walks the sorted values
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
    MorseValidationError,
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
    persistence diagram. ``b0`` counts the components at each critical
    value, in increasing order: on a forest, the whole Betti sequence. The
    least value, the birth of the one infinite pair, is the function's
    ``_least``, which its constructor stores.
    """

    _fields = ("joins", "b0")


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
    """A discrete Morse function on a tree; unhashable, as its values are a dict."""

    _fields = ("domain", "values")

    def __init__(self, domain: SimplicialTree, values: Mapping[Simplex, float]) -> None:
        """Check a copy of the values, which the function keeps, in one pass, and decide criticality.

        The values are a mapping or (simplex, value) pairs; a later change to
        the argument is never read. The fault reported is the first of: a
        simplex of the tree without a value, vertices before edges, each in
        sorted order; a value for a simplex the tree does not have, or one
        that is not a finite real, in the order given; an edge valued below
        an endpoint, the first such edge in sorted order and on it the first
        such endpoint; a broken sharing rule, in increasing value order. The
        pass sorts only if fewer distinct values than simplices show a
        repeat, and keeps the sort as :attr:`_order`, a gradient pair's
        vertex right before its edge. It stores the gradient pairs as
        ``_pairs`` and the least value as ``_least``; every simplex in no
        pair is critical. No reading checks again.

        Raises:
            MorseValidationError: values is not a mapping (nor pairs).
            MissingValueError: a simplex of the tree has no value, or a value
                names a simplex the tree does not have.
            NotFiniteRealError: a value is a boolean, not a real number at all,
                NaN or an infinity.
            NotWeaklyIncreasingError: an edge value is below an endpoint value.
            MoreThanTwoShareValueError: a value is taken three or more times.
            ValueSharedByNonIncidentError: a value is shared by two simplices
                that are not an incident vertex-edge pair.
        """
        try:
            values = dict(values)
        except (TypeError, ValueError):
            raise MorseValidationError(f"values must be a mapping, not {type(values).__name__}") from None
        self.__dict__.update(domain=domain, values=values)
        vertices, edges = domain.vertices, domain.edges
        # as many keys as the tree has simplices, and every simplex among them
        exact = len(keys := values.keys()) == domain.simplex_count and keys >= vertices and keys >= edges
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
        if len(set(values.values())) == len(values):
            self.__dict__.update(_pairs=frozenset(), _least=min(values.values()))
            return
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
        self.__dict__.update(_pairs=frozenset(pairs), _least=entries[0][1], _order=entries)

    def __call__(self, simplex: Simplex) -> float:
        return self.values[simplex]

    @_cached
    def _order(self) -> list:
        """The ``(simplex, value)`` items in increasing value order, where the constructor sorted none."""
        return sorted(self.values.items(), key=itemgetter(1))

    @_cached
    def sweep(self) -> Sweep:
        """The joins and b0 of one increasing sublevel sweep; see :class:`Sweep`.

        The sweep walks :attr:`_order`, where every edge comes after both its
        endpoints; it adds only the joins and the component counts.
        It tracks, for every component of the growing complex, its minimum
        value and the largest critical value it has reached (its label). A
        paired vertex comes right before its edge, which attaches it to an
        older, labeled component; a critical edge joins two labeled
        components, whose minima differ because no two vertices share a value.
        """
        # union-find with path halving, as in SimplicialTree.__init__; low and
        # label hold a vertex's value, then a root's component minimum and label;
        # the first item, the least value, is a vertex: the tree's minimum
        parent, low, label, joins = {}, {}, {}, {}
        entries, b0, live, last = self._order, [], 0, None
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
        return Sweep(joins, tuple(b0))

    @_cached
    def _betti(self) -> HomologicalSequence:
        """The Betti sequence; see :func:`treemorse.homological_sequence`."""
        return HomologicalSequence(self.sweep.b0)

    @_cached
    def _diagram(self) -> PersistenceDiagram:
        """The persistence diagram; see :func:`treemorse.persistence_diagram`."""
        pairs = sorted((born, value) for value, (_, _, born) in self.sweep.joins.items())  # births are distinct
        return PersistenceDiagram(((self._least, math.inf), *pairs))  # the least value is the least birth

    @_cached
    def critical_simplices(self) -> frozenset[Simplex]:
        """Simplices whose value is shared with no other simplex."""
        return frozenset(self.values).difference(*self._pairs)  # less each pair's vertex and edge

    @_cached
    def critical_values(self) -> tuple[float, ...]:
        return tuple(x for s, x in self._order if s in self.critical_simplices)

    @_cached
    def gradient_vector_field(self) -> GradientVectorField:
        return GradientVectorField(self._pairs)


# the package's name for the checking constructor
validate = MorseFunction


def _labeled(tree: SimplicialTree, values: dict) -> MorseFunction:
    """A MorseFunction from a labeling of tree by 0..N-1 that respects the face order, unchecked."""
    f = object.__new__(MorseFunction)
    f.__dict__.update(domain=tree, values=values, _pairs=frozenset(), _least=0)  # injective: no pair
    return f
