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
once: its joins give the merge tree, its impasses and the persistence diagram,
its component counts the Betti sequence, and the last two are cached too.
"""

from __future__ import annotations

import math
import numbers
from operator import itemgetter
from typing import Mapping, NamedTuple

from .complexes import Edge, Simplex, SimplicialTree, Vertex, _Record
from .errors import (
    CycleDetectedError,
    MissingValueError,
    MorseValidationError,
    MoreThanTwoShareValueError,
    NotFiniteRealError,
    NotWeaklyIncreasingError,
    UnknownVertexError,
    ValueSharedByNonIncidentError,
)


class _cached:
    """functools.cached_property without the per-property lock it takes on
    every first read up to Python 3.11: the value goes into the instance's
    __dict__, which later reads find first; a read that raises stores nothing.
    """

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.name, self.func(instance))


def format_value(value: float) -> str:
    """Integer-valued floats print without a trailing .0."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class GradientVectorField(_Record):
    """The vertex-to-edge arrows given by equal-value incident pairs."""

    _fields = ("pairs",)

    def __init__(self, pairs: frozenset[tuple[Vertex, Edge]]) -> None:
        object.__setattr__(self, "pairs", pairs)

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
    whole tree. ``b0`` counts the components at each critical value, in
    increasing order: on a forest, the whole Betti sequence.
    """

    joins: dict[float, tuple[float, float, float]]
    global_min: float
    b0: tuple[int, ...]

    def impasse_count(self) -> int:
        """The merge tree's impasses: joins of two critical vertex labels."""
        joins = self.joins
        return sum(1 for heir, other, _ in joins.values() if heir not in joins and other not in joins)


class HomologicalSequence(_Record):
    """b0 of the sublevel set at each critical value, in increasing order.

    On a forest b1 is always 0, so b0 is the whole Betti sequence.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        object.__setattr__(self, "entries", entries)

    @property
    def b0_values(self) -> tuple[int, ...]:
        return self.entries


class PersistenceDiagram(_Record):
    """Birth-death pairs of sublevel components, sorted by birth.

    Exactly one pair per connected domain has infinite death.
    """

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[float, float], ...]) -> None:
        object.__setattr__(self, "pairs", pairs)

    def to_text(self) -> str:
        """One `birth death` pair per line, `inf` for infinite death."""
        lines = []
        for birth, death in self.pairs:
            shown = "inf" if death == math.inf else format_value(death)
            lines.append(f"{format_value(birth)} {shown}")
        return "\n".join(lines)


class MorseFunction(_Record):
    """A discrete Morse function on a tree; unhashable, as its values are a dict.

    The constructor checks nothing. The Morse conditions are checked, as
    :func:`validate` documents, the first time anything derived from the
    values is read; :func:`validate` forces that check.
    """

    _fields = ("domain", "values")

    def __init__(self, domain: SimplicialTree, values: Mapping[Simplex, float]) -> None:
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)

    def __call__(self, simplex: Simplex) -> float:
        return self.values[simplex]

    @_cached
    def _partition(self) -> tuple[list, dict[float, Simplex], frozenset]:
        """The one sorted pass that checks the values and decides criticality.

        Returns the ``(simplex, value)`` items in increasing value order, a
        gradient pair's vertex right before its edge, the critical simplex
        by value in that same order, and the gradient pairs. It runs
        :func:`validate`'s checks in the order validate documents: before
        the sort, sorting nothing but the simplices at fault, then the two
        sharing rules while walking the sorted items. An unshared value is
        critical.

        Raises:
            MorseValidationError: the first fault, with the type and the
                message that :func:`validate` documents.
            UnknownVertexError: as :func:`validate` documents.
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
                kind = type(value)
                # a Rational is finite, and math.isfinite would overflow on a big one
                if kind is not int and not (kind is float and math.isfinite(value)) and (
                    kind is bool or not isinstance(value, numbers.Real)
                    or not (isinstance(value, numbers.Rational) or math.isfinite(value))
                ):
                    raise NotFiniteRealError(f"f({simplex!r}) = {value!r} is not a finite real number")
        try:
            late = [s for s, x in values.items() if type(s) is tuple and (values[s[0]] > x or values[s[1]] > x)]
        except KeyError as exc:  # only a tree built by hand, not by build_tree
            raise UnknownVertexError(f"edge endpoint {exc.args[0]!r} is not a declared vertex") from None
        if late:
            e = min(late)
            endpoint = e[0] if values[e[0]] > values[e] else e[1]
            raise NotWeaklyIncreasingError(f"f({endpoint!r}) = {values[endpoint]} exceeds f({e!r}) = {values[e]}")
        entries = sorted(values.items(), key=itemgetter(1))
        critical: dict[float, Simplex] = {}
        pairs = set()
        last = object()  # equal to no value, None included
        # a run of equal values is settled at its second item, so the walk
        # never reaches a third; the tuple test is is_edge inlined
        for i, (b, value) in enumerate(entries):
            if value != last:
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
                :attr:`_partition`), or the domain, built by hand rather
                than by build_tree, is not connected.
            CycleDetectedError: a hand-built domain has a cycle, closed by the edge named.
        """
        # union-find with path halving, as in complexes.keyed_tree; a root
        # maps to (component minimum, label), and a vertex starts labeled by
        # its own value, which is read only if it is critical
        parent: dict = {}
        state: dict = {}
        joins: dict = {}
        b0: list = []
        last = None
        for simplex, value in self._partition[0]:
            if type(simplex) is not tuple:
                parent[simplex] = simplex
                state[simplex] = (value, value)
                b0.append(len(state))
                last = value
                continue
            root_u, root_v = parent[simplex[0]], parent[simplex[1]]
            while (up := parent[root_u]) is not root_u:
                parent[root_u] = root_u = parent[up]
            while (up := parent[root_v]) is not root_v:
                parent[root_v] = root_v = parent[up]
            if root_u is root_v:  # only a domain built by hand, not through build_tree
                raise CycleDetectedError(f"edge {simplex} closes a cycle")
            (min_u, crit_u), (min_v, crit_v) = state[root_u], state[root_v]
            # u becomes the heir; a paired edge shares its value with the
            # last vertex, just placed, and only attaches it to an older
            # component, whose label stands, and takes back the vertex's count
            if min_v < min_u:
                root_u, root_v, min_u, min_v, crit_u, crit_v = root_v, root_u, min_v, min_u, crit_v, crit_u
            if value != last:
                joins[value] = (crit_u, crit_v, min_v)
                state[root_u] = (min_u, value)
                b0.append(len(state) - 1)  # less root_v's entry, dropped below
            else:
                b0.pop()
            parent[root_v] = root_u
            del state[root_v]
        # every simplex has a value, so only a domain built by hand, not
        # through build_tree, can leave more than one component
        if len(state) != 1:
            raise MorseValidationError(f"the sweep ends with {len(state)} components")
        ((global_min, _),) = state.values()
        return tuple.__new__(Sweep, (joins, global_min, tuple(b0)))  # not NamedTuple's Python __new__

    @_cached
    def _betti(self) -> HomologicalSequence:
        """The Betti sequence; see :func:`treemorse.homological_sequence`."""
        return HomologicalSequence(self.sweep.b0)

    @_cached
    def _diagram(self) -> PersistenceDiagram:
        """The persistence diagram; see :func:`treemorse.persistence_diagram`."""
        joins, global_min, _ = self.sweep
        pairs = [(born, value) for value, (_, _, born) in joins.items()] + [(global_min, math.inf)]
        return PersistenceDiagram(tuple(sorted(pairs)))

    @_cached
    def critical_simplices(self) -> frozenset[Simplex]:
        """Simplices whose value is shared with no other simplex."""
        return frozenset(self._partition[1].values())

    @_cached
    def critical_values(self) -> tuple[float, ...]:
        return tuple(self._partition[1])

    @_cached
    def gradient_vector_field(self) -> GradientVectorField:
        return GradientVectorField(self._partition[2])


def validate(tree: SimplicialTree, values: Mapping[Simplex, float]) -> MorseFunction:
    """Check the discrete Morse conditions and wrap the assignment.

    The fault reported is the first in this order: a simplex of the tree
    without a value, vertices before edges, each in sorted order; a value
    for a simplex the tree does not have, a value that is not a finite
    real, then an edge endpoint that is not a vertex, in the order the
    values are given; an edge valued below an endpoint, the first such edge
    in sorted order and on it the first such endpoint; a broken sharing
    rule, in increasing value order. The checks are the function's one
    sorted pass, which this forces; the sweep itself is not run.

    Raises:
        MissingValueError: a simplex of the tree has no value, or a value
            names a simplex the tree does not have.
        NotFiniteRealError: a value is a boolean, not a real number at all,
            NaN or an infinity.
        UnknownVertexError: an edge of a tree built by hand, not by
            :func:`build_tree`, has an endpoint that is not a vertex.
        NotWeaklyIncreasingError: an edge value is below an endpoint value.
        MoreThanTwoShareValueError: a value is taken three or more times.
        ValueSharedByNonIncidentError: a value is shared by two simplices
            that are not an incident vertex-edge pair.
    """
    f = MorseFunction(tree, dict(values))
    f._partition  # the sorted pass raises on the first fault
    return f
