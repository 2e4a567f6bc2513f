"""Trees as one-dimensional simplicial complexes.

Vertices are named by strings. An edge is stored as the sorted pair of its
endpoints, so two edges are equal exactly when their endpoint sets are. A
simplex is either a vertex name or such a pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .errors import (
    CycleDetectedError,
    LoopEdgeError,
    MultiEdgeError,
    NonPositiveSizeError,
    NotConnectedError,
    UnknownVertexError,
)

Vertex = str
Edge = tuple[str, str]
Simplex = Union[Vertex, Edge]


def edge(u: str, v: str) -> Edge:
    """Canonical form of the edge between u and v."""
    if u == v:
        raise LoopEdgeError(f"loop edge at vertex {u!r}")
    return (u, v) if u <= v else (v, u)


def is_edge(simplex: Simplex) -> bool:
    return isinstance(simplex, tuple)


def _check_size(k: int, what: str) -> None:
    """Refuse a size that is a bool, not an int, or below 1."""
    if type(k) is bool or not isinstance(k, int) or k < 1:
        raise NonPositiveSizeError(f"{what} must be a positive integer, not {k!r}")


class _Record:
    """An immutable record of the fields ``_fields`` names, stored in the
    instance dict: compared, hashed, shown and matched by them, as a frozen
    dataclass is, without importing dataclasses, which loads inspect and ast:
    a third of the import time. Every record of the package is one. A
    subclass that inherits no ``__init__`` gets one that takes the fields,
    by position or keyword, and stores them.
    """

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = fields = cls._fields
        # spelled out per class, as namedtuple and dataclasses do, so that each
        # field is a plain attribute load, which the interpreter specializes
        mine, theirs = (", ".join(f"{side}.{name}" for name in fields) for side in ("self", "other"))
        cls.__eq__ = eval(f"lambda self, other: ({mine},) == ({theirs},) "
                          "if other.__class__ is self.__class__ else NotImplemented")
        if cls.__init__ is object.__init__:
            stores = "".join(f"\n d[{name!r}] = {name}" for name in fields)
            exec(f"def __init__(self, {', '.join(fields)}):\n d = self.__dict__{stores}", space := {})
            cls.__init__ = space["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # the name a TypeError gives

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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


class SimplicialTree(_Record):
    """A finite tree, the domain of a discrete Morse function. Immutable.

    The constructor takes any iterables of vertex names and endpoint pairs,
    stores frozensets, each edge as its canonical pair, and refuses anything
    that is not a connected, acyclic graph with at least one vertex, so no
    reader checks it again. The fault reported is the first of: no vertex
    (NotConnectedError); pair by pair, in the order given, an endpoint that
    is not a vertex, the pair's first (UnknownVertexError), a loop
    (LoopEdgeError), a repeated edge (MultiEdgeError); as many edges as
    vertices (CycleDetectedError); more than one component (NotConnectedError).
    """

    _fields = ("vertices", "edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> None:
        vs = frozenset(vertices)
        if not vs:
            raise NotConnectedError("a tree needs at least one vertex")
        distinct: set[Edge] = set()
        # union-find with path halving (Tarjan and van Leeuwen 1984); parents are
        # the dict's own key objects, so a root is the vertex that is its parent
        parent = {v: v for v in vs}
        components = len(vs)
        for i, (u, v) in enumerate(edges, 1):
            try:  # the parent lookup is the test for an undeclared endpoint
                root_u, root_v = parent[u], parent[v]
            except KeyError:
                raise UnknownVertexError(f"edge endpoint {v if u in vs else u!r} is not a declared vertex") from None
            e = (u, v) if u < v else (v, u) if v < u else edge(u, v)  # edge refuses a loop
            distinct.add(e)
            if len(distinct) != i:
                raise MultiEdgeError(f"edge {e} appears more than once")
            while (up := parent[root_u]) is not root_u:
                parent[root_u] = root_u = parent[up]
            while (up := parent[root_v]) is not root_v:
                parent[root_v] = root_v = parent[up]
            if root_u is not root_v:
                parent[root_v] = root_u
                components -= 1
        if len(distinct) >= len(vs):
            raise CycleDetectedError(f"{len(distinct)} edges on {len(vs)} vertices cannot be acyclic")
        if components != 1:
            raise NotConnectedError(f"graph has {components} components")
        self.__dict__.update(vertices=vs, edges=frozenset(distinct))

    @property
    def simplex_count(self) -> int:
        return len(self.vertices) + len(self.edges)

    def simplices(self) -> Iterator[Simplex]:
        """All vertices, then all edges, each in sorted order."""
        yield from sorted(self.vertices)
        yield from sorted(self.edges)

    def degree(self, v: str) -> int:
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return sum(1 for e in self.edges if v in e)

    def matching_number(self) -> int:
        """Size of a maximum set of pairwise vertex-disjoint edges.

        Cached on the tree: every function on it reads the same number.
        """
        return self._matching_number

    @_cached
    def _matching_number(self) -> int:
        """Greedy from the leaves inward, exact on trees: peel the leaves one
        by one, matching each to its one remaining neighbour whenever both
        are still free. A vertex keeps only its count of remaining
        neighbours and the XOR of their ids, which for a leaf is the id of
        its neighbour.
        """
        index = {v: i for i, v in enumerate(self.vertices)}
        degree = [0] * len(index)
        xor = [0] * len(index)
        for u, v in self.edges:
            i, j = index[u], index[v]
            degree[i] += 1
            degree[j] += 1
            xor[i] ^= j
            xor[j] ^= i
        leaves = [i for i, d in enumerate(degree) if d == 1]
        free = [True] * len(index)
        count = 0
        for v in leaves:  # leaves grows while it is walked
            if degree[v] == 0:  # the last vertex, its neighbour peeled first
                continue
            p = xor[v]
            if free[v] and free[p]:
                free[v] = free[p] = False
                count += 1
            degree[p] -= 1
            xor[p] ^= v
            if degree[p] == 1:
                leaves.append(p)
        return count


# the package's name for the validated constructor
build_tree = SimplicialTree
