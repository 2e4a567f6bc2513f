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


class _Record:
    """An immutable record of the fields ``_fields`` names, which a subclass's
    ``__init__`` stores with ``object.__setattr__``: compared, hashed, shown
    and matched by them, as a frozen dataclass is, without importing
    dataclasses, which loads inspect and ast: a third of the import time.
    """

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields
        if "__eq__" in vars(cls):  # MergeTree compares by identity
            return
        # spelled out per class, as namedtuple and dataclasses do, so that each
        # field is a plain attribute load, which the interpreter specializes
        mine, theirs = (", ".join(f"{side}.{name}" for name in cls._fields) for side in ("self", "other"))
        cls.__eq__ = eval(f"lambda self, other: ({mine},) == ({theirs},) "
                          "if other.__class__ is self.__class__ else NotImplemented")

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SimplicialTree(_Record):
    """A finite tree, the domain of a discrete Morse function. Immutable.

    Construct through :func:`build_tree`, which refuses anything that is not
    a connected, acyclic graph with at least one vertex.
    """

    _fields = ("vertices", "edges")

    def __init__(self, vertices: frozenset[str], edges: frozenset[Edge]) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

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

        Greedy from the leaves inward, exact on trees: peel the leaves one
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


def build_tree(vertices: Iterable[str], edge_pairs: Iterable[tuple[str, str]]) -> SimplicialTree:
    """Validated tree: connected, acyclic, at least one vertex."""
    return keyed_tree(vertices, edge_pairs)[0]


def keyed_tree(vertices: Iterable[str], edge_pairs: Iterable) -> tuple[SimplicialTree, list[Edge]]:
    """:func:`build_tree`, with each pair's canonical edge in the order given."""
    vs = frozenset(vertices)
    if not vs:
        raise NotConnectedError("a tree needs at least one vertex")
    edges: list[Edge] = []
    distinct: set[Edge] = set()
    # union-find with path halving (Tarjan and van Leeuwen 1984); parents are
    # the dict's own key objects, so a root is the vertex that is its parent
    parent = {v: v for v in vs}
    components = len(vs)
    for u, v in edge_pairs:
        if u not in vs or v not in vs:
            raise UnknownVertexError(f"edge endpoint {v if u in vs else u!r} is not a declared vertex")
        e = (u, v) if u < v else (v, u) if v < u else edge(u, v)  # edge refuses a loop
        if e in distinct:
            raise MultiEdgeError(f"edge {e} appears more than once")
        distinct.add(e)
        edges.append(e)
        root_u, root_v = parent[u], parent[v]
        while (up := parent[root_u]) is not root_u:
            parent[root_u] = root_u = parent[up]
        while (up := parent[root_v]) is not root_v:
            parent[root_v] = root_v = parent[up]
        if root_u is not root_v:
            parent[root_v] = root_u
            components -= 1
    if len(edges) >= len(vs):
        raise CycleDetectedError(f"{len(edges)} edges on {len(vs)} vertices cannot be acyclic")
    if components != 1:
        raise NotConnectedError(f"graph has {components} components")
    return SimplicialTree(vs, frozenset(distinct)), edges
