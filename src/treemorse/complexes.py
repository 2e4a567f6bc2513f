"""Trees and forests as one-dimensional simplicial complexes.

Vertices are named by strings. An edge is stored as the sorted pair of its
endpoints, so two edges are equal exactly when their endpoint sets are. A
simplex is either a vertex name or such a pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True)
class Forest:
    """A finite graph whose every component is a tree. Immutable.

    Construct through :func:`build_forest`, which refuses a cycle.
    """

    vertices: frozenset[str]
    edges: frozenset[Edge]

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(sorted(ws)) for v, ws in nbrs.items()}

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
        return len(self.adjacency[v])

    def component_vertices(self, v: str) -> set[str]:
        """Vertices reachable from v."""
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        seen = {v}
        stack = [v]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def component_of(self, v: str) -> set[Simplex]:
        """Every simplex of the connected component containing v."""
        verts = self.component_vertices(v)
        comp: set[Simplex] = set(verts)
        comp.update(e for e in self.edges if e[0] in verts)
        return comp

    def components(self) -> list[set[Simplex]]:
        """Connected components, ordered by their smallest vertex."""
        out: list[set[Simplex]] = []
        seen: set[str] = set()
        for v in sorted(self.vertices):
            if v not in seen:
                comp = self.component_of(v)
                seen.update(s for s in comp if isinstance(s, str))
                out.append(comp)
        return out

    @cached_property
    def component_count(self) -> int:
        seen: set[str] = set()
        count = 0
        for v in self.vertices:
            if v not in seen:
                count += 1
                seen.update(self.component_vertices(v))
        return count

    def matching_number(self) -> int:
        """Size of a maximum set of pairwise vertex-disjoint edges.

        Greedy from the leaves inward, exact on forests: walk each component
        in breadth-first order from an arbitrary root and, in reverse order,
        match a vertex to its parent whenever both are still free.
        """
        matched: set[str] = set()
        seen: set[str] = set()
        count = 0
        for start in sorted(self.vertices):
            if start in seen:
                continue
            order = [start]
            parent: dict[str, str | None] = {start: None}
            seen.add(start)
            i = 0
            while i < len(order):
                v = order[i]
                i += 1
                for w in self.adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        parent[w] = v
                        order.append(w)
            for v in reversed(order):
                p = parent[v]
                if p is not None and v not in matched and p not in matched:
                    matched.add(v)
                    matched.add(p)
                    count += 1
        return count


@dataclass(frozen=True)
class SimplicialTree(Forest):
    """A connected forest; the domain of a discrete Morse function."""


def _checked_edges(vertices: frozenset[str], pairs: Iterable[tuple[str, str]]) -> frozenset[Edge]:
    out: set[Edge] = set()
    for u, v in pairs:
        for w in (u, v):
            if w not in vertices:
                raise UnknownVertexError(f"edge endpoint {w!r} is not a declared vertex")
        e = edge(u, v)
        if e in out:
            raise MultiEdgeError(f"edge {e} appears more than once")
        out.add(e)
    return frozenset(out)


def build_forest(vertices: Iterable[str], edge_pairs: Iterable[tuple[str, str]]) -> Forest:
    """Validated forest from vertex names and endpoint pairs."""
    vs = frozenset(vertices)
    forest = Forest(vs, _checked_edges(vs, edge_pairs))
    if len(forest.vertices) != len(forest.edges) + forest.component_count:
        raise CycleDetectedError("edge set contains a cycle")
    return forest


def build_tree(vertices: Iterable[str], edge_pairs: Iterable[tuple[str, str]]) -> SimplicialTree:
    """Validated tree: connected, acyclic, at least one vertex."""
    vs = frozenset(vertices)
    if not vs:
        raise NotConnectedError("a tree needs at least one vertex")
    es = _checked_edges(vs, edge_pairs)
    if len(es) >= len(vs):
        raise CycleDetectedError(f"{len(es)} edges on {len(vs)} vertices cannot be acyclic")
    tree = SimplicialTree(vs, es)
    if tree.component_count != 1:
        raise NotConnectedError(f"graph has {tree.component_count} components")
    return tree
