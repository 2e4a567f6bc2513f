"""Trees as one-dimensional simplicial complexes.

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
class SimplicialTree:
    """A finite tree, the domain of a discrete Morse function. Immutable.

    Construct through :func:`build_tree`, which refuses anything that is not
    a connected, acyclic graph with at least one vertex.
    """

    vertices: frozenset[str]
    edges: frozenset[Edge]

    @cached_property
    def adjacency(self) -> dict[str, list[str]]:
        """Neighbours of every vertex, in no particular order."""
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return nbrs

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

    def matching_number(self) -> int:
        """Size of a maximum set of pairwise vertex-disjoint edges.

        Greedy from the leaves inward, exact on trees: walk the tree in
        breadth-first order from an arbitrary root and, in reverse order,
        match a vertex to its parent whenever both are still free.
        """
        adjacency = self.adjacency
        root = next(iter(self.vertices))
        order = [root]
        parent: dict[str, str | None] = {root: None}
        for v in order:  # order grows while it is walked
            for w in adjacency[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        matched: set[str] = set()
        count = 0
        for v in reversed(order):
            p = parent[v]
            if p is not None and v not in matched and p not in matched:
                matched.add(v)
                matched.add(p)
                count += 1
        return count


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


def build_tree(vertices: Iterable[str], edge_pairs: Iterable[tuple[str, str]]) -> SimplicialTree:
    """Validated tree: connected, acyclic, at least one vertex."""
    vs = frozenset(vertices)
    if not vs:
        raise NotConnectedError("a tree needs at least one vertex")
    es = _checked_edges(vs, edge_pairs)
    if len(es) >= len(vs):
        raise CycleDetectedError(f"{len(es)} edges on {len(vs)} vertices cannot be acyclic")
    tree = SimplicialTree(vs, es)
    # one search settles connectivity; the remaining components are counted
    # only for the error message
    adjacency = tree.adjacency
    seen: set[str] = set()
    components = 0
    for start in vs:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(vs):
            break
    if components != 1:
        raise NotConnectedError(f"graph has {components} components")
    return tree
