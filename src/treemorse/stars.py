"""Thin merge trees, their LR itineraries, and realization on star graphs.

A thin merge tree has exactly one impasse, which forces its internal nodes
onto a single root-to-impasse path. Reading off whether the path continues
left or right at each step gives the LR sequence; the first entry is the
root's fixed L and is omitted from the serialized string. Every LR string
arises from exactly one thin tree, and every thin tree with k internal
nodes is induced by an injective function on the star with k edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import SimplicialTree, Vertex, build_tree, edge
from .errors import MalformedSequenceError, NonPositiveSizeError, NotThinError
from .merge_tree import MergeNode, MergeTree, induce_merge_tree
from .morse import MorseFunction, validate


@dataclass(frozen=True)
class StarGraph:
    """A tree with one hub: every edge touches the center vertex."""

    tree: SimplicialTree
    center: Vertex

    @property
    def edge_count(self) -> int:
        return len(self.tree.edges)


def star_graph(k: int) -> StarGraph:
    """The star with k edges: center "c" joined to leaves "l1".."lk"."""
    if k < 1:
        raise NonPositiveSizeError("a star needs at least one edge")
    leaves = [f"l{i}" for i in range(1, k + 1)]
    return StarGraph(build_tree(["c", *leaves], [("c", leaf) for leaf in leaves]), "c")


def _path_to_impasse(tree: MergeTree) -> tuple[list[MergeNode], str]:
    """Internal nodes from the root to the unique impasse, and the itinerary.

    Entry i of the itinerary is the direction of path node i: the root's L,
    then L or R as the path continues left or right.
    """
    count = tree.impasse_count()
    if count != 1:
        raise NotThinError(f"tree has {count} impasses, need exactly 1")
    path = [tree.root]
    while not path[-1].is_impasse:
        node = path[-1]
        # one impasse means at most one child can head a subtree with one,
        # so exactly one child of every non-impasse internal node is internal
        path.append(node.left if not node.left.is_leaf else node.right)
    # a MergeTree tags every left child L and every right child R
    return path, "".join(node.direction for node in path)


def lr_sequence(tree: MergeTree) -> str:
    """The root-to-impasse itinerary, without the implicit leading L."""
    return _path_to_impasse(tree)[1][1:]


def thin_from_lr(seq: str) -> MergeTree:
    """The unique thin merge tree whose lr_sequence equals seq.

    The string carries entries 1..k-1 of the itinerary (entry 0 is the fixed
    L), so k internal nodes come out of a string of length k-1. Nodes carry
    no values.
    """
    bad = set(seq) - {"L", "R"}
    if bad:
        raise MalformedSequenceError(f"sequence may only contain L and R, got {sorted(bad)}")

    # built from the impasse up; entry i of steps is internal node i's
    # direction, node 0 being the root
    steps = "L" + seq
    node = MergeNode(None, steps[-1], MergeNode(None, "L"), MergeNode(None, "R"))
    for i in range(len(seq) - 1, -1, -1):
        if seq[i] == "L":
            node = MergeNode(None, steps[i], node, MergeNode(None, "R"))
        else:
            node = MergeNode(None, steps[i], MergeNode(None, "L"), node)
    return MergeTree(node)


def enumerate_thin(n: int) -> list[MergeTree]:
    """All 2^(n-1) thin merge trees with n internal nodes, in LR order."""
    if n < 1:
        raise NonPositiveSizeError("need at least one internal node")
    return [
        thin_from_lr("".join(steps))
        for steps in itertools.product("LR", repeat=n - 1)
    ]


def realize_on_star(tree: MergeTree) -> tuple[StarGraph, MorseFunction]:
    """An injective function on a star graph inducing the given thin tree.

    Labels are consecutive integers from 0. Walking the root-to-impasse
    path, the unique leaf child of each direction-switch node is labeled
    first, in path order; the impasse's left leaf is labeled next and
    becomes the star's center; remaining leaves are labeled walking from the
    impasse back to the root, and internal nodes after that, on the same
    walk. Each merge-tree leaf is a star vertex (named by its label) and
    each internal node labels the star edge at the vertex of its own leaf
    child (for the impasse, its non-center leaf).
    """
    path, steps = _path_to_impasse(tree)
    switch_nodes = [path[i - 1] for i in range(1, len(path)) if steps[i] != steps[i - 1]]

    labels: dict[MergeNode, int] = {}
    counter = itertools.count()
    for node in switch_nodes:
        leaf = node.left if node.left.is_leaf else node.right
        labels[leaf] = next(counter)
    impasse = path[-1]
    center_label = next(counter)
    labels[impasse.left] = center_label
    for node in reversed(path):
        for child in (node.left, node.right):
            if child.is_leaf and child not in labels:
                labels[child] = next(counter)
    for node in reversed(path):
        labels[node] = next(counter)

    center = str(center_label)
    vertex_values = {
        str(labels[leaf]): labels[leaf] for leaf in tree.leaves()
    }
    edge_values = {}
    for node in path:
        if node is impasse:
            leaf = node.right  # the left leaf is the center itself
        else:
            leaf = node.left if node.left.is_leaf else node.right
        edge_values[edge(center, str(labels[leaf]))] = labels[node]

    star_tree = build_tree(vertex_values, [e for e in edge_values])
    f = validate(star_tree, {**vertex_values, **edge_values})
    return StarGraph(star_tree, center), f


def count_realizable_on_star(k: int) -> int:
    """Merge-equivalence classes induced by injective functions on the
    k-edge star: one per thin tree with k internal nodes, 2^(k-1) in all."""
    if k < 1:
        raise NonPositiveSizeError("a star needs at least one edge")
    return 2 ** (k - 1)
