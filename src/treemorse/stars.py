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

from .complexes import _check_size, _Record, build_tree, edge
from .errors import MalformedSequenceError, NotThinError
from .merge_tree import _IMPASSE_CODE, LEAF_GLYPH, MergeTree, _stored
from .morse import MorseFunction, validate


class StarGraph(_Record):
    """A tree with one hub: every edge touches the center vertex."""

    _fields = ("tree", "center")

    @property
    def edge_count(self) -> int:
        return len(self.tree.edges)


def star_graph(k: int) -> StarGraph:
    """The star with k edges: center "c" joined to leaves "l1".."lk"."""
    _check_size(k, "a star's edge count")
    leaves = [f"l{i}" for i in range(1, k + 1)]
    return StarGraph(build_tree(["c", *leaves], [("c", leaf) for leaf in leaves]), "c")


def _itinerary(tree: MergeTree) -> str:
    """The tags of the internal nodes from the root to the unique impasse:
    the root's L, then L or R as the path continues left or right.
    """
    count = tree.impasse_count()
    if count != 1:
        raise NotThinError(f"tree has {count} impasses, need exactly 1")
    # every "(" of the shape code opens the next path node, the last one the
    # impasse; the path turns L where a "(" follows, R where a leaf does
    return "L" + "".join("R" if p else "L" for p in tree.shape_code().split("(")[1:-1])


def lr_sequence(tree: MergeTree) -> str:
    """The root-to-impasse itinerary, without the implicit leading L."""
    return _itinerary(tree)[1:]


def thin_from_lr(seq: str) -> MergeTree:
    """The unique thin merge tree whose lr_sequence equals seq.

    The string carries entries 1..k-1 of the itinerary (entry 0 is the fixed
    L), so k internal nodes come out of a string of length k-1. Nodes carry
    no values.
    """
    if not isinstance(seq, str):
        raise MalformedSequenceError(f"a sequence must be a str, not {type(seq).__name__}")
    bad = set(seq) - {"L", "R"}
    if bad:
        raise MalformedSequenceError(f"sequence may only contain L and R, got {sorted(bad)}")

    # entry i of seq says on which side internal node i + 1 hangs below
    # node i, node 0 being the root, and the other side is a leaf
    prefix = "".join("(" if step == "L" else "(" + LEAF_GLYPH for step in seq)
    suffix = "".join(LEAF_GLYPH + ")" if step == "L" else ")" for step in reversed(seq))
    return _stored(prefix + _IMPASSE_CODE + suffix, (None,) * (2 * len(seq) + 3))


def enumerate_thin(n: int) -> list[MergeTree]:
    """All 2^(n-1) thin merge trees with n internal nodes, in LR order."""
    _check_size(n, "an internal node count")
    return [
        thin_from_lr("".join(steps))
        for steps in itertools.product("LR", repeat=n - 1)
    ]


def realize_on_star(tree: MergeTree) -> tuple[StarGraph, MorseFunction]:
    """An injective function on a star graph inducing the given thin tree.

    Read off the itinerary of the k internal nodes, path node 0 the root
    and node k - 1 the impasse. The k + 1 leaves are the star's vertices,
    named and valued by their labels 0..k: first the leaves of the switch
    nodes (those whose successor turns the other way), in path order; then
    the impasse's left leaf, the center; then the other leaves from the
    impasse back to the root. Path node i values the star edge at its own
    leaf (the impasse's right leaf) 2k - i.
    """
    steps = _itinerary(tree)
    k = len(steps)
    # leaf[i] labels path node i's leaf; no path node holds the center's
    # label, which follows the switch nodes', so each later one is len(leaf) + 1
    switches = (i for i in range(k - 1) if steps[i] != steps[i + 1])
    leaf = {i: label for label, i in enumerate(switches)}
    center = str(len(leaf))
    leaf[k - 1] = len(leaf) + 1
    for i in range(k - 2, -1, -1):
        if i not in leaf:
            leaf[i] = len(leaf) + 1
    values = {str(label): label for label in range(k + 1)}
    edges = [edge(center, str(leaf[i])) for i in range(k)]
    star_tree = build_tree(values, edges)
    values.update(zip(edges, range(2 * k, k, -1)))
    return StarGraph(star_tree, center), validate(star_tree, values)


def count_realizable_on_star(k: int) -> int:
    """Merge-equivalence classes induced by injective functions on the
    k-edge star: one per thin tree with k internal nodes, 2^(k-1) in all."""
    _check_size(k, "a star's edge count")
    return 2 ** (k - 1)
