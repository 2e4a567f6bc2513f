"""Merge trees induced by discrete Morse functions on trees.

As the threshold rises past a critical edge, two components of the strict
sublevel complex join. The node recording that join is labeled by the edge
value and has one child per component, each labeled by the largest critical
value its component held just below the join. Recursing downward ends in
leaves labeled by critical vertex values. The joins are those of the one
sublevel sweep (:class:`~treemorse.morse.Sweep`) that also gives the
persistence pairs and the Betti sequence.

Direction tags make child order canonical: the root is tagged L; at every
join the child whose component holds the smaller minimum keeps its parent's
tag while the sibling takes the opposite one; and the L-tagged child is
stored on the left. A node's tag is therefore its position, L for the root
and every left child, R for every right child, and no node stores it.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, NamedTuple, Optional

from .complexes import _Record
from .errors import MalformedMergeTreeError
from .morse import MorseFunction, _cached, format_value

LEAF_GLYPH = "•"
_IMPASSE_CODE = f"({LEAF_GLYPH}{LEAF_GLYPH})"  # a join of two leaves


class MergeNode(NamedTuple):
    """A leaf (no children) or a binary join; value is None on hand-built nodes.

    Immutable, and compared and hashed by identity: a thin tree's leaves are
    equal in value, and NamedTuple equality would compare whole subtrees.
    """

    value: Optional[float]
    left: Optional["MergeNode"] = None
    right: Optional["MergeNode"] = None

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def is_impasse(self) -> bool:
        """An internal node both of whose children are leaves."""
        return self.left is not None and self.left.is_leaf and self.right.is_leaf


class MergeTree(_Record):
    """A full binary tree of MergeNodes, each tagged by its position; the shape code is cached."""

    _fields = ("root",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, root: MergeNode) -> None:
        object.__setattr__(self, "root", root)
        self.__post_init__()

    def __post_init__(self) -> None:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not isinstance(node, MergeNode):
                raise MalformedMergeTreeError(f"a node must be a MergeNode, not {type(node).__name__}")
            left, right = node.left, node.right
            if (left is None) != (right is None):
                raise MalformedMergeTreeError("every node needs zero or two children")
            if left is not None:
                stack.append(right)
                stack.append(left)

    def nodes(self) -> Iterator[MergeNode]:
        """Preorder: node, left subtree, right subtree."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.right)
                stack.append(node.left)

    def leaves(self) -> list[MergeNode]:
        return [n for n in self.nodes() if n.is_leaf]

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    def impasses(self) -> list[MergeNode]:
        return [n for n in self.nodes() if n.is_impasse]

    def impasse_count(self) -> int:
        """The impasses, each a "(••)" in the cached shape code."""
        return self._shape_code.count(_IMPASSE_CODE)

    def is_thin(self) -> bool:
        return self.impasse_count() == 1

    def shape_code(self) -> str:
        """Parenthesized leaf pattern: "•" for a leaf, "(LR)" for a join.

        Equal codes mean equal shapes, and so equal tags. Cached on the tree.
        """
        return self._shape_code

    @_cached
    def _shape_code(self) -> str:
        out = []
        stack: list = [self.root]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
            elif item.left is None:
                out.append(LEAF_GLYPH)
            else:
                out.append("(")
                stack.extend((")", item.right, item.left))
        return "".join(out)

    def to_text(self) -> str:
        """A "value tag" line per node in preorder, two spaces per level; "?" for no value."""
        lines: list[str] = []
        stack = [(self.root, 0, "L")]
        while stack:
            node, depth, tag = stack.pop()
            label = "?" if node.value is None else format_value(node.value)
            lines.append("  " * depth + f"{label} {tag}")
            if node.left is not None:
                stack.append((node.right, depth + 1, "R"))
                stack.append((node.left, depth + 1, "L"))
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz rendering; the left child edge precedes the right one."""
        node_lines: list[str] = []
        edge_lines: list[str] = []
        # nodes are numbered in preorder; the edge into a node follows every
        # edge of the node's subtree, so it waits on the stack beneath the
        # node's children
        stack: list = [(self.root, None, "L")]
        while stack:
            item = stack.pop()
            if type(item) is str:
                edge_lines.append(item)
                continue
            node, parent, tag = item
            name = f"n{len(node_lines)}"
            label = "" if node.value is None else format_value(node.value)
            node_lines.append(f'  {name} [label="{label}"];')
            if parent is not None:
                stack.append(f'  {parent} -> {name} [label="{tag}"];')
            if node.left is not None:
                stack.append((node.right, name, "R"))
                stack.append((node.left, name, "L"))
        lines = ["digraph merge_tree {", "  node [shape=circle];"]
        lines.extend(node_lines)
        lines.extend(edge_lines)
        lines.append("}")
        return "\n".join(lines)


def _unchecked(root: MergeNode) -> MergeTree:
    """A MergeTree without the full-binary walk, for a root this package built."""
    tree = object.__new__(MergeTree)
    tree.__dict__["root"] = root
    return tree


def merge_equivalent(a: MergeTree, b: MergeTree) -> bool:
    """Same shape and directions; node values are ignored."""
    return a.shape_code() == b.shape_code()


def parse_shape_code(code: str) -> MergeTree:
    """Inverse of shape_code, producing a value-free tree."""
    # the left child of each open join once parsed, None before; an explicit
    # stack, so depth is bounded by memory, not the recursion limit
    open_joins: list[Optional[MergeNode]] = []
    i = 0
    while True:
        if i >= len(code):
            raise MalformedMergeTreeError("truncated shape code")
        if code[i] == "(":
            open_joins.append(None)
            i += 1
            continue
        if code[i] != LEAF_GLYPH:
            raise MalformedMergeTreeError(f"unexpected character {code[i]!r} at position {i}")
        node, i = MergeNode(None), i + 1
        # a finished right child closes its join, which may finish another
        while open_joins and open_joins[-1] is not None:
            if i >= len(code) or code[i] != ")":
                raise MalformedMergeTreeError(f"unbalanced parentheses at position {i}")
            node, i = MergeNode(None, open_joins.pop(), node), i + 1
        if not open_joins:
            break
        open_joins[-1] = node
    if i != len(code):
        raise MalformedMergeTreeError(f"trailing characters after position {i}")
    return _unchecked(node)


def induce_merge_tree(f: MorseFunction) -> MergeTree:
    """The merge tree of the sublevel filtration of f.

    Assembled from the joins of the sweep cached on f
    (:attr:`MorseFunction.sweep`), which :func:`persistence_diagram` reads
    too: each critical edge is a node whose children are the labels of the
    two components it joins, the heir keeping the parent's tag. A join's
    children are joins of smaller value or leaves, so tags go top down in
    decreasing value and nodes bottom up in increasing value; a join tagged
    R stores its heir on the right.

    With no critical edge at all (exactly one critical vertex), the merge
    tree is the single node carrying that vertex value.

    Raises:
        MorseValidationError: f was built without :func:`validate` and the
            sweep cannot make sense of it.
        CycleDetectedError: f's domain, built by hand, has a cycle.
    """
    joins, global_min, _ = f.sweep
    if not joins:
        return _unchecked(MergeNode(global_min))
    top = next(reversed(joins))
    # whether each label is tagged R; only a join's is read
    flipped = {top: False}
    for value, (heir, other, _) in reversed(joins.items()):
        flipped[heir] = flipped[value]
        flipped[other] = not flipped[value]
    # a label that no join produced is a critical vertex: a leaf
    node = partial(tuple.__new__, MergeNode)  # bypasses the Python-level __new__ of NamedTuple
    built: dict = {}
    for value, (heir, other, _) in joins.items():
        heir_node = built.pop(heir) if heir in joins else node((heir, None, None))
        other_node = built.pop(other) if other in joins else node((other, None, None))
        if flipped[value]:
            built[value] = node((value, other_node, heir_node))
        else:
            built[value] = node((value, heir_node, other_node))
    return _unchecked(built[top])
