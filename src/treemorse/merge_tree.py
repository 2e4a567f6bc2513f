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

A MergeTree stores its shape code and its values in preorder, all that comparing,
counting and rendering read, and builds MergeNodes on the first read of its root.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .complexes import _cached, _Record
from .errors import MalformedMergeTreeError
from .morse import MorseFunction, format_value

LEAF_GLYPH = "•"
_IMPASSE_CODE = f"({LEAF_GLYPH}{LEAF_GLYPH})"  # a join of two leaves
_CLOSE = object()  # ends a join in a preorder walk


class MergeNode(NamedTuple):
    """A leaf (no children) or a binary join; value is None on hand-built nodes.

    Immutable, and compared and hashed by identity: a thin tree's leaves are
    equal in value, and NamedTuple equality would compare whole subtrees.
    """

    value: Optional[float]
    left: Optional["MergeNode"] = None
    right: Optional["MergeNode"] = None

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __repr__(self) -> str:
        """The NamedTuple repr, which recurses once per level, written by :func:`_repr` from one walk."""
        code, values, stack = [], [], [self]
        while stack:
            node = stack.pop()
            if node is _CLOSE:
                code.append(")")
                continue
            kind = "?" if not isinstance(node, MergeNode) else LEAF_GLYPH if node.left is node.right is None else "("
            code.append(kind)
            values.append(node if kind == "?" else node.value)
            if kind == "(":
                stack += (_CLOSE, node.right, node.left)
        return _repr("".join(code), values)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def is_impasse(self) -> bool:
        """An internal node both of whose children are leaves."""
        return self.left is not None and self.left.is_leaf and self.right.is_leaf


class MergeTree(_Record):
    """A full binary tree of MergeNodes tagged by position, stored as ``_code`` and ``_values``."""

    _fields = ("root",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, root: MergeNode) -> None:
        # one preorder walk checks each node before it reads the node's
        # children, and records the code and the values
        code, values, seen, stack = [], [], set(), [root]
        while stack:
            node = stack.pop()
            if node is _CLOSE:
                code.append(")")
                continue
            if not isinstance(node, MergeNode):
                raise MalformedMergeTreeError(f"a node must be a MergeNode, not {type(node).__name__}")
            if (node.left is None) != (node.right is None):
                raise MalformedMergeTreeError("every node needs zero or two children")
            if id(node) in seen:  # each node is alive in root, so ids stay unique
                raise MalformedMergeTreeError("a node appears twice: merge trees share no node")
            seen.add(id(node))
            values.append(node.value)
            if node.left is None:
                code.append(LEAF_GLYPH)
            else:
                code.append("(")
                stack += (_CLOSE, node.right, node.left)
        self.__dict__.update(root=root, _code="".join(code), _values=values)

    @_cached
    def root(self) -> MergeNode:
        return _build(self._code, self._values)

    def __repr__(self) -> str:
        """root's repr, read off the stored code and values."""
        return f"MergeTree(root={_repr(self._code, self._values)})"

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
        return len(self._values)

    def impasses(self) -> list[MergeNode]:
        return [n for n in self.nodes() if n.is_impasse]

    def impasse_count(self) -> int:
        """The impasses, each a "(••)" in the shape code."""
        return self._code.count(_IMPASSE_CODE)

    def is_thin(self) -> bool:
        return self.impasse_count() == 1

    def shape_code(self) -> str:
        """Parenthesized leaf pattern: "•" for a leaf, "(LR)" for a join.

        Equal codes mean equal shapes, and so equal tags. Stored on the tree.
        """
        return self._code

    def to_text(self) -> str:
        """A "value tag" line per node in preorder, two spaces per level; "?" for no value."""
        lines: list[str] = []
        labels = [str(x) if type(x) is int else "?" if x is None else format_value(x) for x in self._values]
        depth, tag, labels = 0, "L", iter(labels)
        # a join's first child is tagged L; whatever follows a leaf or a
        # closed join is a right child
        for c in self._code:
            if c == ")":
                depth -= 1
                continue
            lines.append("  " * depth + f"{next(labels)} {tag}")
            if c == "(":
                depth, tag = depth + 1, "L"
            else:
                tag = "R"
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz rendering; the left child edge precedes the right one."""
        node_lines: list[str] = []
        edge_lines: list[str] = []
        # nodes are numbered in preorder; the edge into a node follows every
        # edge of the node's subtree, so an open join's waits for its ")"
        open_joins: list = []  # (name, the edge into it)
        labels = [str(x) if type(x) is int else "" if x is None else format_value(x) for x in self._values]
        tag, labels = "L", iter(labels)
        for c in self._code:
            if c == ")":
                edge_lines.append(open_joins.pop()[1])
                continue
            name = f"n{len(node_lines)}"
            node_lines.append(f'  {name} [label="{next(labels)}"];')
            into = f'  {open_joins[-1][0]} -> {name} [label="{tag}"];' if open_joins else ""
            if c == "(":
                open_joins.append((name, into))
                tag = "L"
            else:
                edge_lines.append(into)
                tag = "R"
        # the root's "" comes last: its ")" ends the code, or it is the one leaf
        return "\n".join(["digraph merge_tree {", "  node [shape=circle];", *node_lines, *edge_lines[:-1], "}"])


def _repr(code, values) -> str:
    """The repr of the node a shape code and its preorder values give; a "?" is a child that is no node."""
    shown = {"(": "MergeNode(value={}, left=", LEAF_GLYPH: "MergeNode(value={}, left=None, right=None)", "?": "{}"}
    values = iter(values)
    # each character with the one before it: a node after a finished subtree is a right child
    return "".join(")" if c == ")" else ("" if last == "(" else ", right=") + shown[c].format(repr(next(values)))
                   for c, last in zip(code, "(" + code))


def _stored(code: str, values: list) -> MergeTree:
    """A MergeTree from the shape code and preorder values of a tree this package built."""
    tree = object.__new__(MergeTree)
    tree.__dict__["_code"], tree.__dict__["_values"] = code, values
    return tree


def _build(code: str, values) -> MergeNode:
    """The root a shape code and its preorder values describe; None past the last value."""
    # each open join's value and, once parsed, its left child; an explicit
    # stack, so depth is bounded by memory, not the recursion limit
    open_joins: list[list] = []
    values = iter(values)
    i = 0
    while True:
        if i >= len(code):
            raise MalformedMergeTreeError("truncated shape code")
        if code[i] == "(":
            open_joins.append([next(values, None), None])
            i += 1
            continue
        if code[i] != LEAF_GLYPH:
            raise MalformedMergeTreeError(f"unexpected character {code[i]!r} at position {i}")
        node, i = MergeNode(next(values, None)), i + 1
        # a finished right child closes its join, which may finish another
        while open_joins and open_joins[-1][1] is not None:
            if i >= len(code) or code[i] != ")":
                raise MalformedMergeTreeError(f"unbalanced parentheses at position {i}")
            value, left = open_joins.pop()
            node, i = MergeNode(value, left, node), i + 1
        if not open_joins:
            break
        open_joins[-1][1] = node
    if i != len(code):
        raise MalformedMergeTreeError(f"trailing characters after position {i}")
    return node


def merge_equivalent(a: MergeTree, b: MergeTree) -> bool:
    """Same shape and directions; node values are ignored."""
    return a.shape_code() == b.shape_code()


def parse_shape_code(code: str) -> MergeTree:
    """Inverse of shape_code, producing a value-free tree."""
    root = _build(code, ())
    tree = _stored(code, [None] * (2 * code.count("(") + 1))
    tree.__dict__["root"] = root
    return tree


def induce_merge_tree(f: MorseFunction) -> MergeTree:
    """The merge tree of the sublevel filtration of f.

    Read off the joins of the sweep cached on f
    (:attr:`MorseFunction.sweep`), which :func:`persistence_diagram` reads
    too: each critical edge is a node whose children are the labels of the
    two components it joins. One walk goes down from the top join, writing
    the shape code and the values in preorder; the heir keeps its parent's
    tag, so a join tagged R has its heir on the right.

    With no critical edge at all (exactly one critical vertex), the merge
    tree is the single node carrying that vertex value.

    Raises:
        MorseValidationError: f was built without :func:`validate`, and its
            values break a Morse condition.
    """
    joins, global_min, _ = f.sweep
    if not joins:
        return _stored(LEAF_GLYPH, [global_min])
    code, values, stack = [], [], []
    # the walk goes down left children, each tagged L, and leaves on the
    # stack each join's ")" under its right child, tagged R; a label that
    # no join produced is a critical vertex: a leaf
    label, tagged_r = next(reversed(joins)), False
    while True:
        values.append(label)
        join = joins.get(label)
        if join is not None:
            code.append("(")
            left, right, _ = join  # heir first
            if tagged_r:  # the heir keeps R, on the right
                left, right, tagged_r = right, left, False
            stack += (")", right)
            label = left
            continue
        code.append(LEAF_GLYPH)
        while stack:
            label = stack.pop()
            if type(label) is not str:  # labels are real numbers
                tagged_r = True
                break
            code.append(")")
        else:
            return _stored("".join(code), values)
