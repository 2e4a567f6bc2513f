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

A MergeTree is its shape code and its node values in preorder: comparing,
counting and rendering all read these two flat fields, and no node object
is built.
"""

from __future__ import annotations

from .complexes import _Record
from .errors import MalformedMergeTreeError
from .morse import MorseFunction, _is_finite_real, _labels

LEAF_GLYPH = "•"
_IMPASSE_CODE = f"({LEAF_GLYPH}{LEAF_GLYPH})"  # a join of two leaves


class MergeTree(_Record):
    """A full binary tree tagged by position: its shape code and its node
    values in preorder, None for a node without a value.

    Raises:
        MalformedMergeTreeError: code is not a str or not a shape code,
            values is not iterable or does not hold one value per node, or
            a value is neither None nor a finite real, as validate requires.
    """

    _fields = ("code", "values")

    def __init__(self, code: str, values) -> None:
        try:
            items = iter(values)
        except TypeError:
            raise MalformedMergeTreeError(f"values must be iterable, not {type(values).__name__}") from None
        values = tuple(items)
        nodes = _node_count(code)
        if len(values) != nodes:
            raise MalformedMergeTreeError(f"a tree of {nodes} nodes needs {nodes} values, not {len(values)}")
        for x in values:  # no bool: True == 1 would make trees that render differently equal
            if x is not None and not _is_finite_real(x):
                shown = "a bool, not a number" if type(x) is bool else f"{x!r}, not a finite real number"
                raise MalformedMergeTreeError(f"a node value is {shown}")
        self.__dict__.update(code=code, values=values)

    @property
    def node_count(self) -> int:
        return len(self.values)

    def impasse_count(self) -> int:
        """The impasses, each a "(••)" in the shape code."""
        return self.code.count(_IMPASSE_CODE)

    def is_thin(self) -> bool:
        return self.impasse_count() == 1

    def shape_code(self) -> str:
        """Parenthesized leaf pattern: "•" for a leaf, "(LR)" for a join.

        Equal codes mean equal shapes, and so equal tags. Stored on the tree.
        """
        return self.code

    def to_text(self) -> str:
        """A "value tag" line per node in preorder, two spaces per level; "?" for no value."""
        lines: list[str] = []
        labels = _labels(self.values, "?")
        depth, tag, labels = 0, "L", iter(labels)
        # a join's first child is tagged L; whatever follows a leaf or a
        # closed join is a right child
        for c in self.code:
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
        labels = _labels(self.values, "")
        tag, labels = "L", iter(labels)
        for c in self.code:
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


def _stored(code: str, values: tuple) -> MergeTree:
    """A MergeTree from the shape code and preorder values of a tree this package built, unchecked."""
    tree = object.__new__(MergeTree)
    tree.__dict__.update(code=code, values=values)
    return tree


def _node_count(code: str) -> int:
    """The node count of a shape code, walked without recursion: its depth is bounded by memory."""
    if not isinstance(code, str):
        raise MalformedMergeTreeError(f"a shape code must be a str, not {type(code).__name__}")
    # per open join, whether its left child is finished
    left_done: list[bool] = []
    i = 0
    while True:
        if i >= len(code):
            raise MalformedMergeTreeError("truncated shape code")
        if code[i] == "(":
            left_done.append(False)
            i += 1
            continue
        if code[i] != LEAF_GLYPH:
            raise MalformedMergeTreeError(f"unexpected character {code[i]!r} at position {i}")
        i += 1
        # a finished right child closes its join, which may finish another
        while left_done and left_done[-1]:
            if i >= len(code) or code[i] != ")":
                raise MalformedMergeTreeError(f"unbalanced parentheses at position {i}")
            left_done.pop()
            i += 1
        if not left_done:
            break
        left_done[-1] = True
    if i != len(code):
        raise MalformedMergeTreeError(f"trailing characters after position {i}")
    return 2 * code.count("(") + 1


def merge_equivalent(a: MergeTree, b: MergeTree) -> bool:
    """Same shape and directions; node values are ignored."""
    return a.shape_code() == b.shape_code()


def parse_shape_code(code: str) -> MergeTree:
    """Inverse of shape_code, producing a value-free tree."""
    return _stored(code, (None,) * _node_count(code))


def induce_merge_tree(f: MorseFunction) -> MergeTree:
    """The merge tree of the sublevel filtration of f.

    Read off the joins of the sweep cached on f
    (:attr:`MorseFunction.sweep`), which :func:`persistence_diagram` reads
    too: each critical edge is a node whose children are the labels of the
    two components it joins. One walk goes down from the top join, writing
    the shape code and the values in preorder; the heir keeps its parent's
    tag, so a join tagged R has its heir on the right.

    With no critical edge at all, the walk starts at the one critical
    vertex, the global minimum, and the merge tree is that single leaf.

    Raises:
        MorseValidationError: f was built without :func:`validate`, and its
            values break a Morse condition.
    """
    joins, code, values, stack = f.sweep.joins, [], [], []
    # the walk goes down left children, each tagged L, and leaves on the
    # stack each join's ")" under its right child, tagged R; a label that
    # no join produced is a critical vertex: a leaf
    label, tagged_r = next(reversed(joins), f.sweep.global_min), False
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
            return _stored("".join(code), tuple(values))
