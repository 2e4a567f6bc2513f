"""Merge trees induced by discrete Morse functions on trees.

As the threshold rises past a critical edge, two components of the strict
sublevel complex join. The node recording that join is labeled by the edge
value and has one child per component, each labeled by the largest critical
value its component held just below the join. Recursing downward ends in
leaves labeled by critical vertex values.

Direction tags make child order canonical: the root is tagged L; at every
join the child whose component holds the smaller minimum keeps its parent's
tag while the sibling takes the opposite one; and the L-tagged child is
stored on the left. Equal shape therefore means equal tags as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import MorseValidationError
from .morse import MorseFunction

LEAF_GLYPH = "•"


def format_value(value: float) -> str:
    """Integer-valued floats print without a trailing .0."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


@dataclass(frozen=True, eq=False)
class MergeNode:
    """A leaf (no children) or a binary join; value is None on hand-built nodes."""

    value: Optional[float]
    direction: str
    left: Optional["MergeNode"] = None
    right: Optional["MergeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def is_impasse(self) -> bool:
        """An internal node both of whose children are leaves."""
        return self.left is not None and self.left.is_leaf and self.right.is_leaf


@dataclass(frozen=True, eq=False)
class MergeTree:
    """A full binary tree with position-consistent direction tags."""

    root: MergeNode

    def __post_init__(self) -> None:
        if self.root.direction != "L":
            raise ValueError("root direction must be L")
        stack = [self.root]
        while stack:  # plain loop: this runs on every construction
            node = stack.pop()
            left, right = node.left, node.right
            if (left is None) != (right is None):
                raise ValueError("every node needs zero or two children")
            if left is not None:
                if left.direction != "L" or right.direction != "R":
                    raise ValueError("left children are tagged L, right children R")
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

    def internal_nodes(self) -> list[MergeNode]:
        return [n for n in self.nodes() if not n.is_leaf]

    @property
    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    def impasses(self) -> list[MergeNode]:
        return [n for n in self.nodes() if n.is_impasse]

    def impasse_count(self) -> int:
        return len(self.impasses())

    def is_thin(self) -> bool:
        return self.impasse_count() == 1

    def shape_code(self) -> str:
        """Parenthesized leaf pattern: "•" for a leaf, "(LR)" for a join.

        Equal codes mean the trees agree as shapes with directions.
        """

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

    def to_dot(self) -> str:
        """Graphviz rendering; the left child edge precedes the right one."""
        node_lines: list[str] = []
        edge_lines: list[str] = []
        # nodes are numbered in preorder; the edge into a node follows every
        # edge of the node's subtree, so it waits on the stack beneath the
        # node's children
        stack: list = [(self.root, None)]
        while stack:
            item = stack.pop()
            if type(item) is str:
                edge_lines.append(item)
                continue
            node, parent = item
            name = f"n{len(node_lines)}"
            label = "" if node.value is None else format_value(node.value)
            node_lines.append(f'  {name} [label="{label}"];')
            if parent is not None:
                stack.append(f'  {parent} -> {name} [label="{node.direction}"];')
            if node.left is not None:
                stack.append((node.right, name))
                stack.append((node.left, name))
        lines = ["digraph merge_tree {", "  node [shape=circle];"]
        lines.extend(node_lines)
        lines.extend(edge_lines)
        lines.append("}")
        return "\n".join(lines)


def merge_equivalent(a: MergeTree, b: MergeTree) -> bool:
    """Same shape and directions; node values are ignored."""
    return a.shape_code() == b.shape_code()


def parse_shape_code(code: str) -> MergeTree:
    """Inverse of shape_code, producing a value-free tree."""

    def parse(i: int, direction: str) -> tuple[MergeNode, int]:
        if i >= len(code):
            raise ValueError("truncated shape code")
        if code[i] == LEAF_GLYPH:
            return MergeNode(None, direction), i + 1
        if code[i] != "(":
            raise ValueError(f"unexpected character {code[i]!r} at position {i}")
        left, j = parse(i + 1, "L")
        right, k = parse(j, "R")
        if k >= len(code) or code[k] != ")":
            raise ValueError(f"unbalanced parentheses at position {k}")
        return MergeNode(None, direction, left, right), k + 1

    root, end = parse(0, "L")
    if end != len(code):
        raise ValueError(f"trailing characters after position {end}")
    return MergeTree(root)


def induce_merge_tree(f: MorseFunction) -> MergeTree:
    """The merge tree of the sublevel filtration of f.

    One increasing sweep tracks, for every component of the growing complex,
    its minimum value and the largest critical value it has reached. Each
    critical edge then records the labels of its two child components and
    which of them keeps the parent's direction; the tree is assembled from
    the top once the sweep is done.

    With no critical edge at all (exactly one critical vertex), the merge
    tree is the single node carrying that vertex value.
    """
    # same ordering as sweep_order, kept in decorated form: criticality
    # drops out of the sort itself (a shared value shows up as two
    # consecutive entries); is_edge is inlined as the tuple test on this
    # hottest line
    decorated = sorted(
        [
            (value, 1 if type(simplex) is tuple else 0, simplex)
            for simplex, value in f.values.items()
        ]
    )
    total = len(decorated)
    paired = [False] * total
    for i in range(total - 1):
        if decorated[i][0] == decorated[i + 1][0]:
            paired[i] = paired[i + 1] = True

    edge_values = [
        entry[0] for entry, p in zip(decorated, paired) if not p and entry[1]
    ]
    if not edge_values:
        (only,) = (entry[0] for entry, p in zip(decorated, paired) if not p)
        return MergeTree(MergeNode(only, "L"))

    # components tracked by a leader vertex, smaller side relabeled on a
    # join; at these sizes plain dicts beat a general union-find
    leader: dict = {}
    members: dict = {}
    # leader -> (component minimum, largest critical value so far)
    state: dict = {}
    # critical edge value -> ((child label, component min), (child label, component min))
    joins: dict = {}
    for i, (value, dim, simplex) in enumerate(decorated):
        if not dim:
            leader[simplex] = simplex
            members[simplex] = [simplex]
            state[simplex] = (value, None if paired[i] else value)
        else:
            root_u = leader[simplex[0]]
            root_v = leader[simplex[1]]
            min_u, crit_u = state[root_u]
            min_v, crit_v = state[root_v]
            if not paired[i]:
                # both components already contain a critical vertex
                if crit_u is None or crit_v is None:
                    raise MorseValidationError(
                        f"critical edge {simplex!r} reaches a component with no critical vertex"
                    )
                joins[value] = ((crit_u, min_u), (crit_v, min_v))
                new_crit = value
            else:
                # a paired edge attaches its fresh paired vertex to an older
                # component; nothing merges and no new label appears
                if (crit_u is None) == (crit_v is None):
                    raise MorseValidationError(
                        f"paired edge {simplex!r} does not attach exactly one paired vertex"
                    )
                new_crit = crit_u if crit_v is None else crit_v
            if len(members[root_u]) < len(members[root_v]):
                root_u, root_v = root_v, root_u
            for w in members[root_v]:
                leader[w] = root_u
            members[root_u].extend(members[root_v])
            del members[root_v]
            state[root_u] = (min(min_u, min_v), new_crit)
            del state[root_v]

    # the largest critical value always sits on an edge once one exists
    for j in range(total - 1, -1, -1):
        if not paired[j]:
            if decorated[j][0] != edge_values[-1]:
                raise MorseValidationError(
                    f"the largest critical value {decorated[j][0]} is not on an edge"
                )
            break

    # top down: each node's value and direction, with its children as
    # (left label, right label); then bottom up, children before parents
    preorder = []
    stack = [(edge_values[-1], "L")]
    while stack:
        value, direction = stack.pop()
        children = joins.get(value)
        if children is None:
            preorder.append((value, direction, None))
            continue
        (label_a, min_a), (label_b, min_b) = children
        if min_a == min_b:  # distinct vertex values keep the rule unambiguous
            raise MorseValidationError(f"the components joined at {value} share their minimum")
        if min_a < min_b:
            inherits, other = label_a, label_b
        else:
            inherits, other = label_b, label_a
        flipped = "R" if direction == "L" else "L"
        if direction == "L":
            preorder.append((value, direction, (inherits, other)))
        else:
            preorder.append((value, direction, (other, inherits)))
        stack.append((other, flipped))
        stack.append((inherits, direction))

    built: dict = {}
    for value, direction, children in reversed(preorder):
        if children is None:
            built[value] = MergeNode(value, direction)
        else:
            left, right = children
            built[value] = MergeNode(value, direction, built.pop(left), built.pop(right))
    return MergeTree(built[edge_values[-1]])
