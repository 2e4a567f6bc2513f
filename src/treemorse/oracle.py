"""Exhaustive enumeration of injective discrete Morse functions.

An injective function on a tree with N simplices is, up to order-preserving
relabeling, a bijection onto 0..N-1 that respects the face order: every
vertex below each of its edges. Those are exactly the linear extensions of
the face poset, generated here by backtracking over the minimal available
elements. The counts are small but grow quickly, hence the simplex budget.

Labels are handed out in increasing order along each backtracking path, so
the path already is the sublevel sweep of the labeling it ends in. The
sweep therefore runs inside the enumeration: a union-find with rollback
(union by size, no path compression, every link undone on backtrack) grows
the merge tree one placement at a time, and every complete labeling arrives
with its merge tree already swept.

Counting merge classes needs no labeling at all: what the rest of a
labeling can still do to its merge tree depends only on which simplices are
placed, how the components rank by their minima and each component's
shapes. count_merge_classes searches those states layer by layer, so equal
states reached by different labelings are expanded once.

This module is the verification backbone for the structural claims about
induced merge trees; check_invariants runs them over every labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .complexes import Edge, Simplex, SimplicialTree, is_edge
from .errors import BudgetExceededError
from .merge_tree import LEAF_GLYPH, format_value
from .morse import MorseFunction

DEFAULT_SIMPLEX_BUDGET = 11

WITNESS_CAP = 5


def _check_budget(tree: SimplicialTree, budget: int) -> None:
    n = tree.simplex_count
    if n > budget:
        raise BudgetExceededError(f"{n} simplices exceed the budget of {budget}")


class ShapeTable:
    """Hash-consed merge-tree shapes and the join rule that grows them.

    Id 0 is the leaf; every other id stands for one join of a (left, right)
    pair of ids, so equal ids mean equal shape codes. A component of the
    sweep is described by a pair of ids (L, R): its shape with its top node
    tagged L, and tagged R. When an edge joins two components, the heir,
    the one holding the smaller label, inherits its parent's direction, so
    the joined pair is L = (L(heir), R(other)) and R = (L(other), R(heir)).
    """

    LEAF = (0, 0)

    def __init__(self) -> None:
        self._children: list[tuple[int, int]] = [(0, 0)]
        self._node_counts = [1]
        self._ids: dict[tuple[int, int], int] = {}
        # every join so far, (heir pair, other pair) -> joined pair; the
        # labeling sweep looks here first to spare a call per edge
        self.joined: dict[tuple[tuple[int, int], tuple[int, int]], tuple[int, int]] = {}

    def _intern(self, key: tuple[int, int]) -> int:
        shape = self._ids.get(key)
        if shape is None:
            shape = self._ids[key] = len(self._children)
            self._children.append(key)
            self._node_counts.append(self._node_counts[key[0]] + self._node_counts[key[1]] + 1)
        return shape

    def join(self, heir: tuple[int, int], other: tuple[int, int]) -> tuple[int, int]:
        """The (L, R) pair of the component joined from heir and other."""
        joined = self.joined.get((heir, other))
        if joined is None:
            joined = self.joined[heir, other] = (
                self._intern((heir[0], other[1])),
                self._intern((other[0], heir[1])),
            )
        return joined

    def node_count(self, shape: int) -> int:
        return self._node_counts[shape]

    def shape_code(self, shape: int) -> str:
        """The MergeTree.shape_code of an interned shape."""
        out = []
        stack: list = [shape]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
            elif item == 0:
                out.append(LEAF_GLYPH)
            else:
                left, right = self._children[item]
                out.append("(")
                stack.extend((")", right, left))
        return "".join(out)


class LabelingSweep:
    """Every injective labeling of a tree, each with its merge tree swept.

    Iterating yields once per complete labeling, in the order of
    enumerate_critical_dmfs, a tuple (shape, components, vertices, overlaps):

    - shape: id of the merge tree with its root tagged L in the sweep's
      ShapeTable, `shapes`;
    - components: union-find roots left once every simplex is placed;
    - vertices: vertex placements, each a new leaf (the rest are joins);
    - overlaps: vertices shared between two impasse edges.

    Until the next labeling is requested, `values()` is the labeling and
    `impasse_edges` lists its impasse edges in sweep order. Like a
    generator, a sweep makes one pass.

    Each union-find root stores its component's smallest label and its
    (L, R) pair of shape ids; an edge joins the components of its endpoints
    by ShapeTable.join. An edge is an impasse exactly when both components
    are single vertices: both children of its node are leaves.
    """

    def __init__(self, tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET):
        _check_budget(tree, budget)
        vertices = sorted(tree.vertices)
        # simplex ids: vertices first, then edges, each in sorted order
        self._simplices: list[Simplex] = [*vertices, *sorted(tree.edges)]
        self._order: list[int] = []  # simplex id per label handed out so far
        self.impasse_edges: list[Edge] = []
        self.shapes = ShapeTable()
        self._labelings = self._sweep(len(vertices))

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        return self._labelings

    def values(self) -> dict[Simplex, int]:
        """The current labeling, simplices in label order."""
        simplices = self._simplices
        return {simplices[s]: label for label, s in enumerate(self._order)}

    def _sweep(self, n_vertices: int) -> Iterator[tuple[int, int, int, int]]:
        simplices = self._simplices
        n = len(simplices)
        index = {v: i for i, v in enumerate(simplices[:n_vertices])}
        ends: list = [None] * n_vertices  # vertex ids of each edge id
        incident: list[list[int]] = [[] for _ in range(n_vertices)]
        for s in range(n_vertices, n):
            a, b = index[simplices[s][0]], index[simplices[s][1]]
            ends.append((a, b))
            incident[a].append(s)
            incident[b].append(s)
        unplaced_ends = [2] * n
        # simplices that may take the next label: free vertices, and edges
        # whose endpoints are both placed; sorted ids put vertices first
        available = set(range(n_vertices))
        order = self._order
        impasse_edges = self.impasse_edges

        # union-find over vertex ids; an unplaced vertex is its own root
        parent = list(range(n_vertices))
        size = [1] * n_vertices
        low = [0] * n_vertices  # smallest label in the component
        shape = [ShapeTable.LEAF] * n_vertices  # component's (L, R) shape ids
        join = self.shapes.join
        joined_pairs = self.shapes.joined
        on_impasse = [0] * n_vertices  # impasse edges at each vertex
        placed_vertices = components = overlaps = 0
        links = []  # (kept root, absorbed root, kept root's old data, impasse) per placed edge
        # one frame per label handed out: its sorted choices and the next one to try;
        # the loop is flat so that a labeling reaches the caller in one yield
        frames = [[sorted(available), 0]]
        while frames:
            frame = frames[-1]
            choices, i = frame
            if i:  # undo this label's previous choice
                s = order.pop()
                available.add(s)
                if s < n_vertices:
                    placed_vertices -= 1
                    components -= 1
                    for e in incident[s]:
                        if not unplaced_ends[e]:
                            available.discard(e)
                        unplaced_ends[e] += 1
                else:
                    keep, gone, saved, impasse = links.pop()
                    size[keep], low[keep], shape[keep] = saved
                    parent[gone] = gone
                    components += keep != gone
                    if impasse:
                        a, b = ends[s]
                        overlaps -= (on_impasse[a] > 1) + (on_impasse[b] > 1)
                        on_impasse[a] -= 1
                        on_impasse[b] -= 1
                        impasse_edges.pop()
            if i == len(choices):
                frames.pop()
                continue
            frame[1] = i + 1
            s = choices[i]
            label = len(order)
            order.append(s)
            available.remove(s)
            if s < n_vertices:  # a new component: a single leaf
                placed_vertices += 1
                components += 1
                low[s] = label
                for e in incident[s]:
                    unplaced_ends[e] -= 1
                    if not unplaced_ends[e]:
                        available.add(e)
            else:  # a join of the components at the two endpoints
                a, b = ends[s]
                heir = a
                while parent[heir] != heir:
                    heir = parent[heir]
                other = b
                while parent[other] != other:
                    other = parent[other]
                if low[other] < low[heir]:
                    heir, other = other, heir
                key = shape[heir], shape[other]
                joined = joined_pairs.get(key) or join(*key)
                impasse = size[heir] == 1 and size[other] == 1
                joined_low = low[heir]
                keep, gone = (heir, other) if size[heir] >= size[other] else (other, heir)
                saved = size[keep], low[keep], shape[keep]
                links.append((keep, gone, saved, impasse))
                parent[gone] = keep
                size[keep] += size[gone]
                low[keep] = joined_low
                shape[keep] = joined
                components -= keep != gone
                if impasse:
                    impasse_edges.append(simplices[s])
                    on_impasse[a] += 1
                    on_impasse[b] += 1
                    overlaps += (on_impasse[a] > 1) + (on_impasse[b] > 1)
            if label + 1 < n:
                frames.append([sorted(available), 0])
                continue
            root = 0
            while parent[root] != root:
                root = parent[root]
            yield shape[root][0], components, placed_vertices, overlaps


def enumerate_critical_dmfs(
    tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET
) -> Iterator[MorseFunction]:
    """Yield every injective labeling of tree by 0..N-1, all simplices critical.

    Deterministic: at each step the free vertices are tried in sorted order,
    then the edges whose endpoints are both placed.
    """
    sweep = LabelingSweep(tree, budget=budget)
    return (MorseFunction(tree, sweep.values()) for _ in sweep)


def count_merge_classes(tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET) -> int:
    """Distinct merge-tree shapes over every enumerated labeling.

    A breadth-first search over enumeration states, one label per layer,
    keeping only the current layer. A state is the bitmask of placed
    simplices, each vertex's component rank among the components' minima
    (-1 while the vertex is unplaced), and each rank's (L, R) shape pair.
    What the remaining labels can still make of the merge tree depends on
    the labels so far only through that state, so labelings that reach an
    equal state are followed once.

    Placing a vertex adds a last-ranked leaf component. Placing an edge
    joins its endpoints' components by ShapeTable.join, the lower rank as
    heir, then drops the other rank and shifts the ranks above it down by
    one. Once every simplex is placed, one component is left and its L id
    is the labeling's merge-tree shape.
    """
    _check_budget(tree, budget)
    vertices = sorted(tree.vertices)
    n_vertices = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    # edge bits follow the vertex bits, edges in sorted order
    edges = [
        (1 << (n_vertices + i), index[a], index[b])
        for i, (a, b) in enumerate(sorted(tree.edges))
    ]
    join = ShapeTable().join
    leaf = (ShapeTable.LEAF,)
    layer = {(0, (-1,) * n_vertices, ())}
    for _ in range(tree.simplex_count):
        following = set()
        for placed, ranks, shapes in layer:
            for v in range(n_vertices):
                if ranks[v] < 0:
                    grown = list(ranks)
                    grown[v] = len(shapes)
                    following.add((placed | 1 << v, tuple(grown), shapes + leaf))
            for bit, a, b in edges:
                if placed & bit or ranks[a] < 0 or ranks[b] < 0:
                    continue
                heir, other = sorted((ranks[a], ranks[b]))
                joined = join(shapes[heir], shapes[other])
                following.add((
                    placed | bit,
                    tuple(heir if r == other else r - (r > other) for r in ranks),
                    shapes[:heir] + (joined,) + shapes[heir + 1:other] + shapes[other + 1:],
                ))
        layer = following
    return len({shapes[0][0] for _, _, shapes in layer})


def _describe(f: MorseFunction) -> str:
    def name(s: Simplex) -> str:
        return "-".join(s) if is_edge(s) else s

    ordered = sorted(f.values.items(), key=lambda item: item[1])
    return " ".join(f"{name(s)}={format_value(x)}" for s, x in ordered)


@dataclass
class PropertyCheck:
    """Pass/fail tally for one invariant, with witnessing labelings."""

    name: str
    checked: int = 0
    failed: int = 0
    witnesses: list[str] = field(default_factory=list)

    def record(self, ok: bool, f: MorseFunction) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.witnesses) < WITNESS_CAP:
                self.witnesses.append(_describe(f))


@dataclass
class InvariantReport:
    """Result of running the invariant suite over a full enumeration."""

    function_count: int
    checks: list[PropertyCheck]
    min_impasse_count: int
    max_impasse_count: int
    matching_number: int

    @property
    def ok(self) -> bool:
        return all(c.failed == 0 for c in self.checks)

    def to_text(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"functions checked: {self.function_count}"]
        lines.extend(
            f"  {c.name.ljust(width)}  {c.checked} checked, {c.failed} failed"
            for c in self.checks
        )
        for c in self.checks:
            for w in c.witnesses:
                lines.append(f"  witness [{c.name}]: {w}")
        lines.append(
            "  impasse counts observed: "
            f"{self.min_impasse_count}..{self.max_impasse_count} "
            f"(matching number {self.matching_number})"
        )
        lines.append("all invariants hold" if self.ok else "INVARIANT FAILURES")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "functions": self.function_count,
            "ok": self.ok,
            "impasse_count_min": self.min_impasse_count,
            "impasse_count_max": self.max_impasse_count,
            "matching_number": self.matching_number,
            "checks": [
                {
                    "name": c.name,
                    "checked": c.checked,
                    "failed": c.failed,
                    "witnesses": list(c.witnesses),
                }
                for c in self.checks
            ],
        }


def check_invariants(
    tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET
) -> InvariantReport:
    """Check the merge-tree invariants over every enumerated labeling.

    Each labeling's merge tree is swept inside the enumeration (see
    LabelingSweep), and the six checks read that sweep's data as the
    labeling completes. All N labels are distinct, so all N simplices are
    critical.

    - full binary: exactly one component is left, so every join linked two
      distinct subtrees and the joins built a single tree;
    - node count = critical values: the root shape, counted node by node as
      it was interned, has N nodes;
    - impasse exists (n > 1): a single-node tree, or at least one edge that
      joined two single vertices;
    - impasse count <= matching number: that edge count is at most the
      tree's matching number;
    - impasse edges disjoint: no vertex lies on two impasse edges;
    - critical vertices = edges + 1: vertex placements outnumber the edge
      placements, N minus them, by one.

    A check's witnesses are the first labelings at which it failed, at most
    WITNESS_CAP of them.
    """
    checks = [
        PropertyCheck(name)
        for name in (
            "full binary",
            "node count = critical values",
            "impasse exists (n > 1)",
            "impasse count <= matching number",
            "impasse edges disjoint",
            "critical vertices = edges + 1",
        )
    ]

    sweep = LabelingSweep(tree, budget=budget)
    n = tree.simplex_count
    nu = tree.matching_number()
    impasse_edges = sweep.impasse_edges
    node_count = sweep.shapes.node_count
    total = passed = 0
    seen_impasse_counts = [False] * (n + 1)
    for shape, components, vertices, overlaps in sweep:
        total += 1
        k = len(impasse_edges)
        seen_impasse_counts[k] = True
        nodes = node_count(shape)
        verdicts = (
            components == 1,
            nodes == n,
            nodes == 1 or k >= 1,
            k <= nu,
            overlaps == 0,
            vertices == (n - vertices) + 1,
        )
        if all(verdicts):
            passed += 1
            continue
        f = MorseFunction(tree, sweep.values())
        for check, ok in zip(checks, verdicts):
            check.record(ok, f)
    # labelings that passed everything are tallied once, not per check
    for check in checks:
        check.checked += passed

    observed = [k for k, seen in enumerate(seen_impasse_counts) if seen]
    return InvariantReport(total, checks, observed[0], observed[-1], nu)
