"""Exhaustive enumeration of injective discrete Morse functions, and the
state search that counts them without listing them.

An injective function on a tree with N simplices is, up to order-preserving
relabeling, a bijection onto 0..N-1 that respects the face order: every
vertex below each of its edges. Those are exactly the linear extensions of
the face poset. LabelingSweep generates them one by one, backtracking over
the minimal available elements; their number grows factorially, so
enumerate_critical_dmfs takes a simplex budget.

Labels are handed out in increasing order, so a labeling's prefix already
is the sublevel sweep of its first labels. What the rest of a labeling can
still do to its merge tree and impasses depends only on a small state:
which simplices are placed, how the components rank by their minima, each
component's shapes, and the impasse facts so far. final_states searches
those states layer by layer, each carrying the number of labelings that
reach it, so equal states reached by different labelings are expanded once.
check_invariants and count_merge_classes share that one search: the first
reads the merge-tree invariants off its final states, weighted by their
counts, the second their distinct shapes. Both still refuse a tree over the
budget, but only the enumeration's time grows factorially with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .complexes import Simplex, SimplicialTree, is_edge
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

    def _intern(self, key: tuple[int, int]) -> int:
        shape = self._ids.get(key)
        if shape is None:
            shape = self._ids[key] = len(self._children)
            self._children.append(key)
            self._node_counts.append(self._node_counts[key[0]] + self._node_counts[key[1]] + 1)
        return shape

    def join(self, heir: tuple[int, int], other: tuple[int, int]) -> tuple[int, int]:
        """The (L, R) pair of the component joined from heir and other."""
        return self._intern((heir[0], other[1])), self._intern((other[0], heir[1]))

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
    """Every injective labeling of a tree by 0..N-1, one per iteration.

    Each labeling is a dict from simplex to label, simplices in label
    order. At each step the free vertices are tried in sorted order, then
    the edges whose endpoints are both placed, in sorted order.
    """

    def __init__(self, tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET):
        _check_budget(tree, budget)
        self._vertices = sorted(tree.vertices)
        self._edges = sorted(tree.edges)

    def __iter__(self) -> Iterator[dict[Simplex, int]]:
        # simplex ids: vertices first, then edges, each in sorted order
        n_vertices = len(self._vertices)
        simplices: list[Simplex] = [*self._vertices, *self._edges]
        index = {v: i for i, v in enumerate(self._vertices)}
        incident: list[list[int]] = [[] for _ in range(n_vertices)]
        for s, (a, b) in enumerate(self._edges, n_vertices):
            incident[index[a]].append(s)
            incident[index[b]].append(s)
        unplaced_ends = [2] * len(simplices)
        # simplices that may take the next label: free vertices, and edges
        # whose endpoints are both placed
        available = set(range(n_vertices))
        order: list[int] = []  # simplex id per label handed out so far
        # one frame per label handed out: its sorted choices and the next one to try
        frames = [[sorted(available), 0]]
        while frames:
            frame = frames[-1]
            choices, i = frame
            if i:  # undo this label's previous choice
                s = order.pop()
                available.add(s)
                if s < n_vertices:
                    for e in incident[s]:
                        if not unplaced_ends[e]:
                            available.discard(e)
                        unplaced_ends[e] += 1
            if i == len(choices):
                frames.pop()
                continue
            frame[1] = i + 1
            s = choices[i]
            order.append(s)
            available.remove(s)
            if s < n_vertices:
                for e in incident[s]:
                    unplaced_ends[e] -= 1
                    if not unplaced_ends[e]:
                        available.add(e)
            if len(order) < len(simplices):
                frames.append([sorted(available), 0])
            else:
                yield {simplices[s]: label for label, s in enumerate(order)}


def enumerate_critical_dmfs(
    tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET
) -> Iterator[MorseFunction]:
    """Yield every injective labeling of tree by 0..N-1, all simplices critical.

    Deterministic: at each step the free vertices are tried in sorted order,
    then the edges whose endpoints are both placed.
    """
    return (MorseFunction(tree, values) for values in LabelingSweep(tree, budget=budget))


def final_states(
    tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET
) -> tuple[dict[tuple, list], list[Simplex], ShapeTable]:
    """The enumeration's final states, each with the labelings that reach it.

    A breadth-first search over enumeration states, one label per layer,
    keeping only the current layer's states; earlier layers live on only as
    the parent links of its entries. Simplex ids put the vertices first, then
    the edges, each in sorted order. A state is the tuple

    - placed: bitmask of placed simplex ids;
    - ranks: each vertex's component rank among the components' minima,
      -1 while the vertex is unplaced;
    - shapes: each rank's (L, R) pair of ShapeTable ids;
    - on_impasse: bitmask of vertex ids on impasse edges;
    - impasses: the number of impasse edges;
    - overlaps: impasse-edge endpoints already on an impasse edge.

    Placing a vertex adds a last-ranked leaf component. Placing an edge
    joins its endpoints' components by ShapeTable.join, the lower rank as
    heir, then drops the other rank and shifts the ranks above it down by
    one. The edge is an impasse exactly when both joined pairs are
    ShapeTable.LEAF. What the remaining labels can do depends on the labels
    so far only through the state, so labelings that reach an equal state
    are followed once.

    Each state maps to [count, parent, simplex id]: the number of labelings
    that reach it, then the entry it first arrived from and the simplex
    placed on that arrival. States are expanded in first-arrival order and
    candidates in id order, the order LabelingSweep tries them, so each
    layer's dict order is the enumeration order of the earliest labeling
    reaching each state, and following parents spells that labeling
    backwards.

    Returns the final layer, the simplices by id, and the ShapeTable the
    shape ids refer to.
    """
    _check_budget(tree, budget)
    vertices = sorted(tree.vertices)
    edges = sorted(tree.edges)
    n_vertices = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    ends = [(s, index[a], index[b]) for s, (a, b) in enumerate(edges, n_vertices)]
    table = ShapeTable()
    leaf = ShapeTable.LEAF
    layer: dict[tuple, list] = {(0, (-1,) * n_vertices, (), 0, 0, 0): [1, None, None]}
    for _ in range(tree.simplex_count):
        following: dict[tuple, list] = {}
        for state, entry in layer.items():
            placed, ranks, shapes, on_impasse, impasses, overlaps = state
            successors = []
            for v in range(n_vertices):
                if ranks[v] < 0:
                    grown = list(ranks)
                    grown[v] = len(shapes)
                    successors.append((v, (
                        placed | 1 << v, tuple(grown), shapes + (leaf,),
                        on_impasse, impasses, overlaps,
                    )))
            for s, a, b in ends:
                if placed >> s & 1 or ranks[a] < 0 or ranks[b] < 0:
                    continue
                heir, other = sorted((ranks[a], ranks[b]))
                if shapes[heir] == shapes[other] == leaf:
                    pair = 1 << a | 1 << b
                    facts = on_impasse | pair, impasses + 1, overlaps + (on_impasse & pair).bit_count()
                else:
                    facts = on_impasse, impasses, overlaps
                successors.append((s, (
                    placed | 1 << s,
                    tuple([heir if r == other else r - (r > other) for r in ranks]),
                    shapes[:heir] + (table.join(shapes[heir], shapes[other]),)
                    + shapes[heir + 1:other] + shapes[other + 1:],
                    *facts,
                )))
            count = entry[0]
            for s, successor in successors:
                reached = following.get(successor)
                if reached is None:
                    following[successor] = [count, entry, s]
                else:
                    reached[0] += count
        layer = following
    return layer, [*vertices, *edges], table


def count_merge_classes(tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET) -> int:
    """Distinct merge-tree shapes over every enumerated labeling.

    Read off final_states: once every simplex is placed one component is
    left, and its L id is the shape of the merge tree of every labeling
    that reaches the state.
    """
    final, _, _ = final_states(tree, budget=budget)
    return len({shapes[0][0] for _, _, shapes, *_ in final})


def _earliest_labeling(tree: SimplicialTree, simplices: list[Simplex], entry: list) -> MorseFunction:
    """The first labeling in enumeration order that reaches a final_states entry."""
    order = []
    while entry[1] is not None:
        order.append(entry[2])
        entry = entry[1]
    return MorseFunction(tree, {simplices[s]: label for label, s in enumerate(reversed(order))})


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

    def record(self, ok: bool, f: MorseFunction, count: int = 1) -> None:
        """Tally count labelings with one verdict; f witnesses a failure."""
        self.checked += count
        if not ok:
            self.failed += count
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

    The checks are read once per final state of final_states and tallied
    with the number of labelings that reach it, which all share the state's
    verdicts. All N labels are distinct, so all N simplices are critical.

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

    A check's witnesses are at most WITNESS_CAP labelings, one per final
    state that fails it: the earliest labeling in enumeration order that
    reaches the state, taken for the states in the order of those
    labelings. So witnesses come in enumeration order, and two labelings
    that end in the same state give one witness.
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

    final, simplices, table = final_states(tree, budget=budget)
    n = len(simplices)
    nu = tree.matching_number()
    vertex_bits = (1 << len(tree.vertices)) - 1
    total = passed = 0
    impasse_counts = set()
    for (placed, _, shapes, _, k, overlaps), entry in final.items():
        count = entry[0]
        total += count
        impasse_counts.add(k)
        nodes = table.node_count(shapes[0][0])
        vertices = (placed & vertex_bits).bit_count()
        verdicts = (
            len(shapes) == 1,
            nodes == n,
            nodes == 1 or k >= 1,
            k <= nu,
            overlaps == 0,
            vertices == (n - vertices) + 1,
        )
        if all(verdicts):
            passed += count
            continue
        f = _earliest_labeling(tree, simplices, entry)
        for check, ok in zip(checks, verdicts):
            check.record(ok, f, count)
    # states that passed everything are tallied once, not per check
    for check in checks:
        check.checked += passed

    return InvariantReport(total, checks, min(impasse_counts), max(impasse_counts), nu)
