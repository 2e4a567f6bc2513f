"""Exhaustive enumeration of injective discrete Morse functions, the state
search that checks them without listing them, and their merge classes.

An injective function on a tree with N simplices is, up to order-preserving
relabeling, a bijection onto 0..N-1 that respects the face order: every
vertex below each of its edges. Those are exactly the linear extensions of
the face poset. LabelingSweep generates them one by one, depth first over
the candidates that one placement rule (_placement) offers for each label;
their number grows factorially, so enumerate_critical_dmfs takes a simplex
budget.

Labels are handed out in increasing order, so a labeling's prefix already
is the sublevel sweep of its first labels. What the rest of a labeling can
still do to its merge tree and impasses depends only on a small state:
which simplices are placed, how the components rank by their minima, each
component's shape code, and which vertices lie on impasse edges so far.
A component's shape code is the MergeTree.shape_code of its merge tree
with the top node tagged L; tagged R, the same tree is its mirror image,
so one code per component serves both places a join can put it.
final_states searches those states layer by layer, each carrying the
number of labelings that reach it, so equal states reached by different
labelings are expanded once; it follows the same placement rule.
count_merge_classes recurses on the top edge, which holds the largest
label; check_invariants weights that recursion by labelings and runs the
search only for a failed check's witnesses. All refuse trees over budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb
from operator import itemgetter
from typing import Callable, Iterator

from .complexes import Simplex, SimplicialTree, is_edge
from .errors import BudgetExceededError
from .merge_tree import LEAF_GLYPH, format_value
from .morse import MorseFunction

DEFAULT_SIMPLEX_BUDGET = 11

WITNESS_CAP = 5


def _placement(tree: SimplicialTree, budget: int) -> tuple[list[Simplex], Callable[[int], list[tuple]]]:
    """The one placement rule both enumerations follow.

    Simplex ids put the vertices first, then the edges, each in sorted
    order. Returns the simplices by id and steps(placed). steps(placed)
    lists the simplices that may take the next label once the ids in the
    bitmask placed hold labels, in the order they are tried: the unplaced
    vertices, then the unplaced edges whose endpoints are both placed, each
    in id order. Each candidate is (id, placed after it, endpoint ids), the
    endpoints -1, -1 for a vertex. The list is memoized per placed mask; the
    memo belongs to the returned function, so it lasts one enumeration or
    search.

    Raises:
        BudgetExceededError: the tree has more than budget simplices.
    """
    if tree.simplex_count > budget:
        raise BudgetExceededError(f"{tree.simplex_count} simplices exceed the budget of {budget}")
    vertices = sorted(tree.vertices)
    index = {v: i for i, v in enumerate(vertices)}
    # (id, its bit, the bits of its faces, its endpoint ids) per simplex, in id order
    faces = [(v, 1 << v, 0, -1, -1) for v in range(len(vertices))]
    faces += [
        (s, 1 << s, 1 << index[a] | 1 << index[b], index[a], index[b])
        for s, (a, b) in enumerate(sorted(tree.edges), len(vertices))
    ]

    @cache
    def steps(placed: int) -> list[tuple[int, int, int, int]]:
        return [(s, placed | bit, a, b) for s, bit, below, a, b in faces
                if not placed & bit and placed & below == below]

    return list(tree.simplices()), steps


class LabelingSweep:
    """Every injective labeling of a tree by 0..N-1, one per iteration.

    Each labeling is a dict from simplex to label, simplices in label
    order. The sweep goes depth first, trying each label's candidates in
    the order of the placement rule (_placement).
    """

    def __init__(self, tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET):
        self._simplices, self._steps = _placement(tree, budget)

    def __iter__(self) -> Iterator[dict[Simplex, int]]:
        simplices, steps = self._simplices, self._steps
        n = len(simplices)
        # prefixes still to extend, as (placed bitmask, ids in label order)
        stack = [(0, ())]
        while stack:
            placed, order = stack.pop()
            if len(order) == n:
                yield {simplices[s]: label for label, s in enumerate(order)}
            else:
                for s, after, _, _ in reversed(steps(placed)):
                    stack.append((after, order + (s,)))


def enumerate_critical_dmfs(
    tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET
) -> Iterator[MorseFunction]:
    """Yield every injective labeling of tree by 0..N-1, all simplices critical.

    Deterministic: LabelingSweep's order, depth first over the candidates
    of the placement rule (_placement).
    """
    return (MorseFunction(tree, values) for values in LabelingSweep(tree, budget=budget))


_MIRROR = str.maketrans("()", ")(")


def _mirror(code: str) -> str:
    """The shape code of the same component with its top node tagged R.

    A child keeps its parent's tag exactly when it holds the smaller
    minimum, so retagging the top flips every tag below it and with it
    every pair of children: the code read backwards, parentheses swapped.
    """
    return code[::-1].translate(_MIRROR)


def final_states(
    tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET
) -> tuple[dict[tuple, list], list[Simplex]]:
    """The enumeration's final states, each with the labelings that reach it.

    A breadth-first search over enumeration states, one label per layer,
    keeping only the current layer's states; earlier layers live on only as
    the parent links of its entries. Simplex ids and the candidates for each
    label are those of _placement. A state is the tuple

    - placed: bitmask of placed simplex ids;
    - ranks: each vertex's component rank among the components' minima,
      -1 while the vertex is unplaced;
    - shapes: each rank's shape code, the MergeTree.shape_code of its
      component's merge tree with the top node tagged L; during the search
      a state holds the tuple's interned id in its place;
    - on_impasse: bitmask of vertex ids on impasse edges.

    Placing a vertex adds a last-ranked leaf component. Placing an edge
    joins its endpoints' components, the lower rank as heir: the heir keeps
    the join's tag and the other takes the opposite one, so the joined code
    is "(" + heir + _mirror(other) + ")". Then the other rank is dropped and
    the ranks above it shift down by one. The edge is an impasse exactly
    when both joined codes are the leaf, so the impasse edges are counted by
    the "(••)" in the codes, pairwise disjoint exactly when on_impasse has
    two bits set per impasse. What the remaining labels can do depends on
    the labels so far only through the state, so labelings that reach an
    equal state are followed once. Within one search the candidates are
    memoized per placed mask (_placement), and per shapes id the id after a
    vertex is placed and, per (heir, other), the join's rank shift, joined
    id and impasse verdict; a state builds one itemgetter over its ranks.
    Nothing is kept between calls, and the final layer holds shape codes.

    Each state maps to [count, parent, simplex id]: the number of labelings
    that reach it, then the entry it first arrived from and the simplex
    placed on that arrival. States are expanded in first-arrival order and
    candidates in placement order, as LabelingSweep tries them, so each
    layer's dict order is the enumeration order of the earliest labeling
    reaching each state, and following parents spells it backwards.

    Returns the final layer and the simplices by id. check_invariants runs
    it only for witnesses; _final_tally tallies the final layer without it.
    """
    simplices, steps = _placement(tree, budget)
    # per shapes id: [shapes, the id after a vertex is placed (None until needed),
    # {(heir, other): (each rank's rank after the join, the last slot keeping an
    # unplaced vertex's -1; the id after the join; whether it is an impasse)}]
    interned: list[list] = []
    ids: dict[tuple[str, ...], int] = {}

    def intern(shapes: tuple[str, ...]) -> int:
        if shapes not in ids:
            ids[shapes] = len(interned)
            interned.append([shapes, None, {}])
        return ids[shapes]

    n = len(tree.vertices)
    layer: dict[tuple, list] = {(0, (-1,) * n, intern(()), 0): [1, None, None]}
    for _ in simplices:
        following: dict[tuple, list] = {}
        for state, entry in layer.items():
            placed, ranks, sid, on_impasse = state
            count = entry[0]
            shapes, grown, joins = record = interned[sid]
            get = None
            for s, after, a, b in steps(placed):
                if a < 0:
                    if grown is None:
                        grown = record[1] = intern(shapes + (LEAF_GLYPH,))
                    grown_ranks = ranks[:s] + (len(shapes),) + ranks[s + 1:]
                    successor = (after, grown_ranks, grown, on_impasse)
                else:
                    heir, other = ranks[a], ranks[b]
                    if other < heir:
                        heir, other = other, heir
                    joined = joins.get((heir, other))
                    if joined is None:
                        joined = joins[heir, other] = (
                            tuple(heir if r == other else r - (r > other) for r in (*range(len(shapes)), -1)),
                            intern(shapes[:heir] + ("(" + shapes[heir] + _mirror(shapes[other]) + ")",)
                                   + shapes[heir + 1:other] + shapes[other + 1:]),
                            shapes[heir] == shapes[other] == LEAF_GLYPH,
                        )
                    remap, joined_id, impasse = joined
                    if get is None:
                        # ranks holds both endpoints, so get returns a tuple
                        get = itemgetter(*ranks)
                    if impasse:
                        successor = (after, get(remap), joined_id, on_impasse | 1 << a | 1 << b)
                    else:
                        successor = (after, get(remap), joined_id, on_impasse)
                reached = following.get(successor)
                if reached is None:
                    following[successor] = [count, entry, s]
                else:
                    reached[0] += count
        layer = following
    return {(placed, ranks, interned[sid][0], on_impasse): entry
            for (placed, ranks, sid, on_impasse), entry in layer.items()}, simplices


def count_merge_classes(tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET) -> int:
    """Distinct merge-tree shapes over every enumerated labeling.

    Visits no labeling. On two or more vertices the largest value is on an
    edge e, so the root is e's join of the two sides of T - e. Each side's
    merge tree depends only on its own values' order, the orders interleave
    freely, and either side can hold the smaller minimum, the heir. So the
    shapes of T are the union over e and both heirs of "(" + heir +
    _mirror(other) + ")", and a vertex has only LEAF_GLYPH. Mirroring a
    join gives the join with the other heir, so shapes are mirror-closed.
    """
    return len(_merge_shapes(tree, budget))


def _splits(tree: SimplicialTree, budget: int) -> dict[int, list[tuple[int, int, int]]]:
    """The connected vertex sets the top-edge recursion reaches, with their splits.

    A set is a bitmask of vertex ids, the whole tree first; it holds an
    edge exactly when it meets both sides of the edge's cut. A split (x, y,
    ends) cuts it there: the sides, then the edge's endpoint bits.
    """
    simplices, _ = _placement(tree, budget)
    edges = [(simplices.index(a), simplices.index(b)) for a, b in tree.edges]
    cuts = []
    for e in edges:  # e[0]'s side, grown at least one edge further per pass
        side = 1 << e[0]
        for a, b in edges * len(edges):
            if (a, b) != e and (side >> a | side >> b) & 1:
                side |= 1 << a | 1 << b
        cuts.append((side, 1 << e[0] | 1 << e[1]))
    splits: dict[int, list[tuple[int, int, int]]] = {}
    todo = [(1 << len(tree.vertices)) - 1]  # the whole tree first
    for part in todo:  # todo grows while it is walked
        if part not in splits:
            splits[part] = [(part & cut, part & ~cut, ends) for cut, ends in cuts if part & cut and part & ~cut]
            todo += [side for x, y, _ in splits[part] for side in (x, y)]
    return splits


def _merge_shapes(tree: SimplicialTree, budget: int) -> set[str]:
    """count_merge_classes' shapes, memoized per set of _splits by increasing size."""
    splits = _splits(tree, budget)
    memo: dict[int, set[str]] = {}
    for part in sorted(splits, key=int.bit_count):
        # memo[o] is closed under _mirror, so it holds every _mirror(other)
        memo[part] = {"(" + heir + other + ")" for x, y, _ in splits[part] for h, o in ((x, y), (y, x))
                      for heir in memo[h] for other in memo[o]} or {LEAF_GLYPH}
    return memo[next(iter(splits))]


def _final_tally(tree: SimplicialTree, budget: int) -> dict[tuple[str, int], int]:
    """final_states' final layer as {(root shape code, on_impasse): labelings}.

    _merge_shapes' recursion, weighted. A set's top edge e joins its sides'
    codes as final_states does, an impasse when both are the leaf. The s
    simplices below e interleave the sides' labelings freely, and side H is
    the heir exactly when the first label, always a vertex, is H's: in
    C(s - 1, |H| - 1) ways, |H| counting H's simplices, 2v - 1 on v vertices.
    """
    splits = _splits(tree, budget)
    memo: dict[int, dict[tuple[str, int], int]] = {}
    for part in sorted(splits, key=int.bit_count):
        tally: dict[tuple[str, int], int] = {}
        for x, y, ends in splits[part]:
            for h, o in ((x, y), (y, x)):
                weight = comb(2 * part.bit_count() - 3, 2 * h.bit_count() - 2)
                others = [(_mirror(b), mb, cb) for (b, mb), cb in memo[o].items()]
                for (a, ma), ca in memo[h].items():
                    for b, mb, cb in others:
                        key = ("(" + a + b + ")", ma | mb | ends if a == b == LEAF_GLYPH else ma | mb)
                        tally[key] = tally.get(key, 0) + weight * ca * cb
        memo[part] = tally or {(LEAF_GLYPH, 0): 1}
    return memo[next(iter(splits))]


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

    The checks are read off _final_tally, every simplex placed and one
    component left, each entry weighted by the labelings ending there; if
    one fails, off final_states' final layer instead, for the witnesses.
    All N labels are distinct, so all N simplices are critical.

    - full binary: exactly one component is left, so every join linked two
      distinct subtrees and the joins built a single tree;
    - node count = critical values: the root shape code has N nodes, one
      glyph per leaf and one pair of parentheses per join;
    - impasse exists (n > 1): a single-node tree, or at least one edge that
      joined two single vertices, a "(••)" in the root shape code;
    - impasse count <= matching number: the count of those edges, the
      "(••)" in the root shape code, is at most the tree's matching number;
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

    nu = tree.matching_number()
    n = tree.simplex_count
    vertex_bits = (1 << len(tree.vertices)) - 1
    impasse_code = f"({LEAF_GLYPH}{LEAF_GLYPH})"
    final = {((1 << n) - 1, None, (root,), on_impasse): [count]
             for (root, on_impasse), count in _final_tally(tree, budget).items()}
    for rerun in (False, True):
        if rerun:
            final, simplices = final_states(tree, budget=budget)
        total = passed = 0
        impasse_counts = set()
        for (placed, _, shapes, on_impasse), entry in final.items():
            count = entry[0]
            total += count
            root = shapes[0]
            k = root.count(impasse_code)
            impasse_counts.add(k)
            nodes = len(root) - root.count(")")
            vertices = (placed & vertex_bits).bit_count()
            verdicts = (
                len(shapes) == 1,
                nodes == n,
                nodes == 1 or k >= 1,
                k <= nu,
                on_impasse.bit_count() == 2 * k,
                vertices == (n - vertices) + 1,
            )
            if all(verdicts):
                passed += count
            elif rerun:
                f = _earliest_labeling(tree, simplices, entry)
                for check, ok in zip(checks, verdicts):
                    check.record(ok, f, count)
        if passed == total:
            break
    # states that passed everything are tallied once, not per check
    for check in checks:
        check.checked += passed

    return InvariantReport(total, checks, min(impasse_counts), max(impasse_counts), nu)
