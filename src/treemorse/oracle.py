"""Exhaustive enumeration of injective discrete Morse functions, the
top-edge recursion that checks them without listing them, and their merge
classes.

An injective function on a tree with N simplices is, up to order-preserving
relabeling, a bijection onto 0..N-1 that respects the face order: every
vertex below each of its edges. Those are exactly the linear extensions of
the face poset. LabelingSweep generates them one by one, depth first over
the candidates that its placement rule offers for each label; their number
grows factorially, so enumerate_critical_dmfs takes a simplex budget.

On two or more vertices the largest label is on an edge, the top edge, so
the merge tree's root joins the merge trees of the two sides of the tree
without it, and each side's merge tree depends only on its own labels'
order. A component's shape code is the MergeTree.shape_code of its merge
tree with the top node tagged L; tagged R, the same tree is its mirror
image, so one code per component serves both places a join can put it.
count_merge_classes recurses on the top edge over the connected vertex
sets it reaches (_splits), smallest first (_fold). check_invariants
weights that fold by the labelings that end in each shape code and set of
impasse vertices (_final_tally), and walks it backwards (_witness) for a
failed check's witnesses. All refuse trees over budget.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterator

from .complexes import Simplex, SimplicialTree, _check_size, _Record
from .errors import BudgetExceededError
from .merge_tree import _IMPASSE_CODE, LEAF_GLYPH
from .morse import MorseFunction

DEFAULT_SIMPLEX_BUDGET = 11

WITNESS_CAP = 5


def _edge_ids(tree: SimplicialTree, budget: int) -> list[tuple[int, int]]:
    """Each edge's endpoint ids as tree.simplices() numbers them, edges sorted, once within budget, a positive int."""
    _check_size(budget, "a simplex budget")
    if tree.simplex_count > budget:
        raise BudgetExceededError(f"{tree.simplex_count} simplices exceed the budget of {budget}")
    index = {v: i for i, v in enumerate(sorted(tree.vertices))}
    return [(index[a], index[b]) for a, b in sorted(tree.edges)]


class LabelingSweep:
    """Every injective labeling of a tree by 0..N-1, one per iteration.

    Each labeling is a dict from simplex to label, simplices in label
    order. Simplex ids follow tree.simplices(), as in _splits. Depth first,
    the placement rule tries as each label the unplaced vertices, then the
    unplaced edges whose endpoints hold labels, each in id order; the
    candidates are memoized per set of placed ids. A tree over budget raises
    BudgetExceededError.
    """

    def __init__(self, tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET):
        edges, n = _edge_ids(tree, budget), len(tree.vertices)
        # (id, its bit, the bits of its faces) per simplex, in id order
        faces = [(v, 1 << v, 0) for v in range(n)]
        faces += [(s, 1 << s, 1 << a | 1 << b) for s, (a, b) in enumerate(edges, n)]

        @cache
        def steps(placed: int) -> list[tuple[int, int]]:  # each candidate's (id, placed after it)
            return [(s, placed | bit) for s, bit, below in faces if not placed & bit and placed & below == below]

        self._simplices, self._steps = list(tree.simplices()), steps

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
                for s, after in reversed(steps(placed)):
                    stack.append((after, order + (s,)))


def enumerate_critical_dmfs(
    tree: SimplicialTree, *, budget: int = DEFAULT_SIMPLEX_BUDGET
) -> Iterator[MorseFunction]:
    """Yield every injective labeling of tree by 0..N-1, all simplices critical.

    Deterministic: LabelingSweep's order, depth first over the candidates
    of its placement rule.
    """
    return (MorseFunction(tree, values) for values in LabelingSweep(tree, budget=budget))


def _mirror(code: str) -> str:
    """The shape code of the same component with its top node tagged R.

    A child keeps its parent's tag exactly when it holds the smaller
    minimum, so retagging the top flips every tag below it and with it
    every pair of children: the code read backwards, parentheses swapped,
    through "|", which no code holds (translate is slower on non-ASCII text).
    """
    return code[::-1].replace("(", "|").replace(")", "(").replace("|", ")")


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


def _splits(tree: SimplicialTree, budget: int) -> dict[int, list[tuple[int, int, int, int]]]:
    """The connected vertex sets the top-edge recursion reaches, with their splits.

    A set is a bitmask of vertex ids, the whole tree first; it holds an
    edge exactly when it meets both sides of the edge's cut. A split (x, y,
    ends, s) cuts it there: the sides, the edge's endpoint bits, then the
    edge's simplex id. Splits come in edge id order.
    """
    edges, n = _edge_ids(tree, budget), len(tree.vertices)
    cuts = []
    for s, e in enumerate(edges, n):
        side = 1 << e[0]  # e[0]'s side, grown at least one edge further per pass
        for a, b in edges * len(edges):
            if (a, b) != e and (side >> a | side >> b) & 1:
                side |= 1 << a | 1 << b
        cuts.append((side, 1 << e[0] | 1 << e[1], s))
    splits: dict[int, list[tuple[int, int, int, int]]] = {}
    todo = [(1 << n) - 1]  # the whole tree first
    for part in todo:  # todo grows while it is walked
        if part not in splits:
            splits[part] = [(part & cut, part & ~cut, ends, s)
                            for cut, ends, s in cuts if part & cut and part & ~cut]
            todo += [side for x, y, _, _ in splits[part] for side in (x, y)]
    return splits


def _fold(splits: dict, leaf, join) -> dict:
    """The top-edge recursion's memo, {set of _splits: join(set, its splits, memo) or leaf}.

    Sets come smallest first, so memo holds both sides of each split; a
    single vertex has no split, so join returns nothing and it takes leaf.
    """
    memo: dict = {}
    for part in sorted(splits, key=int.bit_count):
        memo[part] = join(part, splits[part], memo) or leaf
    return memo


def _merge_shapes(tree: SimplicialTree, budget: int) -> set[str]:
    """count_merge_classes' shapes: _fold's memo of the whole tree, the first set of _splits."""
    splits = _splits(tree, budget)
    # memo[o] is closed under _mirror, so it holds every _mirror(other)
    memo = _fold(splits, {LEAF_GLYPH}, lambda part, sides, memo: {
        f"({heir}{other})" for x, y, _, _ in sides for h, o in ((x, y), (y, x))
        for heir in memo[h] for other in memo[o]})
    return memo[next(iter(splits))]


def _final_tally(tree: SimplicialTree, budget: int) -> tuple[dict, dict[int, dict[tuple[str, int], int]]]:
    """_splits, and per set {(shape code, on_impasse): labelings of its simplices}.

    _merge_shapes' recursion, weighted; the whole tree's tally is the memo
    of the first set of _splits. on_impasse is the bitmask of vertex ids on
    impasse edges. A set's top edge e joins its sides' codes, "(" + heir +
    _mirror(other) + ")", and is an impasse when both are the leaf. The s
    simplices below e interleave the sides' labelings freely, and side H is
    the heir exactly when the first label, always a vertex, is H's: in
    C(s - 1, |H| - 1) ways, |H| counting H's simplices, 2v - 1 on v vertices.
    """
    splits = _splits(tree, budget)
    mirrored: dict[int, list] = {}  # a set's entries, codes mirrored, listed when first an other side

    def join(part: int, sides: list, memo: dict) -> dict[tuple[str, int], int]:
        tally: dict[tuple[str, int], int] = {}
        get = tally.get
        for x, y, ends, _ in sides:
            for h, o in ((x, y), (y, x)):
                weight = comb(2 * part.bit_count() - 3, 2 * h.bit_count() - 2)
                others = mirrored.get(o)
                if others is None:
                    others = mirrored[o] = [(_mirror(b), mb, cb) for (b, mb), cb in memo[o].items()]
                for (a, ma), ca in memo[h].items():
                    wa = weight * ca
                    for b, mb, cb in others:
                        key = (f"({a}{b})", ma | mb | ends if a == b == LEAF_GLYPH else ma | mb)
                        tally[key] = get(key, 0) + wa * cb
        return tally

    return splits, _fold(splits, {(LEAF_GLYPH, 0): 1}, join)


def _witness(splits: dict, memo: dict, part: int, key: tuple[str, int]) -> tuple[int, ...]:
    """Simplex ids in label order: a labeling of part's simplices ending in key.

    _final_tally run backwards: the first split, heir side and pair of side
    entries, in memo order, that join to key. The heir's labeling comes
    first, so it holds the first label, then the other side's, then the top
    edge; each side's code and on_impasse depend only on its own order.
    """
    for x, y, ends, s in splits[part]:
        for h, o in ((x, y), (y, x)):
            for a, ma in memo[h]:
                for b, mb in memo[o]:
                    impasse = ends if a == b == LEAF_GLYPH else 0
                    if ("(" + a + _mirror(b) + ")", ma | mb | impasse) == key:
                        return _witness(splits, memo, h, (a, ma)) + _witness(splits, memo, o, (b, mb)) + (s,)
    return (part.bit_length() - 1,)  # a single vertex, which has no split


class PropertyCheck(_Record):
    """Pass/fail tally for one invariant, with witnessing labelings. Unhashable."""

    _fields = ("name", "checked", "failed", "witnesses")


class InvariantReport(_Record):
    """Result of running the invariant suite over a full enumeration. Unhashable."""

    _fields = ("function_count", "checks", "min_impasse_count", "max_impasse_count", "matching_number")

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

    The checks are read off the whole tree's _final_tally, once per entry,
    weighted by the labelings that end there. All N labels are distinct,
    so all N simplices are critical.

    - full binary: the root shape code has 2j + 1 nodes for its j joins,
      as a single tree whose every join links two subtrees has;
    - node count = critical values: the root shape code has N nodes, one
      glyph per leaf and one pair of parentheses per join;
    - impasse exists (n > 1): a single-node tree, or at least one edge that
      joined two single vertices, a "(••)" in the root shape code;
    - impasse count <= matching number: the count of those edges, the
      "(••)" in the root shape code, is at most the tree's matching number;
    - impasse edges disjoint: no vertex lies on two impasse edges;
    - critical vertices = edges + 1: every simplex is placed, and the
      vertex placements outnumber the edge placements, N minus them, by one.

    "full binary" and "critical vertices = edges + 1" hold by construction
    on the tally; every check counts every labeling as checked. The checks
    and the report are built once, from the tally's counts, at the end.

    A check's witnesses are at most WITNESS_CAP labelings, one per failing
    entry of the tally, (root shape code, on_impasse), in the tally's
    order. Each is a labeling by 0..N-1 that ends in its entry, walked back
    by _witness only while some check the entry fails has room for it, and
    named from its ids in label order: "a=0 b=1 a-b=2".
    """
    splits, memo = _final_tally(tree, budget)  # refuses a tree over budget first
    nu = tree.matching_number()
    n = tree.simplex_count
    vertices = len(tree.vertices)
    whole = next(iter(splits))
    total = sum(memo[whole].values())
    properties = ("full binary", "node count = critical values", "impasse exists (n > 1)",
                  "impasse count <= matching number", "impasse edges disjoint", "critical vertices = edges + 1")
    failed, witnesses = [0] * len(properties), [[] for _ in properties]
    names = [s if type(s) is str else "-".join(s) for s in tree.simplices()]  # by simplex id
    impasse_counts = set()
    for key, count in memo[whole].items():
        root, on_impasse = key
        k = root.count(_IMPASSE_CODE)
        impasse_counts.add(k)
        nodes = len(root) - root.count(")")
        verdicts = (
            nodes == 2 * root.count("(") + 1,
            nodes == n,
            nodes == 1 or k >= 1,
            k <= nu,
            on_impasse.bit_count() == 2 * k,
            vertices == (n - vertices) + 1,
        )
        if all(verdicts):
            continue
        witness = None
        for i, ok in enumerate(verdicts):
            if not ok:
                failed[i] += count
                if len(witnesses[i]) < WITNESS_CAP:
                    if witness is None:
                        order = _witness(splits, memo, whole, key)
                        witness = " ".join(f"{names[s]}={label}" for label, s in enumerate(order))
                    witnesses[i].append(witness)

    checks = [PropertyCheck(name, total, k, w) for name, k, w in zip(properties, failed, witnesses)]
    return InvariantReport(total, checks, min(impasse_counts), max(impasse_counts), nu)
