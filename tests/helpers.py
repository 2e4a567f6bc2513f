"""Shared test material: worked examples, brute-force oracles, tree generators,
the small-tree corpus and a counter of cached readings."""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
import math
import random
from collections import Counter, defaultdict, namedtuple

from treemorse import (
    MorseFunction,
    SimplicialTree,
    build_tree,
    enumerate_critical_dmfs,
    is_edge,
    validate,
)
from treemorse.complexes import _cached


# ---------------------------------------------------------------- examples

def deep_function() -> MorseFunction:
    """Six vertices, five edges, everything critical; three impasses."""
    tree = build_tree(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("a", "d"), ("c", "d"), ("d", "e"), ("e", "f")],
    )
    return validate(
        tree,
        {
            "a": 0, "b": 4, "c": 7, "d": 6, "e": 1, "f": 2,
            ("a", "b"): 5, ("a", "d"): 9, ("c", "d"): 8,
            ("d", "e"): 10, ("e", "f"): 3,
        },
    )


def narrow_function() -> MorseFunction:
    """Four-vertex path w-z-x-y; one impasse against matching number two."""
    tree = build_tree(["w", "x", "y", "z"], [("w", "z"), ("x", "z"), ("x", "y")])
    return validate(
        tree,
        {"w": 0, "x": 1, "y": 2, "z": 3,
         ("w", "z"): 5, ("x", "z"): 4, ("x", "y"): 6},
    )


def path3_tree() -> SimplicialTree:
    return build_tree(["a", "b", "c"], [("a", "b"), ("b", "c")])


def left_path_function() -> MorseFunction:
    """Path function whose merge tree leans left: shape ((**)*)."""
    return validate(
        path3_tree(),
        {"a": 0, "b": 1, "c": 2, ("a", "b"): 3, ("b", "c"): 4},
    )


def right_path_function() -> MorseFunction:
    """Same tree and vertex values, edge values swapped; leans right."""
    return validate(
        path3_tree(),
        {"a": 0, "b": 1, "c": 2, ("a", "b"): 4, ("b", "c"): 3},
    )


def gapped_path_function() -> MorseFunction:
    """Vertex values 0,1,3 with edges 2,4; merges back and forth."""
    return validate(
        path3_tree(),
        {"a": 0, "b": 1, "c": 3, ("a", "b"): 2, ("b", "c"): 4},
    )


def star_function() -> MorseFunction:
    """Three-vertex star matching right_path_function's persistence diagram."""
    tree = build_tree(["a", "b", "c"], [("a", "b"), ("a", "c")])
    return validate(
        tree,
        {"a": 0, "b": 1, "c": 2, ("a", "b"): 4, ("a", "c"): 3},
    )


# ---------------------------------------------------------- brute oracles

def brute_matching_number(tree: SimplicialTree) -> int:
    """Maximum disjoint edge set by subset enumeration; fine below ~10 edges."""
    edges = sorted(tree.edges)
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(edges, size):
            endpoints = [w for e in combo for w in e]
            if len(set(endpoints)) == len(endpoints):
                best = size
                break
    return best


def brute_extensions(tree: SimplicialTree) -> list[dict]:
    """Face-respecting orders, found by filtering all permutations.

    Each order is a dict from simplex to position, simplices in position
    order, listed as itertools.permutations yields them from
    tree.simplices(): lexicographically by simplex index. Their count is
    the list's length.
    """
    extensions = []
    for order in itertools.permutations(tree.simplices()):
        position = {s: i for i, s in enumerate(order)}
        if all(
            position[e] > position[e[0]] and position[e] > position[e[1]]
            for e in tree.edges
        ):
            extensions.append(position)
    return extensions


def extension_count(tree: SimplicialTree) -> int:
    """Count face-respecting orders by a DP over down-sets of the face poset.

    ways[mask] is the number of orders of the simplices in mask, a down-set,
    that respect the face order; a simplex may follow once its faces are in.
    """
    simplices = list(tree.simplices())
    bit = {s: 1 << i for i, s in enumerate(simplices)}
    faces = [bit[s[0]] | bit[s[1]] if is_edge(s) else 0 for s in simplices]
    ways = {0: 1}
    for _ in simplices:
        grown: dict[int, int] = defaultdict(int)
        for mask, count in ways.items():
            for i, below in enumerate(faces):
                if not mask >> i & 1 and below & mask == below:
                    grown[mask | 1 << i] += count
        ways = grown
    return ways[(1 << len(simplices)) - 1]


def strict_sublevel_component(f: MorseFunction, value: float, start: str) -> set:
    """Simplices valued below `value` that connect to vertex `start`.

    A plain search over the tree's edge list, recomputed on every call.
    """
    component = {start}
    frontier = [start]
    while frontier:
        vertex = frontier.pop()
        for e in f.domain.edges:
            if vertex in e and e not in component and f(e) < value:
                component.add(e)
                for w in e:
                    if w not in component:
                        component.add(w)
                        frontier.append(w)
    return component


def literal_critical(f: MorseFunction) -> dict:
    """Critical simplex by value: each value taken by exactly one simplex.

    Counted straight from the assignment, without the library's check.
    """
    counts = Counter(f.values.values())
    return {value: s for s, value in f.values.items() if counts[value] == 1}


def local_minimum_impasses(f: MorseFunction) -> int:
    """Impasses as the local minima of the edge order on T/M.

    Contract every gradient pair's edge, found from the values alone; an
    impasse is then a critical edge valued below every other critical edge
    at either of its contracted ends.
    """
    critical, value = literal_critical(f), f.values
    end = {v: frozenset([v]) for v in f.domain.vertices}  # each vertex's contracted end
    for e in f.domain.edges:
        if value[e] not in critical:  # a paired edge: its value is shared
            merged = end[e[0]] | end[e[1]]
            for v in merged:
                end[v] = merged
    edges = [e for e in f.domain.edges if value[e] in critical]
    lowest: dict = {}  # each contracted end's least critical edge value
    for e in edges:
        for v in e:
            lowest[end[v]] = min(lowest.get(end[v], value[e]), value[e])
    return sum(1 for e in edges if all(lowest[end[v]] == value[e] for v in e))


# a merge-tree node of the oracles: a leaf has no children, a join two
Node = namedtuple("Node", ["value", "left", "right"], defaults=(None, None))


def reference_merge_tree(f: MorseFunction) -> Node:
    """Literal reconstruction: strict sublevel forest recomputed per edge.

    Independent of the production sweep; shares only the direction rule,
    which the worked examples pin down exactly. It carries each node's tag
    down its own recursion and stores the L-tagged child on the left. The
    root Node it returns is compared with a MergeTree through
    reference_shape_code and reference_values.
    """
    critical = literal_critical(f)
    critical_values = sorted(critical)
    edge_values = [v for v in critical_values if is_edge(critical[v])]
    if not edge_values:
        return Node(critical_values[0])

    def component_data(value: float, endpoint: str) -> tuple[float, float]:
        component = strict_sublevel_component(f, value, endpoint)
        return (
            max(f(s) for s in component if f(s) in critical),
            min(f(s) for s in component),
        )

    def build(value: float, direction: str) -> Node:
        simplex = critical[value]
        if not is_edge(simplex):
            return Node(value)
        u, v = simplex
        label_u, min_u = component_data(value, u)
        label_v, min_v = component_data(value, v)
        if min_u < min_v:
            inherits, other = label_u, label_v
        else:
            inherits, other = label_v, label_u
        flipped = "R" if direction == "L" else "L"
        first = build(inherits, direction)
        second = build(other, flipped)
        if direction == "L":
            return Node(value, first, second)
        return Node(value, second, first)

    return build(edge_values[-1], "L")


def reference_persistence_diagram(f: MorseFunction) -> tuple:
    """Literal elder rule: for each critical edge, the younger of the two
    strict sublevel components it joins dies there.

    Each component is found by its own search; its birth is its minimum.
    The whole tree's minimum never dies.
    """
    pairs = [(min(f(v) for v in f.domain.vertices), math.inf)]
    for value, simplex in literal_critical(f).items():
        if is_edge(simplex):
            births = [
                min(f(s) for s in strict_sublevel_component(f, value, endpoint))
                for endpoint in simplex
            ]
            pairs.append((max(births), value))
    return tuple(sorted(pairs))


def reference_b0_sequence(f: MorseFunction) -> tuple:
    """Components of the closed sublevel set at each literal critical value.

    Each count is its own search over the simplices valued at or below the
    threshold, recomputed per value.
    """
    counts = []
    for threshold in sorted(literal_critical(f)):
        edges = [e for e in f.domain.edges if f(e) <= threshold]
        seen: set = set()
        components = 0
        for start in f.domain.vertices:
            if start in seen or f(start) > threshold:
                continue
            components += 1
            seen.add(start)
            frontier = [start]
            while frontier:
                vertex = frontier.pop()
                for e in edges:
                    if vertex in e:
                        for w in e:
                            if w not in seen:
                                seen.add(w)
                                frontier.append(w)
        counts.append(components)
    return tuple(counts)


def reference_shape_code(root: Node) -> str:
    """A node walk: "•" for a leaf, "(LR)" for a join."""
    out = []
    stack: list = [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif item.left is None:
            out.append("•")
        else:
            out.append("(")
            stack.extend((")", item.right, item.left))
    return "".join(out)


def reference_values(root: Node) -> tuple:
    """A node walk: the node values in preorder, node, left subtree, right subtree."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node.value)
        if node.left is not None:
            stack.extend((node.right, node.left))
    return tuple(out)


def reference_text(root: Node) -> str:
    """A node walk: a "value tag" line per node in
    preorder, two spaces per level, "?" for no value, an integer-valued
    float without its ".0"."""
    lines: list[str] = []
    stack = [(root, 0, "L")]
    while stack:
        node, depth, tag = stack.pop()
        value = node.value
        if value is None:
            label = "?"
        else:
            label = str(int(value)) if isinstance(value, float) and value.is_integer() else str(value)
        lines.append("  " * depth + f"{label} {tag}")
        if node.left is not None:
            stack.append((node.right, depth + 1, "R"))
            stack.append((node.left, depth + 1, "L"))
    return "\n".join(lines)


def reference_dot(root: Node) -> str:
    """A node walk: Graphviz, nodes numbered in
    preorder, the edge into a node after every edge of its subtree."""
    node_lines: list[str] = []
    edge_lines: list[str] = []
    stack: list = [(root, None, "L")]
    while stack:
        item = stack.pop()
        if type(item) is str:
            edge_lines.append(item)
            continue
        node, parent, tag = item
        name = f"n{len(node_lines)}"
        value = node.value
        if value is None:
            label = ""
        else:
            label = str(int(value)) if isinstance(value, float) and value.is_integer() else str(value)
        node_lines.append(f'  {name} [label="{label}"];')
        if parent is not None:
            stack.append(f'  {parent} -> {name} [label="{tag}"];')
        if node.left is not None:
            stack.append((node.right, name, "R"))
            stack.append((node.left, name, "L"))
    return "\n".join(["digraph merge_tree {", "  node [shape=circle];", *node_lines, *edge_lines, "}"])


# ------------------------------------------------------- tree generation

def prufer_edges(seq: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges of the labeled tree on len(seq)+2 vertices with this sequence."""
    n = len(seq) + 2
    degree = [1] * n
    for i in seq:
        degree[i] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for i in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, i))
        degree[i] -= 1
        if degree[i] == 1:
            heapq.heappush(leaves, i)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _canonical_form(n: int, edges: list[tuple[int, int]]) -> str:
    if n == 1:
        return "()"
    adjacency = defaultdict(list)
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    degree = {v: len(adjacency[v]) for v in range(n)}
    remaining = n
    layer = [v for v in range(n) if degree[v] <= 1]
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adjacency[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
            degree[v] = 0
        layer = nxt

    def code(v: int, parent: int | None) -> str:
        subs = sorted(code(w, v) for w in adjacency[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return min(code(c, None) for c in layer)


# the number of trees on n vertices up to isomorphism, n = 0..12 (OEIS A000055)
TREE_COUNTS = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


@functools.cache
def trees_up_to_iso(n: int) -> list[list[tuple[str, str]]]:
    """One labeled edge list per isomorphism class of trees on n vertices.

    Each class is represented by its first tree in Prüfer-sequence order.
    The walk stops once it holds every class, which changes no
    representative; past the table it walks all n^(n-2) sequences.
    """
    return prufer_classes(n, TREE_COUNTS[n] if n < len(TREE_COUNTS) else None)


def prufer_classes(n: int, stop: int | None) -> list[list[tuple[str, str]]]:
    """The first tree of each isomorphism class in Prüfer-sequence order,
    walking until `stop` classes are found, or over every sequence for None."""
    if n == 1:
        return [[]]
    if n == 2:
        return [[("v0", "v1")]]
    out: dict[str, list[tuple[str, str]]] = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = prufer_edges(seq)
        key = _canonical_form(n, edges)
        if key not in out:
            out[key] = [(f"v{u}", f"v{v}") for u, v in edges]
            if len(out) == stop:
                break
    return list(out.values())


def tree_from_edges(n: int, edges: list[tuple[str, str]]) -> SimplicialTree:
    return build_tree([f"v{i}" for i in range(n)], edges)


# ------------------------------------------------ random Morse functions

def critical_function_from_choices(tree: SimplicialTree, choose) -> MorseFunction:
    """Build one injective labeling, `choose(k)` picking among k candidates."""
    placed: dict = {}
    free_vertices = set(tree.vertices)
    while len(placed) < tree.simplex_count:
        ready = [
            e for e in tree.edges
            if e not in placed and e[0] in placed and e[1] in placed
        ]
        candidates = sorted(free_vertices) + sorted(ready)
        pick = candidates[choose(len(candidates))]
        placed[pick] = len(placed)
        if not is_edge(pick):
            free_vertices.remove(pick)
    return MorseFunction(tree, placed)


def collapse_pairs(f: MorseFunction, choose) -> MorseFunction:
    """Turn an injective labeling into one with gradient pairs.

    Any incident vertex-edge pair at consecutive ranks may share the lower
    value; disjoint such pairs stay legal. `choose(k)` picks how aggressively
    to collapse (an index into the candidate list, or k for "stop").
    """
    values = dict(f.values)
    used: set = set()
    while True:
        candidates = sorted(
            (
                (v, e)
                for e in f.domain.edges
                for v in e
                if values[e] == values[v] + 1
                and v not in used
                and e not in used
            ),
            key=lambda pair: values[pair[0]],
        )
        if not candidates:
            break
        index = choose(len(candidates) + 1)
        if index >= len(candidates):
            break
        v, e = candidates[index]
        values[e] = values[v]
        used.update((v, e))
    return validate(f.domain, values)


# ------------------------------------------------------ the small corpus

@functools.cache
def small_corpus() -> tuple:
    """Every injective labeling of the trees with 1 to 5 vertices, built once.

    One (n, edges, tree, functions) per tree in trees_up_to_iso order, with
    each function as enumerate_critical_dmfs yields it, as (f, its
    collapse_pairs twin drawn from one Random(7), the root Node of
    reference_merge_tree(f)).
    The corpus is shared: a sweep one equivalence test caches on a function
    is the one the other reads. No test may mutate an entry. It lives all
    session, so gc.freeze spares every later full collection its objects.
    """
    rng = random.Random(7)
    corpus = []
    for n in range(1, 6):
        for edges in trees_up_to_iso(n):
            tree = tree_from_edges(n, edges)
            functions = [(f, collapse_pairs(f, rng.randrange), reference_merge_tree(f))
                         for f in enumerate_critical_dmfs(tree)]
            corpus.append((n, edges, tree, tuple(functions)))
    gc.freeze()
    return tuple(corpus)


# -------------------------------------------------------- cached readings

def count_readings(monkeypatch) -> Counter:
    """Counts, by name, each time a cached reading of a SimplicialTree or a
    MorseFunction is computed rather than found."""
    counts = Counter()
    for cls in (SimplicialTree, MorseFunction):
        for name, reading in list(vars(cls).items()):
            if isinstance(reading, _cached):
                def counted(self, compute=reading.func, name=name):
                    counts[name] += 1
                    return compute(self)

                counted.__name__ = name
                monkeypatch.setattr(cls, name, _cached(counted))
    return counts
