"""Shared test material: worked examples, brute-force oracles, tree generators."""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import Counter, defaultdict

from treemorse import (
    MergeNode,
    MergeTree,
    MorseFunction,
    SimplicialTree,
    build_tree,
    is_edge,
    validate,
)


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


def brute_extension_count(tree: SimplicialTree) -> int:
    """Count face-respecting orders by filtering all permutations."""
    simplices = list(tree.simplices())
    count = 0
    for order in itertools.permutations(simplices):
        position = {s: i for i, s in enumerate(order)}
        if all(
            position[e] > position[e[0]] and position[e] > position[e[1]]
            for e in tree.edges
        ):
            count += 1
    return count


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

    Counted straight from the assignment, without the library's sorted pass.
    """
    counts = Counter(f.values.values())
    return {value: s for s, value in f.values.items() if counts[value] == 1}


def reference_merge_tree(f: MorseFunction) -> MergeTree:
    """Literal reconstruction: strict sublevel forest recomputed per edge.

    Independent of the production sweep; shares only the direction rule,
    which the worked examples pin down exactly.
    """
    critical = literal_critical(f)
    critical_values = sorted(critical)
    edge_values = [v for v in critical_values if is_edge(critical[v])]
    if not edge_values:
        return MergeTree(MergeNode(critical_values[0], "L"))

    def component_data(value: float, endpoint: str) -> tuple[float, float]:
        component = strict_sublevel_component(f, value, endpoint)
        return (
            max(f(s) for s in component if f(s) in critical),
            min(f(s) for s in component),
        )

    def build(value: float, direction: str) -> MergeNode:
        simplex = critical[value]
        if not is_edge(simplex):
            return MergeNode(value, direction)
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
            return MergeNode(value, direction, first, second)
        return MergeNode(value, direction, second, first)

    return MergeTree(build(edge_values[-1], "L"))


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


def values_preorder(tree: MergeTree) -> list:
    return [node.value for node in tree.nodes()]


def tagged_preorder(tree: MergeTree) -> list:
    return [(node.value, node.direction) for node in tree.nodes()]


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


@functools.cache
def trees_up_to_iso(n: int) -> list[list[tuple[str, str]]]:
    """One labeled edge list per isomorphism class of trees on n vertices."""
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
