"""Expected answers computed without treemorse.

Everything here is written from the definitions, apart from the program,
and uses the standard library only:

- one sorted sublevel sweep over a function gives its merge tree (with the
  direction rule), its b0 sequence (#vertices - #edges valued at or below
  each critical value), its elder-rule persistence pairs and its gradient
  pairs;
- the number of labelings of a tree is counted by dynamic programming over
  the sets of simplices already placed;
- the matching number of a small tree is found by trying edge subsets.

The one expected value that needs a stored copy, the number of merge-tree
classes on the non-star six-vertex trees, is recomputed from scratch by

    python3 bench/checks.py --recount-classes

which enumerates every labeling itself and collects the shape codes.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from inputs import SIX_VERTEX_TREES, canonical, vertex_names

LEAF = "•"

# merge classes of the non-star six-vertex trees; the star's is 2^(k-1)
CLASS_COUNTS = {"broom4": 36, "double_star": 32, "spider113": 40, "spider122": 38, "path6": 42}


def format_value(x) -> str:
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return str(x)


@dataclass(frozen=True)
class Analysis:
    """What one function determines. A merge node is (value,) for a leaf or
    (value, heir, other) for a join, the heir being the child whose
    component holds the smaller minimum."""

    root: tuple
    b0: tuple[int, ...]
    diagram: tuple[tuple[float, float], ...]
    gradient: frozenset
    critical_vertices: int
    critical_edge_values: tuple
    global_min: float


def analyse(vertices: dict, edges: list) -> Analysis:
    """vertices: name -> value; edges: (u, v, value) triples."""
    entries = [(x, 0, v) for v, x in vertices.items()]
    entries += [(x, 1, (u, v)) for u, v, x in edges]
    entries.sort(key=itemgetter(0, 1))
    taken = Counter(x for x, _, _ in entries)
    parent: dict = {}
    low: dict = {}
    node: dict = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    n_vertices = n_edges = critical_vertices = 0
    b0, deaths, gradient, edge_values = [], [], set(), []
    for x, dim, s in entries:
        critical = taken[x] == 1
        if not dim:
            parent[s] = s
            low[s] = x
            node[s] = (x,) if critical else None
            n_vertices += 1
            critical_vertices += critical
        else:
            u, v = s
            keep, gone = find(u), find(v)
            n_edges += 1
            if critical:
                heir, other = (keep, gone) if low[keep] < low[gone] else (gone, keep)
                joined = (x, node[heir], node[other])
                deaths.append((low[other], x))
                edge_values.append(x)
            else:
                joined = node[keep] if node[gone] is None else node[gone]
                gradient.add((u if vertices[u] == x else v, s))
            parent[gone] = keep
            low[keep] = min(low[keep], low[gone])
            node[keep] = joined
        if critical:
            b0.append(n_vertices - n_edges)
    global_min = min(vertices.values())
    deaths.append((global_min, math.inf))
    root = node[find(next(iter(vertices)))]
    return Analysis(
        root, tuple(b0), tuple(sorted(deaths)), frozenset(gradient),
        critical_vertices, tuple(edge_values), global_min,
    )


def _children(node: tuple, direction: str) -> tuple[tuple, tuple]:
    """((left, "L"), (right, "R")): the heir keeps the parent's tag."""
    _, heir, other = node
    return ((heir, "L"), (other, "R")) if direction == "L" else ((other, "L"), (heir, "R"))


def preorder(root: tuple) -> list[tuple[float, str, int]]:
    """(value, direction, depth) per node, left subtree before right."""
    out = []
    stack = [(root, "L", 0)]
    while stack:
        node, direction, depth = stack.pop()
        out.append((node[0], direction, depth))
        if len(node) == 3:
            (left, _), (right, _) = _children(node, direction)
            stack.append((right, "R", depth + 1))
            stack.append((left, "L", depth + 1))
    return out


def shape_code(root: tuple) -> str:
    out = []
    stack: list = [(root, "L")]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif len(item[0]) == 1:
            out.append(LEAF)
        else:
            left, right = _children(*item)
            out.append("(")
            stack.extend((")", right, left))
    return "".join(out)


def text_rendering(root: tuple) -> str:
    return "\n".join(
        "  " * depth + f"{format_value(value)} {direction}"
        for value, direction, depth in preorder(root)
    )


_DOT_NODE = re.compile(r'  (n\d+) \[label="([^"]*)"\];')
_DOT_EDGE = re.compile(r'  (n\d+) -> (n\d+) \[label="([LR])"\];')


def dot_matches(dot: str, root: tuple) -> bool:
    """Rebuild the tree from Graphviz text and compare labels and tags."""
    lines = dot.split("\n")
    if lines[:2] != ["digraph merge_tree {", "  node [shape=circle];"] or lines[-1] != "}":
        return False
    labels, kids, children = {}, {}, set()
    for line in lines[2:-1]:
        if m := _DOT_NODE.fullmatch(line):
            labels[m[1]] = m[2]
        elif m := _DOT_EDGE.fullmatch(line):
            kids.setdefault(m[1], []).append((m[2], m[3]))
            children.add(m[2])
        else:
            return False
    tops = [n for n in labels if n not in children]
    if len(tops) != 1:
        return False
    seen = []
    stack = [(tops[0], "L")]
    while stack:
        name, direction = stack.pop()
        seen.append((labels.get(name), direction))
        pair = kids.get(name, [])
        if pair and [d for _, d in pair] != ["L", "R"]:
            return False
        stack.extend(reversed(pair))
    return seen == [(format_value(v), d) for v, d, _ in preorder(root)]


def lr_string(root: tuple) -> str | None:
    """The root-to-impasse itinerary of a thin tree, None otherwise."""
    if shape_code(root).count(f"({LEAF}{LEAF})") != 1:
        return None
    steps = []
    node, direction = root, "L"
    while True:
        (left, _), (right, _) = _children(node, direction)
        if len(left) == 1 and len(right) == 1:
            return "".join(steps)
        if len(left) == 3:
            node, direction = left, "L"
        else:
            node, direction = right, "R"
        steps.append(direction)


def thin_shape(seq: str) -> str:
    """Shape code of the thin tree with this LR itinerary."""
    code = f"({LEAF}{LEAF})"
    for step in reversed(seq):
        code = f"({code}{LEAF})" if step == "L" else f"({LEAF}{code})"
    return code


def linear_extensions(vertices: list[str], edges: list[tuple[str, str]]) -> int:
    """Labelings with every edge after both its vertices, by DP over subsets."""
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    need = [0] * len(vertices) + [bit[u] | bit[v] for u, v in edges]
    n = len(need)
    ways = [0] * (1 << n)
    ways[0] = 1
    for placed in range(1 << n):
        w = ways[placed]
        if w:
            for i, req in enumerate(need):
                if not placed >> i & 1 and req & placed == req:
                    ways[placed | 1 << i] += w
    return ways[-1]


def matching_number(edges: list[tuple[str, str]]) -> int:
    """Largest set of vertex-disjoint edges, by trying subsets."""
    for size in range(len(edges), 0, -1):
        for combo in itertools.combinations(edges, size):
            ends = [w for e in combo for w in e]
            if len(set(ends)) == len(ends):
                return size
    return 0


def labelings(vertices: list[str], edges: list[tuple[str, str]]):
    """Every labeling as a value dict, by plain backtracking."""
    simplices = [*vertices, *edges]
    value: dict = {}

    def extend(label: int):
        if label == len(simplices):
            yield value
            return
        for s in simplices:
            if s not in value and (type(s) is str or (s[0] in value and s[1] in value)):
                value[s] = label
                yield from extend(label + 1)
                del value[s]

    return extend(0)


def recount_classes() -> int:
    status = 0
    for name, pairs in SIX_VERTEX_TREES.items():
        vertices = vertex_names(pairs)
        edges = [canonical(u, v) for u, v in pairs]
        shapes = set()
        count = 0
        for value in labelings(vertices, edges):
            count += 1
            f = analyse({v: value[v] for v in vertices}, [(u, v, value[(u, v)]) for u, v in edges])
            shapes.add(shape_code(f.root))
        expected = CLASS_COUNTS.get(name, 2 ** (len(edges) - 1))
        verdict = "ok" if len(shapes) == expected else "MISMATCH"
        print(f"{name}: {count} labelings, {len(shapes)} classes, stored {expected}: {verdict}")
        status |= verdict != "ok"
    return status


if __name__ == "__main__":
    if sys.argv[1:] != ["--recount-classes"]:
        sys.exit("usage: python3 bench/checks.py --recount-classes")
    sys.exit(recount_classes())
