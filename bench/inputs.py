"""Seeded inputs for the three workloads, built with the standard library only.

Nothing here imports treemorse: the benchmark makes its inputs and its
expected answers without the program it measures. A tree is a pair
(vertex names, edge pairs); a document is the JSON shape the CLI reads.
"""

from __future__ import annotations

import random

# The six trees with six vertices, one per isomorphism class (OEIS A000055
# gives 6). Together they have 2,387,456 labelings.
SIX_VERTEX_TREES = {
    "star5": [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v0", "v4"), ("v0", "v5")],
    "broom4": [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v0", "v4"), ("v4", "v5")],
    "double_star": [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v3", "v4"), ("v3", "v5")],
    "spider113": [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v3", "v4"), ("v4", "v5")],
    "spider122": [("v0", "v1"), ("v0", "v2"), ("v2", "v3"), ("v0", "v4"), ("v4", "v5")],
    "path6": [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5")],
}

# The three trees with five vertices; together 25,600 labelings.
FIVE_VERTEX_TREES = {
    "star4": [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v0", "v4")],
    "fork": [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v3", "v4")],
    "path5": [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v4")],
}

# Smaller trees for the self-test.
FOUR_VERTEX_TREES = {
    "star3": [("v0", "v1"), ("v0", "v2"), ("v0", "v3")],
    "path4": [("v0", "v1"), ("v1", "v2"), ("v2", "v3")],
}

# (kind, vertices, with gradient pairs) for each large document. All have
# the same size, so that the commands, not the documents, set the spread of
# operation times. A random recursive tree of 4,000 vertices already has a
# merge tree about 800 deep, close to the recursion fault of
# induce_merge_tree; at 2,000 the deepest of 600 seeded documents was 551.
LARGE_DOCUMENTS = [
    ("recursive", 2000, False),
    ("recursive", 2000, True),
    ("caterpillar", 2000, False),
    ("caterpillar", 2000, True),
]
TINY_DOCUMENTS = [("recursive", 40, False), ("caterpillar", 60, True)]

# share of vertices offered a gradient pair in documents that have pairs
DOCUMENT_PAIR_SHARE = 0.3
# share of small functions that get gradient pairs, and the chance that
# each of their vertices is offered one
FUNCTION_PAIR_SHARE = 0.4
FUNCTION_VERTEX_SHARE = 0.5


def vertex_names(edges: list[tuple[str, str]]) -> list[str]:
    names = {w for e in edges for w in e}
    return sorted(names, key=lambda v: int(v[1:]))


def canonical(u: str, v: str) -> tuple[str, str]:
    """An edge as the program keys it: the sorted endpoint pair."""
    return (u, v) if u <= v else (v, u)


def random_recursive_tree(n: int, rng: random.Random) -> list[tuple[str, str]]:
    """Vertex i attaches to a uniformly random earlier vertex."""
    return [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]


def caterpillar(n: int, rng: random.Random) -> list[tuple[str, str]]:
    """A path of n // 3 vertices with every other vertex hung on it."""
    spine = n // 3
    edges = [(f"v{i - 1}", f"v{i}") for i in range(1, spine)]
    edges += [(f"v{rng.randrange(spine)}", f"v{i}") for i in range(spine, n)]
    return edges


def add_gradient_pairs(values: dict, incident: dict[str, list], candidates: list[str]) -> None:
    """Raise each candidate vertex to its lowest edge's value, in place.

    A vertex may pair with its lowest edge when no other vertex holds that
    edge already; then the value stays weakly increasing into every edge,
    and each shared value is shared by one incident vertex-edge pair.
    """
    taken = set()
    for v in candidates:
        e = min(incident[v], key=values.__getitem__)
        if e not in taken:
            taken.add(e)
            values[v] = values[e]


def random_document(kind: str, n: int, with_pairs: bool, rng: random.Random) -> dict:
    """A valid document: distinct integer values, optionally gradient pairs."""
    edges = random_recursive_tree(n, rng) if kind == "recursive" else caterpillar(n, rng)
    names = [f"v{i}" for i in range(n)]
    values: dict = dict(zip(names, rng.sample(range(4 * n), n)))
    used = set(values.values())
    incident: dict[str, list] = {v: [] for v in names}
    for u, v in edges:
        x = max(values[u], values[v]) + 1 + rng.randrange(4 * n)
        while x in used:
            x += 1
        used.add(x)
        e = canonical(u, v)
        values[e] = x
        incident[u].append(e)
        incident[v].append(e)
    if with_pairs:
        chosen = [v for v in names if rng.random() < DOCUMENT_PAIR_SHARE]
        rng.shuffle(chosen)
        add_gradient_pairs(values, incident, chosen)
    return {
        "vertices": {v: values[v] for v in names},
        "edges": [[u, v, values[canonical(u, v)]] for u, v in edges],
    }


def rescaled(doc: dict) -> dict:
    """Every value x becomes 3x + 7: the order, and so the pairs, survive."""
    return {
        "vertices": {v: 3 * x + 7 for v, x in doc["vertices"].items()},
        "edges": [[u, v, 3 * x + 7] for u, v, x in doc["edges"]],
    }


def renamed(doc: dict, rng: random.Random) -> dict:
    """The same function with the vertices renamed by a random bijection."""
    old = list(doc["vertices"])
    new = [f"u{i}" for i in range(len(old))]
    rng.shuffle(new)
    name = dict(zip(old, new))
    return {
        "vertices": {name[v]: x for v, x in doc["vertices"].items()},
        "edges": [[name[u], name[v], x] for u, v, x in doc["edges"]],
    }


def simplex_count(doc: dict) -> int:
    return len(doc["vertices"]) + len(doc["edges"])


def workload_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Everything a workload reads, made from the seed alone.

    census is exhaustive over fixed trees, so its inputs do not depend on
    the seed; small_functions takes its gradient pairs from the seed while
    it runs.
    """
    if workload == "census":
        trees = {"star3": FOUR_VERTEX_TREES["star3"], "star4": FIVE_VERTEX_TREES["star4"]}
        return {"trees": trees if tiny else SIX_VERTEX_TREES}
    if workload == "small_functions":
        return {
            "trees": FOUR_VERTEX_TREES if tiny else FIVE_VERTEX_TREES,
            "max_star_edges": 4 if tiny else 10,
            "seed": seed,
        }
    if workload == "large_documents":
        rng = random.Random(seed)
        documents = []
        for kind, n, with_pairs in TINY_DOCUMENTS if tiny else LARGE_DOCUMENTS:
            doc = random_document(kind, n, with_pairs, rng)
            documents.append({
                "name": f"{kind}{n}{'p' if with_pairs else ''}",
                "original": doc,
                "rescaled": rescaled(doc),
                "both": renamed(rescaled(doc), rng),
            })
        return {"documents": documents}
    raise ValueError(f"unknown workload {workload!r}")


def tree_arguments(workload: str, data: dict) -> list[tuple[list[str], list[tuple[str, str]]]]:
    """(vertex names, edge pairs) of every tree a workload builds at set-up."""
    if workload == "large_documents":
        return [
            (list(d["original"]["vertices"]), [(u, v) for u, v, _ in d["original"]["edges"]])
            for d in data["documents"]
        ]
    return [(vertex_names(pairs), pairs) for pairs in data["trees"].values()]
