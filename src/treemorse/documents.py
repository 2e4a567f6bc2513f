"""JSON documents pairing a tree with simplex values.

The format mirrors a labeled drawing: a `vertices` object mapping each name
to its value, and an `edges` array of `[u, v, value]` triples. Commands that
only need the tree accept null in place of any value.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .complexes import SimplicialTree, build_tree
from .errors import ParseError
from .morse import MorseFunction
from .stars import StarGraph


def _load(text: str) -> tuple[dict[str, Any], Sequence, Sequence, Sequence]:
    """The vertex dict and the edge columns: first endpoints, second endpoints, values."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON or too many digits; deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - {"vertices", "edges"}
    if unknown:
        raise ParseError(f"unexpected keys: {sorted(unknown)}")
    vertices = doc.get("vertices")
    edges = doc.get("edges", [])
    if not isinstance(vertices, dict) or not vertices:
        raise ParseError('"vertices" must be a non-empty object')
    # types are checked a column at a time (JSON object keys are always strings);
    # the loops run only to accept a bool or to name the first bad item
    numeric = {int, float, type(None)}
    if not set(map(type, vertices.values())) <= numeric:
        for name, value in vertices.items():
            if value is not None and not isinstance(value, (int, float)):
                raise ParseError(f"vertex {name!r} has non-numeric value {value!r}")
    if not isinstance(edges, list):
        raise ParseError('"edges" must be an array')
    if edges and set(map(type, edges)) <= {list} and set(map(len, edges)) <= {3}:
        us, vs, values = zip(*edges)
        if {*map(type, us), *map(type, vs)} <= {str} and set(map(type, values)) <= numeric:
            return vertices, us, vs, values
    triples = []
    for item in edges:
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise ParseError(f"edge entry {item!r} is not [u, v, value]")
        u, v = item[0], item[1]
        value = item[2] if len(item) == 3 else None
        if not isinstance(u, str) or not isinstance(v, str):
            raise ParseError(f"edge endpoints in {item!r} must be strings")
        if value is not None and not isinstance(value, (int, float)):
            raise ParseError(f"edge {item!r} has non-numeric value")
        triples.append((u, v, value))
    return vertices, *(zip(*triples) if triples else ((), (), ()))


def parse_tree_document(text: str) -> SimplicialTree:
    """Just the tree; values (and missing edge values) are ignored."""
    vertices, us, vs, _ = _load(text)
    return build_tree(vertices, zip(us, vs))


def parse_morse_document(text: str) -> MorseFunction:
    """Tree plus fully valued discrete Morse function."""
    vertices, us, vs, edge_values = _load(text)
    if None in vertices.values():
        name = next(name for name, value in vertices.items() if value is None)
        raise ParseError(f"vertex {name!r} needs a value")
    tree = build_tree(vertices, zip(us, vs))
    if None in edge_values:
        i = edge_values.index(None)
        raise ParseError(f"edge [{us[i]!r}, {vs[i]!r}] needs a value")
    values = dict(vertices)
    # each pair's canonical edge, complexes.edge inlined: the tree refused every loop
    values.update(zip([(u, v) if u < v else (v, u) for u, v in zip(us, vs)], edge_values))
    f = MorseFunction(tree, values)  # validate, without its copy of the values
    f._partition  # the sorted pass raises on the first fault
    return f


def star_document(star: StarGraph, f: MorseFunction) -> str:
    """Serialize a realized star; vertices by value, edges by value."""
    vertices = {
        name: f(name)
        for name in sorted(star.tree.vertices, key=lambda v: f(v))
    }
    edges = [
        [e[0], e[1], f(e)] for e in sorted(star.tree.edges, key=lambda e: f(e))
    ]
    return json.dumps({"vertices": vertices, "edges": edges}, indent=2)
