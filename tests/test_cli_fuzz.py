"""Random documents through every document-reading CLI command.

Whatever the document holds, each command must end with exit code 0, 1 or
2 and a one-line message, never an uncaught exception.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from treemorse.cli import main

NAMES = ["a", "b", "c", "d", "e", "f", "g", "h"]

odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -0.0, 10**40, 10**400]),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(0, 3), max_size=1),
)
numbers = st.one_of(st.integers(-2, 12), st.sampled_from([0.5, 2.5, 3.0]))
values = st.one_of(numbers, numbers, odd_values)


@st.composite
def documents(draw):
    """A document near a Morse function on a tree, then possibly broken.

    Vertex values are distinct and each edge sits 0 to 3 above its larger
    endpoint, so ties (gradient pairs and illegal shares) are common; then
    values, edges or the top level may be replaced by something wrong.
    """
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=8, unique=True))
    ranks = draw(st.permutations(range(len(names))))
    vertices = {name: 2 * rank for name, rank in zip(names, ranks)}
    edges = []
    for i in range(1, len(names)):
        u, v = names[i], names[draw(st.integers(0, i - 1))]
        edges.append([u, v, max(vertices[u], vertices[v]) + draw(st.integers(0, 3))])

    extra = []
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        fault = draw(st.sampled_from(
            ["vertex value", "edge value", "short edge", "drop edge", "extra edge", "odd edge"]
        ))
        index = draw(st.integers(0, len(edges) - 1)) if edges else None
        if fault == "vertex value" and names:
            vertices[draw(st.sampled_from(names))] = draw(values)
        elif fault == "edge value" and edges:
            edges[index][2:] = [draw(values)]
        elif fault == "short edge" and edges:
            del edges[index][2:]
        elif fault == "drop edge" and edges:
            del edges[index]
        elif fault == "extra edge":
            # a loop, a cycle, a repeated edge or an undeclared endpoint
            ends = st.sampled_from(names + ["z"])
            extra.append([draw(ends), draw(ends), draw(values)])
        elif fault == "odd edge":
            extra.append(draw(st.one_of(values, st.lists(values, max_size=4))))

    doc = {"vertices": vertices, "edges": edges + extra}
    top = draw(st.sampled_from(["plain"] * 8 + ["no edges", "extra key", "array", "text"]))
    if top == "no edges":
        del doc["edges"]
    elif top == "extra key":
        doc["faces"] = []
    elif top == "array":
        doc = [doc]
    text = json.dumps(doc)
    if top == "text":
        text = text[: draw(st.integers(0, len(text)))]
    return text


def run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=200, deadline=None)
@given(documents(), documents())
def test_random_documents_end_in_an_exit_code(text_a, text_b):
    with tempfile.TemporaryDirectory() as tmp:
        path_a, path_b = Path(tmp) / "a.json", Path(tmp) / "b.json"
        path_a.write_text(text_a)
        path_b.write_text(text_b)
        a, b = str(path_a), str(path_b)
        run(["validate", a])
        for fmt in ("text", "shape", "dot"):
            run(["merge-tree", a, "--format", fmt])
        run(["invariants", a])
        for relation in ("merge", "forman", "homological", "persistence"):
            run(["compare", a, b, "--relation", relation])
