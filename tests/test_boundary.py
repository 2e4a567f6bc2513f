"""Every input on README's list ends in an answer or a TreemorseError.

The table below is README's list of the inputs that promise covers, one
row per item, and each call in a row is fed every junk value in turn.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from treemorse import (
    MergeTree,
    MorseFunction,
    SimplicialTree,
    build_tree,
    check_invariants,
    count_merge_classes,
    count_realizable_on_star,
    enumerate_critical_dmfs,
    enumerate_thin,
    parse_morse_document,
    parse_shape_code,
    parse_tree_document,
    star_graph,
    thin_from_lr,
    validate,
)
from treemorse.cli import main
from treemorse.errors import TreemorseError

README = Path(__file__).resolve().parent.parent / "README.md"

JUNK = [None, 7, True, "x", [1, 2], [{"a": [None, {"b": ()}]}, ("c", 1.5)]]
POINT = build_tree(["a"], [])
EDGE = build_tree(["a", "b"], [("a", "b")])


def cli(junk):
    """Every command with the junk as its document, and as each other argument, as a shell passes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "junk.json"
        path.write_text(json.dumps(junk))
        doc, text = str(path), str(junk)
        for argv in (
            ["validate", doc], ["invariants", doc], ["merge-tree", doc, "--format", text],
            ["compare", doc, text, "--relation", "merge"], ["enumerate", doc, "--check", "--budget", text],
            ["enumerate", text, "--count-classes"], ["star-realize", text],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as refused:  # argparse refuses the arguments
                    code = refused.code
            assert code in (0, 1, 2), argv


# README's items, each as the text before its first " (", and the calls that take the input
TABLE = {
    "document text and CLI arguments": [parse_tree_document, parse_morse_document, cli],
    "`build_tree`'s and `SimplicialTree`'s vertices and edges": [
        lambda x: build_tree(x, []),
        lambda x: build_tree(["a", "b"], x),
        lambda x: SimplicialTree(x, [("a", "b")]),
        lambda x: SimplicialTree(["a"], x),
    ],
    "`MorseFunction`'s values, which `validate`, its other name, takes too": [
        lambda x: MorseFunction(POINT, x),
        lambda x: validate(EDGE, x),
    ],
    "`MergeTree(code, values)` and `parse_shape_code`": [
        lambda x: MergeTree(x, (None,)),
        lambda x: MergeTree("•", x),
        parse_shape_code,
    ],
    "LR sequences, sizes and budgets": [
        thin_from_lr, star_graph, enumerate_thin, count_realizable_on_star,
        lambda x: check_invariants(EDGE, budget=x),
        lambda x: count_merge_classes(EDGE, budget=x),
        lambda x: list(enumerate_critical_dmfs(EDGE, budget=x)),
    ],
}


def readme_inputs():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"inputs that promise\s+covers:\n\n(.*?)\n\n", text, re.S).group(1)
    items = [" ".join(item.split()) for item in re.split(r"^- ", listed, flags=re.M) if item.strip()]
    return [item.split(" (", 1)[0].rstrip(";.") for item in items]


def test_the_table_is_readmes_list():
    assert readme_inputs() == list(TABLE)


@pytest.mark.parametrize("item", TABLE)
@pytest.mark.parametrize("junk", JUNK, ids=repr)
def test_each_input_ends_in_an_answer_or_a_typed_error(item, junk):
    for call in TABLE[item]:
        try:
            call(junk)
        except TreemorseError:
            pass
