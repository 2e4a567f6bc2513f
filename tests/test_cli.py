"""End-to-end checks of the command line surface.

Everything runs through main(argv) so exit codes and printed text are
exercised exactly as a shell user sees them; one test shells out to the
interpreter to cover `python -m treemorse`.
"""

import gc
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import treemorse
from treemorse import cli, induce_merge_tree
from treemorse.cli import main
from treemorse.complexes import SimplicialTree
from treemorse.merge_tree import MergeTree


def write_doc(tmp_path, name, vertices, edges):
    path = tmp_path / name
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    return str(path)


def narrow_doc(tmp_path):
    return write_doc(
        tmp_path,
        "narrow.json",
        {"w": 0, "x": 1, "y": 2, "z": 3},
        [["w", "z", 5], ["x", "z", 4], ["x", "y", 6]],
    )


def deep_doc(tmp_path):
    return write_doc(
        tmp_path,
        "deep.json",
        {"a": 0, "b": 4, "c": 7, "d": 6, "e": 1, "f": 2},
        [["a", "b", 5], ["a", "d", 9], ["c", "d", 8], ["d", "e", 10], ["e", "f", 3]],
    )


def left_path_doc(tmp_path):
    return write_doc(
        tmp_path,
        "left.json",
        {"a": 0, "b": 1, "c": 2},
        [["a", "b", 3], ["b", "c", 4]],
    )


def right_path_doc(tmp_path):
    return write_doc(
        tmp_path,
        "right.json",
        {"a": 0, "b": 1, "c": 2},
        [["a", "b", 4], ["b", "c", 3]],
    )


def path3_tree_doc(tmp_path):
    # values left out: enumerate only needs the tree
    return write_doc(
        tmp_path,
        "path3.json",
        {"a": None, "b": None, "c": None},
        [["a", "b"], ["b", "c"]],
    )


# --- validate ---------------------------------------------------------------


def test_validate_accepts_a_correct_document(tmp_path, capsys):
    assert main(["validate", narrow_doc(tmp_path)]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_validate_rejects_a_cycle(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        "cycle.json",
        {"a": 0, "b": 1, "c": 2},
        [["a", "b", 3], ["b", "c", 4], ["c", "a", 5]],
    )
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("CycleDetectedError:")


def test_validate_rejects_a_decreasing_function(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", {"a": 5, "b": 0}, [["a", "b", 1]])
    assert main(["validate", path]) == 1
    assert capsys.readouterr().err.startswith("NotWeaklyIncreasingError:")


def test_validate_reports_the_decreasing_edge_first(tmp_path, capsys):
    # c shares 3 with the edge ab it does not touch, a lower fault by value
    path = write_doc(
        tmp_path, "two_faults.json", {"a": 0, "b": 5, "c": 3}, [["a", "b", 3], ["b", "c", 6]]
    )
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "NotWeaklyIncreasingError: f('b') = 5 exceeds f(('a', 'b')) = 3\n"


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("ParseError:")


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"vertices": {"a": 0}, "edges": [' + "[" * 100_000 + "]" * 100_000 + "]}")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("ParseError: invalid JSON:")


def test_an_integer_past_the_digit_limit_is_a_usage_error(tmp_path, capsys):
    # json.loads refuses an integer literal longer than Python's 4,300-digit
    # limit with a ValueError that is not a JSONDecodeError
    path = tmp_path / "digits.json"
    path.write_text('{"vertices": {"a": 0, "b": 1' + "0" * 5000 + '}, "edges": [["a", "b", 2]]}')
    for argv in (["validate", str(path)], ["merge-tree", str(path)], ["invariants", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ParseError: invalid JSON:")


def test_invariants_print_a_death_too_large_for_a_float(tmp_path, capsys):
    path = write_doc(tmp_path, "huge.json", {"a": 0, "b": 1}, [["a", "b", 10**400]])
    assert main(["invariants", path]) == 0
    assert capsys.readouterr().out.endswith(f"persistence diagram:\n0 inf\n1 {10**400}\n")


@pytest.mark.parametrize("argv", [["validate"], ["enumerate", "--check"]], ids=lambda argv: argv[0])
def test_a_document_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "d.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr() == (
        "",
        "ParseError: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
    )


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), True], ids=repr
)
def test_non_finite_and_boolean_values_are_rejected(tmp_path, capsys, value):
    # JSON's NaN, Infinity and true parse as numbers; validate refuses them
    bad = write_doc(tmp_path, "bad.json", {"a": 0, "b": value}, [["a", "b", 2]])
    assert main(["validate", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NotFiniteRealError:")
    good = left_path_doc(tmp_path)
    for argv in (
        ["merge-tree", bad],
        ["invariants", bad],
        ["compare", good, bad, "--relation", "merge"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("NotFiniteRealError:")


def test_missing_value_is_a_usage_error(tmp_path, capsys):
    # a null where validate needs a number is a document problem, not a
    # semantic verdict, so it exits 2 rather than 1
    path = write_doc(tmp_path, "null.json", {"a": None, "b": 1}, [["a", "b", 2]])
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.startswith("ParseError:")


def _path3(b=1, second=("b", "c", 4)):
    """The path a-b-c (vertices 0, 1, 2; edges 3, 4) with b's value or its second edge item replaced."""
    return {"a": 0, "b": b, "c": 2}, [["a", "b", 3], second]


@pytest.mark.parametrize(
    "argv, vertices, edges, out, err, code",
    [
        pytest.param(["validate"], *_path3(b=True), "",
                     "NotFiniteRealError: f('b') = True is not a finite real number\n", 1, id="bool-vertex"),
        pytest.param(["validate"], *_path3(b="1"), "",
                     "ParseError: vertex 'b' has non-numeric value '1'\n", 2, id="string-vertex"),
        pytest.param(["validate"], *_path3(b=[1]), "",
                     "ParseError: vertex 'b' has non-numeric value [1]\n", 2, id="list-vertex"),
        pytest.param(["validate"], *_path3(b=None), "",
                     "ParseError: vertex 'b' needs a value\n", 2, id="null-vertex"),
        pytest.param(["validate"], *_path3(second=["b", "c"]), "",
                     "ParseError: edge ['b', 'c'] needs a value\n", 2, id="2-item-edge-validate"),
        pytest.param(["enumerate", "--count-classes"], *_path3(second=["b", "c"]), "2\n",
                     "", 0, id="2-item-edge-enumerate"),
        pytest.param(["validate"], *_path3(second=["b", "c", 4, 5]), "",
                     "ParseError: edge entry ['b', 'c', 4, 5] is not [u, v, value]\n", 2, id="4-item-edge"),
        pytest.param(["validate"], *_path3(second=["b", 7, 4]), "",
                     "ParseError: edge endpoints in ['b', 7, 4] must be strings\n", 2, id="non-string-endpoint"),
        pytest.param(["validate"], *_path3(second=["b", "c", "4"]), "",
                     "ParseError: edge ['b', 'c', '4'] has non-numeric value\n", 2, id="non-numeric-edge-value"),
        pytest.param(["validate"], *_path3(second=["b", "c", True]), "",
                     "NotFiniteRealError: f(('b', 'c')) = True is not a finite real number\n", 1,
                     id="bool-edge-value"),
        pytest.param(["validate"], *_path3(second={"u": "b"}), "",
                     "ParseError: edge entry {'u': 'b'} is not [u, v, value]\n", 2, id="non-list-edge-item"),
        pytest.param(["validate"], {"a": 0}, [], "valid\n", "", 0, id="empty-edges"),
        pytest.param(["validate"], {}, [], "", "ParseError: \"vertices\" must be a non-empty object\n", 2,
                     id="empty-vertices"),
        pytest.param(["validate"], [], [], "", "ParseError: \"vertices\" must be a non-empty object\n", 2,
                     id="vertices-array"),
        pytest.param(["validate"], {"a": 0}, {"a": "b"}, "", "ParseError: \"edges\" must be an array\n", 2,
                     id="edges-object"),
        # the tree's faults, which the tree's constructor reports, and the
        # values' faults the sorted pass reports, as parse_morse_document meets them
        pytest.param(["validate"], {"a": 0, "b": 1, "c": 2}, [["a", "b", 3], ["y", "x", 4]], "",
                     "UnknownVertexError: edge endpoint 'y' is not a declared vertex\n", 1,
                     id="two-undeclared-endpoints"),
        pytest.param(["validate"], {"a": 0, "b": 1, "c": 2}, [["a", "b", 3], ["c", "c", 4]], "",
                     "LoopEdgeError: loop edge at vertex 'c'\n", 1, id="loop"),
        pytest.param(["validate"], {"a": 0, "b": 1, "c": 2}, [["b", "c", 4], ["a", "b", 3], ["c", "b", 5]], "",
                     "MultiEdgeError: edge ('b', 'c') appears more than once\n", 1, id="repeated-edge"),
        pytest.param(["validate"], {"a": 0, "b": 1, "c": 2}, [["a", "b", 3], ["b", "c", 4], ["c", "a", 5]], "",
                     "CycleDetectedError: 3 edges on 3 vertices cannot be acyclic\n", 1, id="cycle"),
        pytest.param(["validate"], {"a": 0, "b": 1, "c": 2}, [["a", "b", 3]], "",
                     "NotConnectedError: graph has 2 components\n", 1, id="two-components"),
        pytest.param(["validate"], *_path3(b=math.nan), "",
                     "NotFiniteRealError: f('b') = nan is not a finite real number\n", 1, id="nan-vertex"),
        pytest.param(["validate"], *_path3(second=["b", "c", math.inf]), "",
                     "NotFiniteRealError: f(('b', 'c')) = inf is not a finite real number\n", 1,
                     id="infinite-edge-value"),
        pytest.param(["validate"], *_path3(second=["b", "c", None]), "",
                     "ParseError: edge ['b', 'c'] needs a value\n", 2, id="null-edge-value"),
    ],
)
def test_document_messages_name_the_first_bad_item(tmp_path, capsys, argv, vertices, edges, out, err, code):
    # _load tests types a column at a time and loops over the items only to
    # accept a bool or to name the first bad one; both paths answer alike
    path = write_doc(tmp_path, "doc.json", vertices, edges)
    assert main([argv[0], path, *argv[1:]]) == code
    assert capsys.readouterr() == (out, err)


def test_unknown_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


# argparse wraps usage lines to the terminal's width, which COLUMNS sets
BAD_CHOICES = [
    (["merge-tree", "doc.json", "--format", "bogus"],
     "usage: treemorse merge-tree [-h] [--format {text,shape,dot}] path\n"
     "treemorse merge-tree: error: argument --format: invalid choice: 'bogus' "
     "(choose from 'text', 'shape', 'dot')\n"),
    (["compare", "a.json", "b.json", "--relation", "bogus"],
     "usage: treemorse compare [-h] --relation\n"
     "                         {merge,forman,homological,persistence}\n"
     "                         path_a path_b\n"
     "treemorse compare: error: argument --relation: invalid choice: 'bogus' "
     "(choose from 'merge', 'forman', 'homological', 'persistence')\n"),
]


@pytest.mark.parametrize("argv, err", BAD_CHOICES, ids=["format", "relation"])
def test_a_bad_choice_names_the_choices_in_order(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command, choices", [
    ("merge-tree", "--format {text,shape,dot}\n"),
    ("compare", "--relation {merge,forman,homological,persistence}\n"),
])
def test_help_lists_the_choices_in_order(capsys, monkeypatch, command, choices):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.endswith("  -h, --help            show this help message and exit\n  " + choices)


# --- merge-tree -------------------------------------------------------------


def test_merge_tree_text_output(tmp_path, capsys):
    assert main(["merge-tree", narrow_doc(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "6 L\n"
        "  5 L\n"
        "    0 L\n"
        "    4 R\n"
        "      3 L\n"
        "      1 R\n"
        "  2 R\n"
    )


def test_merge_tree_shape_output(tmp_path, capsys):
    assert main(["merge-tree", narrow_doc(tmp_path), "--format", "shape"]) == 0
    assert capsys.readouterr().out == "((•(••))•)\n"


def test_merge_tree_dot_output(tmp_path, capsys):
    assert main(["merge-tree", narrow_doc(tmp_path), "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph merge_tree {\n")
    assert '  n0 [label="6"];' in out
    assert out.rstrip().endswith("}")


def test_merge_tree_commands_build_no_nodes(tmp_path, capsys, monkeypatch):
    # a merge tree is its code and values: every format and the merge
    # comparison read them, and the sweep is taken once per document read
    counts = helpers.count_readings(monkeypatch)
    deep, narrow = deep_doc(tmp_path), narrow_doc(tmp_path)
    for fmt in ("text", "shape", "dot"):
        assert main(["merge-tree", deep, "--format", fmt]) == 0
    assert main(["compare", deep, narrow, "--relation", "merge"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "not-equivalent"
    assert counts["sweep"] == 5


@pytest.mark.parametrize("fmt, method", [("text", "to_text"), ("shape", "shape_code"), ("dot", "to_dot")])
def test_merge_tree_formats_run_the_renderer_the_class_holds(tmp_path, capsys, monkeypatch, fmt, method):
    # bench/selftest.py plants its large_documents fault by patching
    # MergeTree.shape_code, so each format must look its renderer up per call
    right = getattr(MergeTree, method)
    monkeypatch.setattr(MergeTree, method, lambda self: right(self)[::-1])
    assert main(["merge-tree", narrow_doc(tmp_path), "--format", fmt]) == 0
    assert capsys.readouterr().out == right(induce_merge_tree(helpers.narrow_function()))[::-1] + "\n"


def test_merge_tree_of_a_deep_path(tmp_path, capsys):
    # each edge joins the growing component to one more vertex, so the
    # merge tree is a 2,999-level chain; every renderer must walk it
    n = 3000
    path = write_doc(
        tmp_path,
        "path.json",
        {f"v{i}": i for i in range(n)},
        [[f"v{i}", f"v{i + 1}", n + i] for i in range(n - 1)],
    )
    assert main(["merge-tree", path, "--format", "shape"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "(" * (n - 1) + "•" + "•)" * (n - 1) + "\n"
    assert main(["merge-tree", path, "--format", "text"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 2 * n - 1
    assert lines[:3] == [f"{2 * n - 2} L", f"  {2 * n - 3} L", f"    {2 * n - 4} L"]
    # the deepest join is v0-v1; after it, preorder climbs the right leaves
    deepest = "  " * (n - 1)
    assert lines[n - 1:n + 2] == [deepest + "0 L", deepest + "1 R", deepest[2:] + "2 R"]
    assert lines[-1] == f"  {n - 1} R"
    assert main(["merge-tree", path, "--format", "dot"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 3 + (2 * n - 1) + (2 * n - 2)
    assert lines[2] == f'  n0 [label="{2 * n - 2}"];'
    # the root's left edge follows its subtree's edges; its right child,
    # vertex v2999, is numbered last
    assert lines[-3:] == [
        '  n0 -> n1 [label="L"];',
        f'  n0 -> n{2 * n - 2} [label="R"];',
        "}",
    ]


# --- invariants -------------------------------------------------------------


def test_invariants_report_on_a_thin_function(tmp_path, capsys):
    assert main(["invariants", narrow_doc(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "impasses: 1\n"
        "matching: 2\n"
        "thin: true\n"
        "lr: LR\n"
        "homological sequence: 1,2,3,4,3,2,1\n"
        "persistence diagram:\n"
        "0 inf\n"
        "1 5\n"
        "2 6\n"
        "3 4\n"
    )


def test_invariants_report_on_a_wide_function(tmp_path, capsys):
    assert main(["invariants", deep_doc(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "impasses: 3\n" in out
    assert "matching: 3\n" in out
    assert "thin: false\n" in out
    assert "lr:" not in out
    assert "homological sequence: 1,2,3,2,3,2,3,4,3,2,1\n" in out
    assert out.endswith(
        "persistence diagram:\n0 inf\n1 10\n2 3\n4 5\n6 9\n7 8\n"
    )


def test_invariants_and_homological_compare_on_a_long_path(tmp_path, capsys):
    # 99,999 simplices, all critical: vertex i at 2i, edge (i, i+1) at 2i+3,
    # so b0 alternates 1,2,1,2,...,1 and each edge kills the vertex before it
    n = 50_000
    path = write_doc(
        tmp_path,
        "long.json",
        {f"v{i}": 2 * i for i in range(n)},
        [[f"v{i}", f"v{i + 1}", 2 * i + 3] for i in range(n - 1)],
    )
    b0_line = "homological sequence: " + ",".join(
        "2" if k % 2 else "1" for k in range(2 * n - 1)
    )
    assert main(["invariants", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:3] == ["impasses: 1", f"matching: {n // 2}", "thin: true"]
    assert lines[3].startswith("lr: ")
    assert lines[4] == b0_line
    assert lines[5:8] == ["persistence diagram:", "0 inf", "2 3"]
    assert lines[-1] == f"{2 * n - 2} {2 * n - 1}"
    assert len(lines) == 6 + n
    assert main(["compare", path, path, "--relation", "homological"]) == 0
    assert capsys.readouterr() == ("equivalent\n", "")
    # every vertex before any edge: b0 climbs to n and falls back to 1
    climbing = write_doc(
        tmp_path,
        "climbing.json",
        {f"v{i}": i for i in range(n)},
        [[f"v{i}", f"v{i + 1}", n + i] for i in range(n - 1)],
    )
    assert main(["compare", path, climbing, "--relation", "homological"]) == 1
    assert capsys.readouterr() == ("not-equivalent\n", "")


def test_every_command_on_a_caterpillar_of_a_hundred_thousand_simplices(tmp_path, capsys):
    # a 16,666-vertex spine with the other 33,334 vertices hung on it:
    # 99,999 simplices with distinct values, each edge above its endpoints.
    # merge-tree --format text is left out: its output grows as the square
    # of the depth
    n, rng = 50_000, random.Random(14)
    names = [f"v{i}" for i in range(n)]
    spine = n // 3
    pairs = [(names[i - 1], names[i]) for i in range(1, spine)]
    pairs += [(names[rng.randrange(spine)], names[i]) for i in range(spine, n)]
    values = dict(zip(names, rng.sample(range(4 * n), n)))
    used = set(values.values())
    edges = []
    for u, v in pairs:
        x = max(values[u], values[v]) + 1 + rng.randrange(4 * n)
        while x in used:
            x += 1
        used.add(x)
        edges.append([u, v, x])
    # about 30% of all vertices are gradient pairs: hung vertices that take
    # the value of their only edge
    paired = [e for e in edges[spine - 1:] if rng.random() < 0.45]
    for _, v, x in paired:
        values[v] = x
    critical_vertices = n - len(paired)
    path = write_doc(tmp_path, "caterpillar.json", values, edges)
    rescaled = write_doc(
        tmp_path,
        "rescaled.json",
        {v: 3 * x + 7 for v, x in values.items()},
        [[u, v, 3 * x + 7] for u, v, x in edges],
    )
    assert main(["validate", path]) == 0
    assert capsys.readouterr() == ("valid\n", "")
    assert main(["merge-tree", path, "--format", "shape"]) == 0
    shape, err = capsys.readouterr()
    assert err == ""
    assert shape.count("•") == critical_vertices
    assert shape.count("(") == critical_vertices - 1
    assert main(["merge-tree", path, "--format", "dot"]) == 0
    dot, err = capsys.readouterr()
    assert err == ""
    assert len(dot.splitlines()) == 3 + (2 * critical_vertices - 1) + 2 * (critical_vertices - 1)
    # the impasses are the shape's joins of two leaves
    assert main(["invariants", path]) == 0
    report, err = capsys.readouterr()
    assert err == ""
    lines = report.splitlines()
    assert lines[0] == f"impasses: {shape.count('(••)')}"
    assert lines[2] == "thin: false"
    assert main(["compare", path, rescaled, "--relation", "merge"]) == 0
    assert capsys.readouterr() == ("equivalent\n", "")
    # rescaling moves every birth and death, so the diagrams differ
    assert main(["compare", path, rescaled, "--relation", "persistence"]) == 1
    assert capsys.readouterr() == ("not-equivalent\n", "")


# --- compare ----------------------------------------------------------------


def test_compare_merge_same_document(tmp_path, capsys):
    path = left_path_doc(tmp_path)
    assert main(["compare", path, path, "--relation", "merge"]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_compare_merge_detects_different_shapes(tmp_path, capsys):
    code = main(
        [
            "compare",
            left_path_doc(tmp_path),
            right_path_doc(tmp_path),
            "--relation",
            "merge",
        ]
    )
    assert code == 1
    assert capsys.readouterr().out == "not-equivalent\n"


def test_compare_homological_across_shapes(tmp_path, capsys):
    # the two path leanings share (1,2,3,2,1) but pair differently
    code = main(
        [
            "compare",
            left_path_doc(tmp_path),
            right_path_doc(tmp_path),
            "--relation",
            "homological",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_compare_persistence_across_shapes(tmp_path, capsys):
    code = main(
        [
            "compare",
            left_path_doc(tmp_path),
            right_path_doc(tmp_path),
            "--relation",
            "persistence",
        ]
    )
    assert code == 1
    assert capsys.readouterr().out == "not-equivalent\n"


def test_compare_forman_needs_matching_domains(tmp_path, capsys):
    code = main(
        [
            "compare",
            left_path_doc(tmp_path),
            narrow_doc(tmp_path),
            "--relation",
            "forman",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("DomainMismatchError:")


# --- enumerate --------------------------------------------------------------


def test_enumerate_class_count(tmp_path, capsys):
    assert main(["enumerate", path3_tree_doc(tmp_path), "--count-classes"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_enumerate_check_report(tmp_path, capsys):
    assert main(["enumerate", path3_tree_doc(tmp_path), "--check"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("functions checked: 16\n")
    assert out.rstrip().endswith("all invariants hold")


def test_enumerate_check_json(tmp_path, capsys):
    code = main(["enumerate", path3_tree_doc(tmp_path), "--check", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["functions"] == 16
    assert report["ok"] is True
    assert report["impasse_count_min"] == 1
    assert report["impasse_count_max"] == 1
    assert report["matching_number"] == 1
    assert all(check["failed"] == 0 for check in report["checks"])


def test_enumerate_check_reports_a_failing_tree(tmp_path, capsys, monkeypatch):
    # no tree fails a check on correct code, so the matching number reads 0;
    # the path's 16 labelings end in 4 tally entries, one witness each
    monkeypatch.setattr(SimplicialTree, "matching_number", lambda self: 0)
    doc = path3_tree_doc(tmp_path)
    assert main(["enumerate", doc, "--check"]) == 1
    out = capsys.readouterr().out
    assert out.rstrip().endswith("INVARIANT FAILURES")
    assert out.count("  witness [") == out.count("  witness [impasse count <= matching number]: ") == 4
    assert main(["enumerate", doc, "--check", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    witnesses = {check["name"]: len(check["witnesses"]) for check in report["checks"]}
    assert witnesses.pop("impasse count <= matching number") == 4
    assert set(witnesses.values()) == {0}


def test_enumerate_checks_a_seven_vertex_path_under_a_raised_budget(tmp_path, capsys):
    vertices = {f"v{i}": None for i in range(7)}
    edges = [[f"v{i}", f"v{i + 1}"] for i in range(6)]
    path = write_doc(tmp_path, "path7.json", vertices, edges)
    code = main(["enumerate", path, "--check", "--json", "--budget", "13"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    tree = helpers.tree_from_edges(7, [tuple(e) for e in edges])
    assert report["functions"] == helpers.extension_count(tree)
    assert (report["impasse_count_min"], report["impasse_count_max"]) == (1, 3)
    assert report["ok"] is True


def test_enumerate_refuses_a_too_small_budget(tmp_path, capsys):
    code = main(
        ["enumerate", path3_tree_doc(tmp_path), "--count-classes", "--budget", "4"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("BudgetExceededError:")
    # a budget below one is no size at all
    for flag in ("--count-classes", "--check"):
        assert main(["enumerate", path3_tree_doc(tmp_path), flag, "--budget", "0"]) == 2
        assert capsys.readouterr().err == "NonPositiveSizeError: a simplex budget must be a positive integer, not 0\n"


# --- star-realize -----------------------------------------------------------


def test_star_realize_known_sequence(tmp_path, capsys):
    assert main(["star-realize", "LRRL"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["vertices"]) == ["0", "1", "2", "3", "4", "5"]
    assert doc["vertices"] == {str(i): i for i in range(6)}
    assert doc["edges"] == [
        ["2", "3", 6],
        ["1", "2", 7],
        ["2", "4", 8],
        ["0", "2", 9],
        ["2", "5", 10],
    ]


def test_star_realize_single_edge(tmp_path, capsys):
    assert main(["star-realize", ""]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"vertices": {"0": 0, "1": 1}, "edges": [["0", "1", 2]]}


def test_star_realize_output_round_trips(tmp_path, capsys):
    assert main(["star-realize", "RLLR"]) == 0
    path = tmp_path / "star.json"
    path.write_text(capsys.readouterr().out)

    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "valid\n"

    assert main(["invariants", str(path)]) == 0
    out = capsys.readouterr().out
    assert "thin: true\n" in out
    assert "lr: RLLR\n" in out


def test_star_realize_rejects_junk(capsys):
    assert main(["star-realize", "LXL"]) == 2
    assert capsys.readouterr().err.startswith("MalformedSequenceError:")


# --- cyclic garbage collector -----------------------------------------------


@pytest.fixture
def gc_restored():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_gc_as_it_found_it(tmp_path, capsys, monkeypatch, gc_restored, enabled):
    left, right = left_path_doc(tmp_path), right_path_doc(tmp_path)
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    during = []

    def spy(f):
        during.append(gc.isenabled())
        return induce_merge_tree(f)

    monkeypatch.setattr(cli, "induce_merge_tree", spy)
    for argv, code in (
        (["merge-tree", left, "--format", "shape"], 0),
        (["compare", left, right, "--relation", "merge"], 1),
        (["validate", str(broken)], 2),  # a TreemorseError
        (["validate", str(tmp_path / "absent.json")], 2),  # an OSError
    ):
        gc.enable() if enabled else gc.disable()
        assert main(argv) == code
        assert gc.isenabled() is enabled
    capsys.readouterr()
    assert during == [False, False, False]  # paused while the commands ran


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_library_calls_leave_the_gc_alone(gc_restored, enabled):
    gc.enable() if enabled else gc.disable()
    f = helpers.deep_function()  # runs validate
    assert gc.isenabled() is enabled
    induce_merge_tree(f)
    assert gc.isenabled() is enabled


# --- interpreter entry point ------------------------------------------------


def run_module(argv: list[str], options: tuple[str, ...] = ()) -> tuple[str, str, int]:
    """`python [options] -m treemorse argv` in a child interpreter that imports
    the same treemorse package as this one, installed or not."""
    path = [str(Path(treemorse.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, *options, "-m", "treemorse", *argv], capture_output=True, text=True, env=env,
    )
    return result.stdout, result.stderr, result.returncode


def test_module_entry_point(tmp_path):
    assert run_module(["validate", narrow_doc(tmp_path)]) == ("valid\n", "", 0)


def test_optimized_interpreter_answers_alike(tmp_path):
    # python -O strips every assert statement; the package checks with
    # explicit tests, so each command answers byte for byte as without -O
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (document,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    example = tmp_path / "example.json"
    example.write_text(document, encoding="utf-8")
    repeated = write_doc(tmp_path, "repeated.json", {"a": 0, "b": 1}, [["a", "b", 2], ["b", "a", 3]])
    refused = "MultiEdgeError: edge ('a', 'b') appears more than once\n"
    for argv, answer in [
        (["validate", str(example)], ("valid\n", "", 0)),
        (["merge-tree", str(example), "--format", "shape"], ("((•(••))•)\n", "", 0)),
        (["validate", repeated], ("", refused, 1)),
        (["merge-tree", repeated, "--format", "shape"], ("", refused, 2)),
    ]:
        assert run_module(argv) == run_module(argv, ("-O",)) == answer
