"""End-to-end checks of the command line surface.

Everything runs through main(argv) so exit codes and printed text are
exercised exactly as a shell user sees them; one test shells out to the
interpreter to cover `python -m treemorse`.
"""

import json
import subprocess
import sys

import pytest

import helpers
from treemorse.cli import main


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


def test_unknown_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


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


# --- interpreter entry point ------------------------------------------------


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "treemorse", "validate", narrow_doc(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "valid\n"
