"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import treemorse
from treemorse import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _package_nodes():
    package = Path(treemorse.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_package_has_no_assert_statement():
    # python -O strips assert, so every invariant must be an explicit check
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _package_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_raises_no_bare_value_error():
    # every error the package raises is a TreemorseError; a ValueError is
    # only ever a second base of one
    found = []
    for path, node in _package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_readme_tour_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    # the first block's trailing comments are the results, as repr prints them
    results = [
        (code, comment.strip())
        for code, sep, comment in (line.partition("#") for line in blocks[0].splitlines())
        if sep
    ]
    assert len(results) == 5
    for code, expected in results:
        assert repr(eval(code, namespace)) == expected, code
    used = set(re.findall(r"\btm\.(\w+)", text))
    assert used
    assert used <= set(treemorse.__all__)


def test_readme_cli_transcript(tmp_path, capsys):
    # the Command line block's output for the Documents block's narrow.json
    text = README.read_text(encoding="utf-8")
    (document,) = re.findall(r"```json\n(.*?)```", text, re.S)
    path = tmp_path / "narrow.json"
    path.write_text(document, encoding="utf-8")
    transcript = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    runs = re.findall(r"^\$ treemorse (.*narrow\.json.*)\n((?:[^$].*\n)*)", transcript, re.M)
    assert [argv for argv, _ in runs] == [
        "validate narrow.json",
        "merge-tree narrow.json",
        "merge-tree narrow.json --format shape",
        "invariants narrow.json",
    ]
    for argv, expected in runs:
        assert cli.main([str(path) if word == "narrow.json" else word for word in argv.split()]) == 0
        assert capsys.readouterr().out == expected
