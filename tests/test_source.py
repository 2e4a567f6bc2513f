"""Checks on the package source itself."""

import ast
from pathlib import Path

import treemorse


def test_package_has_no_assert_statement():
    # python -O strips assert, so every invariant must be an explicit check
    package = Path(treemorse.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
