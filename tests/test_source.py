"""Checks on the package source itself."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import treemorse
from treemorse import MergeTree, MorseFunction, cli
from treemorse.morse import Sweep

README = Path(__file__).resolve().parent.parent / "README.md"
HELPERS = Path(__file__).resolve().parent / "helpers.py"

# the independent oracles in helpers.py and the package names they may load
ORACLES = {
    "brute_matching_number", "brute_extensions", "extension_count",
    "strict_sublevel_component", "literal_critical", "reference_merge_tree",
    "reference_persistence_diagram", "reference_b0_sequence",
}
ORACLE_IMPORTS = {"MergeNode", "MergeTree", "MorseFunction", "SimplicialTree", "is_edge"}


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


def test_package_does_not_use_functools_cached_property():
    # up to Python 3.11 it takes a lock on every first read; morse._cached
    # takes none
    found = []
    for path, node in _package_nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = {node.attr} if node.value.id == "functools" else set()
        else:
            continue
        if "cached_property" in names:
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_does_not_import_dataclasses():
    # importing it loads inspect and ast too, a third of the package's
    # import time, which every command pays; the records are plain classes
    found = []
    for path, node in _package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cold_import_loads_no_introspection_modules():
    # -S: no site directory, so no .pth file can load these modules first
    source = str(Path(treemorse.__file__).resolve().parent.parent)
    unwanted = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (
        f"import sys; sys.path.insert(0, {source!r}); import treemorse, treemorse.cli; "
        f"print(' '.join(name for name in {unwanted!r} if name in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


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


def test_oracles_stay_independent_of_the_package():
    # an oracle answers for the code it checks, so it loads only the
    # package's data types and is_edge, calls no other helper, and reads no
    # member the package derives from the values (SimplicialTree's
    # matching_number included)
    module = ast.parse(HELPERS.read_text(encoding="utf-8"))
    package = {  # the names helpers.py binds to the package
        alias.asname or alias.name.split(".")[0]
        for node in module.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if (getattr(node, "module", None) or alias.name).split(".")[0] == "treemorse"
    }
    helpers = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    assert ORACLES <= helpers.keys()
    assert ORACLE_IMPORTS <= package
    fields = {name for cls in (MorseFunction, MergeTree) for name in cls._fields}
    derived = {
        name for cls in (MorseFunction, Sweep, MergeTree) for name in vars(cls)
        if not name.startswith("__")
    } - fields | {"matching_number"}
    assert {"sweep", "_partition", "critical_values", "gradient_vector_field", "joins"} <= derived
    found = []
    for name in sorted(ORACLES):
        for node in ast.walk(helpers[name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in package - ORACLE_IMPORTS or node.id in helpers.keys() - ORACLES:
                    found.append(f"{name} loads {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in derived:
                found.append(f"{name} reads .{node.attr}")
    assert found == []
