"""Checks on the package source itself."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import treemorse
from treemorse import MergeTree, MorseFunction, SimplicialTree, cli
from treemorse.complexes import _cached
from treemorse.morse import Sweep

README = Path(__file__).resolve().parent.parent / "README.md"
HELPERS = Path(__file__).resolve().parent / "helpers.py"

# the independent oracles in helpers.py and the package names they may load
ORACLES = {
    "brute_matching_number", "brute_extensions", "extension_count",
    "strict_sublevel_component", "literal_critical", "reference_merge_tree",
    "reference_persistence_diagram", "reference_b0_sequence",
    "reference_shape_code", "reference_values", "reference_text", "reference_dot",
}
ORACLE_IMPORTS = {"MorseFunction", "SimplicialTree", "is_edge"}


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


def test_only_complexes_decides_what_is_a_tree():
    # every SimplicialTree is checked where it is built, so no other module
    # raises the errors that refuse a graph as a tree
    refusals = {"CycleDetectedError", "NotConnectedError", "MultiEdgeError"}
    raisers: dict = {}
    for path, node in _package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in refusals:
                raisers.setdefault(exc.id, set()).add(path.name)
    assert raisers == {name: {"complexes.py"} for name in refusals}


def test_no_function_calls_itself_but_the_witness_walk():
    # a recursion's depth follows its input, and the package must work at
    # 10^5 simplices; _witness recurses once per vertex, which the simplex
    # budget bounds. A call in a function's own body, by its name or by an
    # attribute of that name, counts
    found = {
        f"{path.stem}.{fn.name}"
        for path, fn in _package_nodes() if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and fn.name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert found == {"oracle._witness"}


def test_only_the_fold_orders_the_vertex_sets_by_size():
    # every reading of the top-edge recursion joins oracle._fold, so no
    # other function in oracle.py copies its walk by int.bit_count
    oracle = Path(treemorse.__file__).parent / "oracle.py"
    found = [
        fn.name
        for fn in ast.walk(ast.parse(oracle.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and "sort" in ast.unparse(node.func)
        and any(k.arg == "key" and "bit_count" in ast.unparse(k.value) for k in node.keywords)
    ]
    assert found == ["_fold"]


def test_a_merge_tree_has_one_representation():
    # a MergeTree is its shape code and preorder values: merge_tree.py
    # defines no class but MergeTree, and no node type survives anywhere
    package = Path(treemorse.__file__).parent
    classes = [
        node.name
        for node in ast.walk(ast.parse((package / "merge_tree.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    assert classes == ["MergeTree"]
    assert [path.name for path in sorted(package.glob("*.py")) if "MergeNode" in path.read_text(encoding="utf-8")] == []
    assert MergeTree._fields == ("code", "values")


def test_records_store_their_fields_one_way():
    # _Record writes the constructor of a record that only stores its fields;
    # a hand-written one checks them or gives defaults, and stores them
    # through the instance dict, as the written ones do
    records, constructors, calls = set(), set(), []
    for path, node in _package_nodes():
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id == "_Record" for b in node.bases):
            records.add(node.name)
            if any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body):
                constructors.add(node.name)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"):
            calls.append(f"{path.name}:{node.lineno}")
    assert len(records) == 10 and constructors == {"SimplicialTree", "MergeTree"}
    assert calls == []


def test_every_record_is_one_kind_of_record():
    # every record is an immutable _Record: no class is a NamedTuple, no class
    # but _Record binds the hooks with which _Record refuses assignment, and
    # no module calls tuple.__new__, the way round a NamedTuple's constructor
    hooks = {"__setattr__", "__delattr__"}
    found = []
    for path, node in _package_nodes():
        if isinstance(node, ast.ClassDef):
            bound = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            bound |= {name.id for item in node.body if isinstance(item, ast.Assign)
                      for name in ast.walk(item) if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)}
            if "NamedTuple" in map(ast.unparse, node.bases) or (node.name != "_Record" and bound & hooks):
                found.append(f"{path.name}:{node.name}")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "tuple.__new__":
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_does_not_use_functools_cached_property():
    # up to Python 3.11 it takes a lock on every first read; complexes._cached
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


def test_every_class_with_a_cached_reading_refuses_assignment():
    # a cached reading goes stale once a field changes, so only a record
    # that refuses assignment, to its fields and to the cache, may hold one
    holders = {}
    for path in sorted(Path(treemorse.__file__).parent.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"treemorse.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                readings = [name for name, member in vars(cls).items() if isinstance(member, _cached)]
                if readings:
                    holders[cls.__name__] = (cls, readings)
    assert {"SimplicialTree", "MorseFunction"} <= holders.keys()
    assignable = []
    for name, (cls, readings) in sorted(holders.items()):
        bare = object.__new__(cls)
        for attr in (*getattr(cls, "_fields", ()), *readings):
            try:
                setattr(bare, attr, None)
            except AttributeError:
                continue
            assignable.append(f"{name}.{attr}")
    assert assignable == []


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
    # member the package derives from the values or the tree, such as
    # SimplicialTree's matching_number and its cache; the tree's simplices
    # and simplex_count only list its fields
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
        name for cls in (SimplicialTree, MorseFunction, Sweep, MergeTree) for name in vars(cls)
        if not name.startswith("__")
    } - fields - {"simplices", "simplex_count"} | set(Sweep._fields)
    assert {"sweep", "_partition", "critical_values", "gradient_vector_field", "joins"} <= derived
    assert {"matching_number", "_matching_number", "degree"} <= derived
    found = []
    for name in sorted(ORACLES):
        for node in ast.walk(helpers[name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in package - ORACLE_IMPORTS or node.id in helpers.keys() - ORACLES:
                    found.append(f"{name} loads {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in derived:
                found.append(f"{name} reads .{node.attr}")
    assert found == []
