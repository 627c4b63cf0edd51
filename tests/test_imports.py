"""The package's modules import only names they use, every module-level
name they define is used somewhere, and every name the package exports at
the top level resolves."""

import ast
import re
from pathlib import Path

import pytest

import fracmatch

SRC = Path(fracmatch.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent
# Where a package name counts as used: the package, its tests, the benchmark.
USER_DIRS = ("src", "tests", "fmbench")
IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*\Z")

# partition binds alpha2 without calling it: fmbench/test_smoke.py asserts
# that the benchmark's tracer rewraps that binding.
ALLOWED = {("partition", "alpha2")}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_no_unused_imports(path):
    unused = [
        name for name in unused_imports(path.read_text())
        if (path.stem, name) not in ALLOWED
    ]
    assert unused == []


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Tuple\nx: List = []\n") == [
        "Tuple",
        "os",
    ]


def module_level_names(source: str) -> list:
    """Functions, classes and assigned names defined at module level,
    dunders excluded."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def referenced_names(source: str) -> set:
    """Names read, imported or reached as attributes, plus identifier and
    dotted-path string constants (the benchmark's tracer names its targets
    that way). A definition is not a reference to itself."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if IDENTIFIER.match(node.value):
                refs.update(node.value.split("."))
    return refs


def test_every_module_level_name_is_referenced():
    refs = set()
    for d in USER_DIRS:
        for path in (REPO / d).rglob("*.py"):
            refs |= referenced_names(path.read_text())
    unreferenced = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in module_level_names(path.read_text())
        if name not in refs
    ]
    assert unreferenced == []


def test_scan_sees_an_unreferenced_name():
    source = (
        "def used():\n    return LIMIT\n\n"
        "def _helper():\n    pass\n\n"
        "LIMIT = 3\nSTALE = 4\n__all__ = ['used']\n"
    )
    assert module_level_names(source) == ["used", "_helper", "LIMIT", "STALE"]
    unreferenced = set(module_level_names(source)) - referenced_names(source)
    assert sorted(unreferenced) == ["STALE", "_helper"]


def test_every_exported_name_resolves():
    for name in fracmatch.__all__:
        assert hasattr(fracmatch, name), name
