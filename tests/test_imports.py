"""The package's modules import only names they use, and every name the
package exports at the top level resolves."""

import ast
from pathlib import Path

import pytest

import fracmatch

SRC = Path(fracmatch.__file__).resolve().parent

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


def test_every_exported_name_resolves():
    for name in fracmatch.__all__:
        assert hasattr(fracmatch, name), name
