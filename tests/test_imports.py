"""The package's modules import only names they use, every module-level
name they define is used somewhere, every name the package exports at
the top level resolves, and so does every package name the benchmark
reads. A fresh process loads only what it runs: a sweep loads neither
the certificate layers nor the process pool, and the benchmark's child
still loads every module its tracer wraps."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
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


def reference_counts(tree: ast.AST) -> Counter:
    """How often each name under tree is read, imported or reached as an
    attribute, or named by an identifier or dotted-path string constant
    (the benchmark's tracer names its targets that way). A definition is
    not a reference to itself."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if IDENTIFIER.match(node.value):
                refs.update(node.value.split("."))
    return refs


def referenced_names(source: str) -> set:
    return set(reference_counts(ast.parse(source)))


def class_members(tree: ast.Module) -> list:
    """(class name, def) for each method and property of a module-level
    class, dunders excluded."""
    return [
        (cls.name, node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unreferenced_members(package: dict, users: list) -> list:
    """Methods and properties of the package's classes (package maps a
    module stem to its tree) that no tree in users references outside
    their own def."""
    total = Counter()
    for tree in users:
        total.update(reference_counts(tree))
    return [
        f"{stem}.{cls}.{node.name}"
        for stem, tree in package.items()
        for cls, node in class_members(tree)
        if total[node.name] <= reference_counts(node)[node.name]
    ]


def test_every_module_level_name_is_referenced():
    """Every module-level name, and every method and property of a package
    class, is referenced somewhere in the package, its tests or the
    benchmark."""
    users = [ast.parse(path.read_text()) for d in USER_DIRS for path in (REPO / d).rglob("*.py")]
    refs = set()
    for tree in users:
        refs |= set(reference_counts(tree))
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unreferenced = [
        f"{stem}.{name}"
        for stem, source in sources.items()
        for name in module_level_names(source)
        if name not in refs
    ]
    package = {stem: ast.parse(source) for stem, source in sources.items()}
    assert unreferenced + unreferenced_members(package, users) == []


def test_scan_sees_an_unreferenced_name():
    source = (
        "def used():\n    return LIMIT\n\n"
        "def _helper():\n    pass\n\n"
        "LIMIT = 3\nSTALE = 4\n__all__ = ['used']\n"
    )
    assert module_level_names(source) == ["used", "_helper", "LIMIT", "STALE"]
    unreferenced = set(module_level_names(source)) - referenced_names(source)
    assert sorted(unreferenced) == ["STALE", "_helper"]


def test_scan_sees_an_unreferenced_method():
    source = (
        "class A:\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    @property\n    def named(self):\n        return 2\n\n"
        "    def stale(self):\n        return self.stale()\n\n"
        "    @property\n    def dead(self):\n        return 3\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "A().used()\n"
    )
    tree = ast.parse(source)
    user = ast.parse("getattr(a, 'named')\n")
    assert unreferenced_members({"m": tree}, [tree, user]) == ["m.A.stale", "m.A.dead"]


def test_every_exported_name_resolves():
    for name in fracmatch.__all__:
        assert hasattr(fracmatch, name), name


# The benchmark's files that read the package directly. The tracer's
# TARGETS are left out: it skips a target that is missing by design.
BENCHMARK_READERS = ("child.py", "checks.py", "test_smoke.py")


def package_reads(source: str) -> set:
    """Dotted paths under fracmatch that source reads: names imported from
    a fracmatch module, and attribute chains on a name so imported, cut
    before the first dunder (a tracer adds __wrapped__)."""
    tree = ast.parse(source)
    local = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracmatch"):
            for a in node.names:
                local[a.asname or a.name] = f"{node.module}.{a.name}"
    reads = set(local.values())
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in local:
            path = local[node.id]
            for attr in reversed(parts):
                if attr.startswith("__"):
                    break
                path += "." + attr
                reads.add(path)
    return reads


def resolves(path: str) -> bool:
    """Whether the longest importable module prefix of path has the rest
    as an attribute chain."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_scan_sees_package_reads():
    source = (
        "from fracmatch import fm\n"
        "from fracmatch.errors import PreconditionError as PE\n"
        "def f(g):\n"
        "    from fracmatch.bulk import bulk_alpha2\n"
        "    fm.alpha2.__wrapped__\n"
        "    fm.Graph.from_mask(1).rows\n"
        "    other.attr\n"
    )
    assert package_reads(source) == {
        "fracmatch.fm",
        "fracmatch.errors.PreconditionError",
        "fracmatch.bulk.bulk_alpha2",
        "fracmatch.fm.alpha2",
        "fracmatch.fm.Graph",
        "fracmatch.fm.Graph.from_mask",
    }
    assert resolves("fracmatch.graph.Graph.from_mask")
    assert not resolves("fracmatch.graph.Graph.no_such_method")
    assert not resolves("fracmatch.no_such_module.name")


def test_every_benchmark_read_resolves():
    reads = set()
    for name in BENCHMARK_READERS:
        reads |= package_reads((REPO / "fmbench" / name).read_text())
    assert "fracmatch.ngbounds.sweep_with_rows" in reads
    assert [path for path in sorted(reads) if not resolves(path)] == []


def test_benchmark_identity_bindings():
    # fmbench/test_smoke.py asserts these while its tracer is installed;
    # the tracer rewraps every binding of one object together.
    from fracmatch import fm, ngbounds, partition

    assert fm.alpha2 is ngbounds.alpha2 is partition.alpha2
    assert fm.hopcroft_karp is partition.hopcroft_karp


# ---------------------------------------------------------------------------
# What a fresh process loads.

# Modules a 1-worker sweep does not run, so must not load.
SWEEP_DEFERRED = (
    "concurrent.futures",
    "fracmatch.selftest",
    "fracmatch.bipartite",
    "fracmatch.partition",
    "fracmatch.fm",
    "fracmatch.families",
    "fracmatch.ngbounds",
)


def fresh(code: str):
    """Run code in a fresh interpreter that imports this package; the
    last line it prints is read as JSON."""
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_sweep_loads_only_the_sweep_path(tmp_path):
    argv = ["sweep", "--sample", "30,1/10,200,1", "--bound", "nonempty",
            "--csv", str(tmp_path / "rows.csv")]
    rc, loaded = fresh(
        "import json, sys\n"
        "from fracmatch.cli import main\n"
        f"rc = main({argv!r})\n"
        "print(json.dumps([rc, sorted(sys.modules)]))\n"
    )
    assert rc == 0
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 201
    assert [name for name in SWEEP_DEFERRED if name in loaded] == []


def test_graph_layer_loads_no_solver():
    # Graph keeps its double-cover solve, but only fracmatch.fm fills it.
    loaded = fresh(
        "import json, sys\n"
        "import fracmatch.graph\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert [name for name in ("fracmatch.bipartite", "fracmatch.fm") if name in loaded] == []


def test_bare_import_loads_no_submodule():
    loaded = fresh(
        "import json, sys\n"
        "import fracmatch\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fracmatch.'))))\n"
    )
    assert loaded == []


def test_every_export_resolves_and_is_listed_from_a_fresh_import():
    rows = fresh(
        "import json, sys\n"
        "import fracmatch\n"
        "listed = dir(fracmatch)\n"
        "print(json.dumps([\n"
        "    [name, getattr(fracmatch, name).__module__, name in listed]\n"
        "    for name in fracmatch.__all__ if name != '__version__'\n"
        "]))\n"
    )
    assert [name for name, _, _ in rows] == [n for n in fracmatch.__all__ if n != "__version__"]
    assert [name for name, _, listed in rows if not listed] == []
    for name, module, _ in rows:
        assert getattr(importlib.import_module(module), name) is getattr(fracmatch, name)
    assert "__version__" in dir(fracmatch)
    with pytest.raises(AttributeError):
        fracmatch.no_such_name


def test_benchmark_child_loads_every_traced_module():
    # The tracer rebinds its targets only in modules already loaded when it
    # installs, and `import fracmatch` loads none; so the child's own import
    # line must load every module the tracer wraps that the package has.
    bench = REPO / "fmbench"
    line = next(
        node for node in ast.parse((bench / "child.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module == "fracmatch"
    )
    targets = next(
        node.value for node in ast.parse((bench / "tracer.py").read_text()).body
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS"
    )
    traced = {module for _, module, _ in ast.literal_eval(targets)}
    present = {m for m in traced if (SRC / f"{m.rpartition('.')[2]}.py").exists()}
    assert "fracmatch.harness" in present and "fracmatch.bulk" in present
    loaded = fresh(f"import json, sys\n{ast.unparse(line)}\nprint(json.dumps(sorted(sys.modules)))\n")
    assert sorted(present - set(loaded)) == []
