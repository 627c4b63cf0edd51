"""Run the mutants of mutants/table.py against the tests named for each.

    python mutants/run.py

Copies src/ and tests/ to a temporary directory and checks that every
named test passes there unmutated. Then, for each mutant, it replaces the
snippet in the copy, runs the mutant's tests with pytest -x -q, and puts
the file back. A mutant is killed when a test fails, the copy no longer
imports, or the run times out. Exits 1 when the unmutated tests fail, a
snippet does not occur exactly once, or a mutant not marked equivalent
survives. Only the standard library and pytest are used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

from table import MUTANTS  # noqa: E402

TIMEOUT_S = 300
# pytest's exit codes for failed tests and for an interrupted collection.
KILLED = (1, 2, "timeout")


def pytest(tree: Path, tests: list) -> tuple:
    """(exit code or "timeout", first FAILED/ERROR line) of the tests in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    first = next((line for line in out.stdout.splitlines()
                  if line.startswith(("FAILED", "ERROR"))), "")
    return out.returncode, first


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for d in ("src", "tests"):
            shutil.copytree(REPO / d, tree / d, ignore=shutil.ignore_patterns("__pycache__"))
        rc, first = pytest(tree, sorted({t for m in MUTANTS for t in m[3]}))
        if rc != 0:
            print(f"the unmutated tests do not pass (pytest exit {rc}): {first}")
            return 1
        bad = 0
        for i, (file, snippet, replacement, tests, equivalent) in enumerate(MUTANTS, 1):
            path = tree / file
            source = path.read_text()
            label = f"[{i:2}/{len(MUTANTS)}] {file}: {snippet.strip()!r}"
            if source.count(snippet) != 1:
                print(f"{label}: ERROR, the snippet occurs {source.count(snippet)} times")
                bad += 1
                continue
            path.write_text(source.replace(snippet, replacement))
            t0 = time.monotonic()
            try:
                rc, first = pytest(tree, tests)
            finally:
                path.write_text(source)
            took = f"{time.monotonic() - t0:.1f} s"
            if rc in KILLED:
                print(f"{label}: killed ({rc}, {took}) {first}")
            elif rc == 0 and equivalent:
                print(f"{label}: survived, equivalent: {equivalent}")
            else:
                print(f"{label}: SURVIVED (pytest exit {rc}, {took})")
                bad += 1
    print(f"{len(MUTANTS)} mutants, {bad} not killed, {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
