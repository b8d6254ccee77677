"""The package needs numpy only: no source file imports scipy, and neither
importing the package nor running the experiments loads any of it.
Importing the package loads no module of the forked workers either."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import wavelattice

PACKAGE = Path(wavelattice.__file__).resolve().parent

SCRIPT = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import wavelattice, wavelattice.harness
from wavelattice.harness import default_config, run_experiment
print("import", loaded())
for name in ("E1", "E6", "E7"):
    assert run_experiment(default_config(name, n=1)).passed
print("run", loaded())
"""


def test_import_and_runs_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["import []", "run []"]


def test_no_source_file_imports_scipy():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                      for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_import_loads_no_worker_machinery():
    # the shared allocator and the forked workers load their modules when a
    # run first needs them, so importing the package costs nothing more
    script = ("import sys, wavelattice, wavelattice.harness; "
              "print(sorted(m for m in ('mmap', 'wavelattice.workers') "
              "if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
