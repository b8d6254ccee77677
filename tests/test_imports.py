"""Importing the package and running the oracle-backed experiments load
numpy and scipy.sparse only, none of the heavier scipy subpackages."""

import os
import subprocess
import sys
from pathlib import Path

import wavelattice

HEAVY = ("scipy.integrate", "scipy.special", "scipy.optimize",
         "scipy.spatial", "scipy.fft", "scipy.ndimage")

SCRIPT = f"""
import sys
heavy = {HEAVY!r}

def loaded():
    return sorted(m for m in heavy if m in sys.modules)

import wavelattice, wavelattice.harness
from wavelattice.harness import default_config, run_experiment
print("import", loaded())
for name in ("E1", "E6"):
    assert run_experiment(default_config(name, n=1)).passed
print("run", loaded())
"""


def test_no_heavy_scipy_subpackages():
    src = str(Path(wavelattice.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["import []", "run []"]
