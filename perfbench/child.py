"""One benchmark sample: a fresh process that runs one experiment.

Usage (from the root of a checkout):

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--setup-only]

The process imports ``wavelattice`` from ``src/`` of the checkout, builds the
workload's config, and prints ``READY <t>`` with ``t`` read from
CLOCK_MONOTONIC, which Linux shares between processes, so the parent can time
set-up from its spawn of the process to that point.  It then runs
``run_experiment(config)`` and prints one JSON line with the wall time inside
``run_experiment``, the verdict, every error-table entry, the peak RSS and,
with ``--trace``, the per-layer counters of ``tracer.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: largest per-axis shift of a data centre for a non-zero seed
MAX_SHIFT = 0.05


def _import_wavelattice():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import wavelattice
    from wavelattice import harness

    origin = Path(wavelattice.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"wavelattice imported from {origin}, not from {SRC}")
    return wavelattice, harness


def base_config(harness, workload: str):
    """The unshifted config of each workload (seed 0 runs exactly these)."""
    if workload == "fullspace-3d":
        return harness.default_config("E1", n=3, levels=4)
    if workload == "bounded-2d":
        return harness.default_config("E7", n=2, levels=4)
    if workload == "forced-2d":
        return harness.default_config("E6", n=2).with_overrides(T=0.5)
    raise SystemExit(f"unknown workload {workload!r}")


def seeded_config(harness, workload: str, seed: int):
    """Seed 0 gives the default config; any other seed shifts every data
    centre by a seeded amount in [-MAX_SHIFT, MAX_SHIFT] per axis."""
    config = base_config(harness, workload)
    if seed == 0:
        return config
    rng = random.Random(seed)
    shifted = {}
    for name in ("f", "g", "h", "w", "a", "sigma"):
        data = harness.parse_data_function(getattr(config, name), config.n)
        if data is None or data.center is None:
            continue
        center = tuple(c + rng.uniform(-MAX_SHIFT, MAX_SHIFT) for c in data.center)
        shifted[name] = harness.format_data_function(replace(data, center=center))
    return config.with_overrides(**shifted)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wavelattice, harness = _import_wavelattice()
    config = seeded_config(harness, args.workload, args.seed)
    print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer  # perfbench/ is sys.path[0]

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    result = harness.run_experiment(config)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    report = {
        "wall_s": wall,
        "passed": bool(result.passed),
        "tables": {
            name: [[row.sup_error, row.l2_error] for row in table.rows]
            for name, table in result.tables.items()
        },
        "notes": list(result.notes),
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
