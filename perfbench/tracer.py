"""Outside-in tracer for the traced benchmark run.

Nothing in ``wavelattice`` knows about it.  ``Tracer.install`` rebinds each
traced public function in every ``wavelattice`` module namespace that holds
it, because a ``from .x import y`` binding is looked up in the importing
module, not in ``x``.  Each wrapped call is a span: its inclusive time, and
its self time (duration minus the time covered by child spans), are summed
per span name, with counters of the work it was handed.

The per-point sampler ``DataFunction.__call__`` runs about 10^5 times per
experiment, so it is aggregated into counters rather than spans; its time
still counts as child time of the span it was called from.  CG iterations
are counted by giving ``elliptic.spla`` a proxy whose ``cg`` passes a
callback.  A target that no longer exists is reported by name in
``missing``, and every metric that depends on it is left out of the report
instead of reading zero.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (home module, attribute, span name).  "Class.method" patches the class.
SPANS = [
    ("wavelattice.lattice", "classify", "lattice.classify"),
    ("wavelattice.stencils", "laplacian_array", "stencils.laplacian"),
    ("wavelattice.stencils", "lattice_points", "stencils.lattice_points"),
    ("wavelattice.stencils", "field_from_classification", "stencils.field_alloc"),
    ("wavelattice.leapfrog", "solve", "leapfrog.solve"),
    ("wavelattice.spectral", "homogeneous_solution", "spectral.synthesis"),
    ("wavelattice.spectral", "DataFunction.fourier", "spectral.fourier"),
    ("wavelattice.spectral", "duhamel_solve", "spectral.duhamel"),
    ("wavelattice.dispersion", "beta_arrays", "dispersion.beta"),
    ("wavelattice.dispersion", "beta_semidiscrete", "dispersion.beta"),
    ("wavelattice.lagrange", "system_for_domain", "lagrange.setup"),
    ("wavelattice.lagrange", "set_initial_data", "lagrange.setup"),
    ("wavelattice.lagrange", "integrate", "lagrange.integrate"),
    ("wavelattice.elliptic", "split_pipeline", "elliptic.split"),
    ("wavelattice.elliptic", "assemble_and_solve", "elliptic.assemble_solve"),
    ("wavelattice.harness.norms", "compare_on_common_lattice", "harness.compare"),
    ("wavelattice.harness.experiments", "run_experiment", "harness.experiment"),
]
SAMPLER = ("wavelattice.spectral", "DataFunction.__call__", "spectral.sample")
CG = ("wavelattice.elliptic", "spla", "elliptic.cg")


class MissingTarget(Exception):
    """A metric read a span or counter whose wrap target does not exist."""


def _rows(points) -> int:
    """Number of points in one point (n,) or a stack of points (..., n)."""
    shape = getattr(points, "shape", None) or np.shape(points)
    return 1 if len(shape) <= 1 else math.prod(shape[:-1])


def _index_window_points(domain, dx) -> int:
    """Points of the index window classify scans: the bounding window,
    padded by one ring on bounded domains."""
    pad = 1 if domain.bounded else 0
    total = 1
    for lo, hi in domain.bounding_window():
        total *= math.ceil(hi / dx) + pad - (math.floor(lo / dx) - pad) + 1
    return total


def _solve_work(bound, result):
    spec = bound["problem"].spec
    t_range = bound["t_range"] or (-spec.T, spec.T)
    levels = round(t_range[1] / spec.dt) - round(t_range[0] / spec.dt)
    points = int(np.prod(result.shape))
    return {"leapfrog.levels": levels, "leapfrog.point_updates": levels * points}


def _integrate_work(bound, result):
    steps = round((bound["t1"] - bound["t0"]) / bound["h_ode"])
    return {"lagrange.point_updates": steps * bound["system"].values.size}


def _synthesis_work(bound, result):
    quad = bound["quad"]
    uses_quad = any(
        d is not None and d.single_frequency is None for d in (bound["f"], bound["g"])
    )
    nodes = len(quad.weights) if quad is not None and uses_quad else 1
    return {"spectral.point_nodes": _rows(bound["x"]) * nodes}


# span name -> function(bound arguments, result) -> {counter: amount}
WORK = {
    "lattice.classify": lambda b, r: {
        "lattice.points_classified": _index_window_points(b["domain"], b["spec"].dx)
    },
    "stencils.laplacian": lambda b, r: {"stencils.laplacian_points": b["values"].size},
    "leapfrog.solve": _solve_work,
    "spectral.synthesis": _synthesis_work,
    "spectral.fourier": lambda b, r: {"spectral.fourier_nodes": _rows(b["alpha"])},
    "dispersion.beta": lambda b, r: {"dispersion.frequencies": _rows(b["alpha"])},
    "lagrange.integrate": _integrate_work,
    "elliptic.assemble_solve": lambda b, r: {
        "elliptic.unknowns": int(np.count_nonzero(r.fieldobj.interior))
    },
}


def _ratio(work: float, per: float) -> float:
    """Work per second or per call; 0 where the layer did no work."""
    return work / per if per > 0 else 0.0


# Per-layer metrics, in the order BENCHMARK.json lists them.  Each reads the
# trace through a _View; the harness metrics that need the untraced wall time
# are added by run.py.
METRICS = [
    ("lattice.classify_s", lambda v: v.total("lattice.classify")),
    ("lattice.classify_calls", lambda v: v.calls("lattice.classify")),
    ("lattice.points_classified", lambda v: v.count("lattice.points_classified")),
    ("lattice.classify_points_per_s", lambda v: _ratio(
        v.count("lattice.points_classified"), v.total("lattice.classify"))),
    ("stencils.laplacian_s", lambda v: v.total("stencils.laplacian")),
    ("stencils.laplacian_points", lambda v: v.count("stencils.laplacian_points")),
    ("stencils.laplacian_points_per_s", lambda v: _ratio(
        v.count("stencils.laplacian_points"), v.total("stencils.laplacian"))),
    ("stencils.lattice_points_s", lambda v: v.total("stencils.lattice_points")),
    ("stencils.lattice_points_calls", lambda v: v.calls("stencils.lattice_points")),
    ("stencils.field_alloc_s", lambda v: v.total("stencils.field_alloc")),
    ("leapfrog.solve_s", lambda v: v.total("leapfrog.solve")),
    ("leapfrog.self_s", lambda v: v.self_time("leapfrog.solve")),
    ("leapfrog.levels", lambda v: v.count("leapfrog.levels")),
    ("leapfrog.point_updates", lambda v: v.count("leapfrog.point_updates")),
    ("leapfrog.point_updates_per_s", lambda v: _ratio(
        v.count("leapfrog.point_updates"), v.total("leapfrog.solve"))),
    ("spectral.synthesis_s", lambda v: v.total("spectral.synthesis")),
    ("spectral.synthesis_calls", lambda v: v.calls("spectral.synthesis")),
    ("spectral.point_nodes", lambda v: v.count("spectral.point_nodes")),
    ("spectral.point_nodes_per_s", lambda v: _ratio(
        v.count("spectral.point_nodes"), v.total("spectral.synthesis"))),
    ("spectral.fourier_s", lambda v: v.total("spectral.fourier")),
    ("spectral.fourier_nodes", lambda v: v.count("spectral.fourier_nodes")),
    ("spectral.duhamel_s", lambda v: v.total("spectral.duhamel")),
    ("spectral.sample_s", lambda v: v.total("spectral.sample")),
    ("spectral.sample_calls", lambda v: v.calls("spectral.sample")),
    ("spectral.sample_points", lambda v: v.count("spectral.sample_points")),
    ("spectral.points_per_sample_call", lambda v: _ratio(
        v.count("spectral.sample_points"), v.calls("spectral.sample"))),
    ("dispersion.beta_s", lambda v: v.total("dispersion.beta")),
    ("dispersion.frequencies", lambda v: v.count("dispersion.frequencies")),
    ("lagrange.setup_s", lambda v: v.total("lagrange.setup")),
    ("lagrange.integrate_s", lambda v: v.total("lagrange.integrate")),
    ("lagrange.point_updates", lambda v: v.count("lagrange.point_updates")),
    ("elliptic.split_s", lambda v: v.total("elliptic.split")),
    ("elliptic.assemble_solve_s", lambda v: v.total("elliptic.assemble_solve")),
    ("elliptic.unknowns", lambda v: v.count("elliptic.unknowns")),
    ("elliptic.cg_iterations", lambda v: v.count("elliptic.cg_iterations")),
    ("harness.compare_s", lambda v: v.total("harness.compare")),
    ("harness.experiment_self_s", lambda v: v.self_time("harness.experiment")),
]

# counter -> the span (wrap target) whose calls produce it
_COUNTER_SOURCE = {
    "lattice.points_classified": "lattice.classify",
    "stencils.laplacian_points": "stencils.laplacian",
    "leapfrog.levels": "leapfrog.solve",
    "leapfrog.point_updates": "leapfrog.solve",
    "spectral.point_nodes": "spectral.synthesis",
    "spectral.fourier_nodes": "spectral.fourier",
    "spectral.sample_points": "spectral.sample",
    "dispersion.frequencies": "dispersion.beta",
    "lagrange.point_updates": "lagrange.integrate",
    "elliptic.unknowns": "elliptic.assemble_solve",
    "elliptic.cg_iterations": "elliptic.cg",
}


class _View:
    """Read access to the aggregated trace that refuses missing targets."""

    def __init__(self, tracer):
        self._t = tracer
        self._missing = {key for _, key in tracer.missing}

    def _check(self, key):
        if key in self._missing:
            raise MissingTarget(key)

    def total(self, span):
        self._check(span)
        return self._t.total[span]

    def self_time(self, span):
        self._check(span)
        return self._t.total[span] - self._t.child[span]

    def calls(self, span):
        self._check(span)
        return self._t.calls[span]

    def count(self, name):
        self._check(_COUNTER_SOURCE[name])
        return self._t.counts[name]


class _CountingLinalg:
    """Stands in for scipy.sparse.linalg inside elliptic; counts CG steps."""

    def __init__(self, module, counts):
        self._module = module
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._module, name)

    def cg(self, *args, callback=None, **kwargs):
        def count(xk):
            self._counts["elliptic.cg_iterations"] += 1
            if callback is not None:
                callback(xk)

        return self._module.cg(*args, callback=count, **kwargs)


class Tracer:
    """Span and counter aggregation for one traced experiment run."""

    def __init__(self):
        self.total = defaultdict(float)  # inclusive seconds per span name
        self.child = defaultdict(float)  # seconds covered by child spans
        self.calls = Counter()
        self.counts = Counter()
        self.missing = []  # (target, key) pairs that could not be wrapped
        self._open = []  # child seconds accumulated by each open span

    # -- installation

    def install(self) -> None:
        for home, attr, key in SPANS:
            self._patch(home, attr, key, self._span)
        self._patch(*SAMPLER, self._sampler)
        home, attr, key = CG
        module = sys.modules.get(home)
        if module is None or not hasattr(module, attr):
            self.missing.append((f"{home}.{attr}", key))
        else:
            setattr(module, attr, _CountingLinalg(getattr(module, attr), self.counts))

    def _patch(self, home, attr, key, make_wrapper) -> None:
        module = sys.modules.get(home)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.missing.append((f"{home}.{attr}", key))
            return
        wrapper = functools.wraps(original)(make_wrapper(original, key))
        if owner_name:
            setattr(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wavelattice" and not mod_name.startswith("wavelattice."):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)

    # -- wrappers

    def _span(self, original, key):
        signature = inspect.signature(original)
        work = WORK.get(key)

        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._open.pop()
                self.total[key] += elapsed
                self.child[key] += child
                self.calls[key] += 1
                if self._open:
                    self._open[-1] += elapsed
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(work(bound.arguments, result))
            return result

        return wrapper

    def _sampler(self, original, key):
        def wrapper(data, x):
            start = perf_counter()
            try:
                return original(data, x)
            finally:
                elapsed = perf_counter() - start
                self.total[key] += elapsed
                self.calls[key] += 1
                self.counts["spectral.sample_points"] += _rows(x)
                if self._open:
                    self._open[-1] += elapsed

        return wrapper

    # -- report

    def report(self) -> dict:
        """Per-layer metric values, plus the wrap targets that were missing."""
        view = _View(self)
        metrics = {}
        for name, read in METRICS:
            try:
                metrics[name] = float(read(view))
            except MissingTarget:
                continue
        return {"metrics": metrics, "missing": [target for target, _ in self.missing]}
