"""Memory bounded by design: the reference synthesis and the full-space solve of
E1 at n = 3 (the `fullspace-3d` benchmark workload, levels = 4), the forced
full-space solve of E6(b) at n = 3, each worker process it forks, and the
continuum Duhamel sum of its forcing.  A window array of FORK_POINTS points
or more lies in shared memory, which tracemalloc does not see, so every
traced figure adds the shared allocator's bytes."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from wavelattice import (
    DiscreteProblem,
    Domain,
    FrequencyQuadrature,
    dalembert_forcing,
    duhamel_solve,
    homogeneous_solution,
    solve,
    stencils,
)
from wavelattice.harness import default_config
from wavelattice.harness.experiments import _varying_ratio_specs
from wavelattice.lattice import refine_halving, window_indices
from wavelattice.stencils import field_from_classification, sample_window

MB = 1024 * 1024


def _traced(func, *args, **kwargs):
    """(result, peak bytes, bytes still held with the result alive), both
    above the start, of one call: traced bytes plus those of the arrays in
    shared memory."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        shared_start, _ = stencils.shared_memory()
        tracemalloc.reset_peak()
        stencils.reset_shared_peak()
        result = func(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
        shared_held, shared_peak = stencils.shared_memory()
    finally:
        tracemalloc.stop()
    return (result, peak - start + shared_peak - shared_start,
            held - start + shared_held - shared_start)


def _e1_n3():
    config = default_config("E1", n=3, levels=4)
    return config, config.data("f"), config.data("g")


def test_e1_oracle_synthesis_is_small():
    # 125 compare points against 33^3 nodes: the dense phase matrix alone
    # would take 125 * 35937 * 16 bytes = 72 MB
    config, f, g = _e1_n3()
    base = config.base_spec()
    quad = FrequencyQuadrature.for_data(f, g, T=base.T)
    points = window_indices(config.window(), base.dx) * base.dx
    assert points.shape == (125, 3) and len(quad.weights) == 33**3
    values, peak, _ = _traced(homogeneous_solution, f, g, points, base.T,
                              quad=quad)
    assert values.shape == (125,)
    assert peak <= 16 * MB


def _e1_n3_finest():
    """E1 n = 3's data, domain and the spec whose bootstrap window (its
    window grown by its steps on every side) is the largest, with that
    window's point count."""
    config, f, g = _e1_n3()
    base = config.base_spec()
    specs = refine_halving(base, config.levels) + _varying_ratio_specs(
        base, config.levels)
    domain = Domain.full_space(config.window())

    def bootstrap_points(spec):
        window = DiscreteProblem(spec=spec, domain=domain).classification.shape
        return int(np.prod([w + 2 * spec.steps for w in window]))

    spec = max(specs, key=bootstrap_points)
    return f, g, domain, spec, bootstrap_points(spec)


def test_catalog_sampling_holds_few_window_arrays():
    # a Gaussian on E1 n = 3's largest bootstrap window (105^3), sampled on
    # its axes one block of rows at a time: the values and block-sized
    # temporaries, with no block of points
    f, _, domain, spec, points = _e1_n3_finest()
    fld = field_from_classification(
        DiscreteProblem(spec=spec, domain=domain).classification, pad=spec.steps)
    assert fld.shape == (105,) * 3 and math.prod(fld.shape) == points
    values, peak, _ = _traced(sample_window, f, fld)
    assert values.shape == fld.shape
    assert peak <= 1.25 * 8 * points


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_finest_fullspace_solve_holds_few_window_arrays(monkeypatch, workers):
    # the bootstrap samples by blocks and builds no point array, and the
    # stepping kernel rotates its levels through the bootstrap's buffers and
    # forms each block's Laplacian in scratch of a few hundred kB: level 0,
    # g and the kernel's scratch, with no window-sized Laplacian buffer;
    # from two workers on, level 0 and g lie in shared memory, and each
    # forked worker's scratch is its own (see the test after the next)
    monkeypatch.setattr(stencils, "_WORKERS", workers)
    f, g, domain, spec, points = _e1_n3_finest()
    problem = DiscreteProblem(spec=spec, domain=domain, f=f, g=g)
    fld, peak, held = _traced(solve, problem, t_range=(0.0, spec.T))
    assert sorted(fld.levels) == [0, 1, spec.steps - 2, spec.steps - 1,
                                  spec.steps]
    assert peak <= 3 * 8 * points
    # the field keeps five window-sized levels, no view of a larger buffer
    assert held <= 6 * 8 * int(np.prod(fld.shape))


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_forced_fullspace_solve_holds_few_window_arrays(monkeypatch, workers):
    # E6(b) at n = 3: the forcing's two spaces are sampled once on the
    # bootstrap window, one block of rows at a time, so the solve holds
    # level 0, g and the two sampled spaces, and no point array of the
    # bootstrap window exists; this process adds only block-sized scratch,
    # however many workers it forks, and the all-interior window allocates
    # no masks
    monkeypatch.setattr(stencils, "_WORKERS", workers)
    config = default_config("E6", n=3)
    spec = config.base_spec()
    space = config.data("f")
    forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
    problem = DiscreteProblem(spec=spec, domain=Domain.full_space(config.window()),
                              f=space, forcing=forcing)
    fld, peak, _ = _traced(solve, problem, t_range=(0.0, spec.T))
    assert spec.steps in fld.levels
    window = problem.classification.shape
    bootstrap_points = int(np.prod([w + 2 * spec.steps for w in window]))
    assert peak <= 5 * 8 * bootstrap_points


def test_each_worker_holds_only_block_sized_arrays(monkeypatch, tmp_path):
    # E6(b) at n = 3 on up to eight processes: each forked worker allocates its
    # two scratch arrays of one block and, at a time, the forcing's two
    # chunks of planes, whatever the process count; it reaches every window
    # array through the fork and copies none.  Each worker writes the peak
    # of what it allocated, traced from its fork, into a file of its own
    # as it ends.
    monkeypatch.setattr(stencils, "_WORKERS", 8)
    at_fork = {}
    real_fork, real_exit = os.fork, os._exit

    def fork():
        pid = real_fork()
        if pid == 0:
            at_fork["traced"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        return pid

    def exit(code):
        try:
            if "traced" in at_fork:
                peak = tracemalloc.get_traced_memory()[1] - at_fork["traced"]
                (tmp_path / str(os.getpid())).write_text(str(peak))
        finally:
            real_exit(code)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "_exit", exit)
    config = default_config("E6", n=3)
    spec = config.base_spec()
    space = config.data("f")
    forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
    problem = DiscreteProblem(spec=spec, domain=Domain.full_space(config.window()),
                              f=space, forcing=forcing)
    _traced(solve, problem, t_range=(0.0, spec.T))
    peaks = [int(path.read_text()) for path in tmp_path.iterdir()]
    # three processes keep the scratch within half of a 101^3 level
    assert len(peaks) == 2
    plane = math.prod(w + 2 * spec.steps for w in problem.classification.shape[1:])
    scratch = 2 * 8 * max(stencils.BLOCK_POINTS, plane)
    terms = 2 * 8 * max(stencils.TERM_POINTS, plane)
    # and a ufunc's buffer of 8192 values plus Python objects
    assert max(peaks) <= scratch + terms + 128 * 1024


def test_continuum_duhamel_holds_no_s_by_node_array():
    # E6's manufactured forcing at n = 3 in the wave equation (dt = 0): the
    # 65 Simpson nodes in s are summed one at a time, so only arrays over the
    # 33^3 frequency nodes exist (575 kB each); a stack of the kernel and the
    # transform over (s, node) would take 2 * 65 * 33^3 * 16 bytes, 71 MB
    config = default_config("E6", n=3)
    space = config.data("f")
    forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
    quad = FrequencyQuadrature.for_data(space, T=config.T)
    points = window_indices(config.window(), 0.25) * 0.25
    assert len(quad.weights) == 33**3
    values, peak, _ = _traced(duhamel_solve, space, None, forcing, points,
                              config.T, quad)
    assert values.shape == (len(points),)
    assert peak <= 16 * MB
