"""Leapfrog solver: bootstrap exactness, kept levels, guards."""

import math
import os

import numpy as np
import pytest

from kernel_reference import leapfrog_advance, leapfrog_first_level
from wavelattice import (
    BlowupError,
    DataFunction,
    DiscreteProblem,
    Domain,
    LatticeSpec,
    dalembert_forcing,
    integrate,
    separable_forcing,
    set_initial_data,
    solve,
)
from wavelattice import lagrange, leapfrog, stencils
from wavelattice.harness import default_config, run_experiment
from wavelattice.lagrange import LagrangeSystem, system_for_domain
from wavelattice.stencils import (
    clamp_level,
    crop_centre,
    field_from_classification,
    laplacian_array,
    sample_window,
    window_clamp,
)


def _full_space_problem(**kw):
    spec = kw.pop("spec", LatticeSpec(1, 0.1, 0.05, 0.4))
    domain = Domain.full_space([(-0.5, 0.5)])
    return DiscreteProblem(spec=spec, domain=domain, **kw)


def _each_level(problem):
    """(level, values) for every level 0..steps, each from a solve that ends
    at that level."""
    spec = problem.spec
    for level in range(spec.steps + 1):
        fld = solve(problem, t_range=(0.0, level * spec.dt))
        yield level, fld.level_array(level)


class TestBootstrap:
    def test_constant_data_stays_constant(self):
        problem = _full_space_problem(f=lambda x: 2.5)
        for _, values in _each_level(problem):
            assert np.all(values == 2.5)

    def test_linear_in_time(self):
        # f = 0, g = c: the scheme reproduces u = c t exactly
        c = 0.7
        problem = _full_space_problem(g=lambda x: c)
        spec = problem.spec
        for level, values in _each_level(problem):
            assert np.allclose(values, c * level * spec.dt, atol=1e-13)

    def test_zero_data_zero_history(self):
        problem = _full_space_problem()
        for _, values in _each_level(problem):
            assert np.all(values == 0.0)


class TestSolve:
    def test_inadmissible_spec_rejected(self):
        spec = LatticeSpec(1, 0.1, 0.2, 0.4)  # ratio 2 > 1
        assert not spec.admissible()
        with pytest.raises(ValueError):
            DiscreteProblem(spec=spec, domain=Domain.full_space([(-0.5, 0.5)]))

    def test_t_range_must_hit_lattice_times(self):
        problem = _full_space_problem()
        with pytest.raises(ValueError):
            solve(problem, t_range=(0.0, 0.33))

    def test_reversed_t_range_rejected(self):
        problem = _full_space_problem(f=DataFunction.gaussian([0.0], 0.1))
        with pytest.raises(ValueError, match="reversed"):
            solve(problem, t_range=(0.4, 0.0))

    def test_kept_levels(self):
        problem = _full_space_problem(f=DataFunction.gaussian([0.0], 0.1))
        assert sorted(solve(problem, t_range=(0.0, 0.4)).levels) == [
            0, 1, 6, 7, 8]
        assert sorted(solve(problem).levels) == [
            -8, -7, -6, -1, 0, 1, 6, 7, 8]
        assert sorted(solve(problem, t_range=(0.1, 0.4)).levels) == [
            2, 6, 7, 8]
        assert sorted(solve(problem, t_range=(-0.4, -0.15)).levels) == [
            -8, -7, -6, -3]

    def test_backward_symmetry_with_zero_velocity(self):
        # g = 0 makes the discrete evolution time-symmetric: v^{-m} = v^m
        f = DataFunction.gaussian([0.0], 0.1)
        fld = solve(_full_space_problem(f=f))
        steps = 8
        assert np.allclose(fld.level_array(-steps), fld.level_array(steps),
                           atol=1e-12)

    def test_blowup_detected(self):
        # seed far above the finite threshold; one step trips the guard
        problem = _full_space_problem(f=lambda x: 1e13)
        with pytest.raises(BlowupError):
            solve(problem, t_range=(0.0, 0.4))

    def test_box_boundary_clamped(self):
        spec = LatticeSpec(1, 0.1, 0.05, 0.4)
        problem = DiscreteProblem(
            spec=spec, domain=Domain.box([(0.0, 1.0)]),
            f=DataFunction.gaussian([0.5], 0.08), boundary_value=0.0,
        )
        fld = solve(problem, t_range=(0.0, spec.T))
        arr = fld.level_array(spec.steps)
        assert arr[0] == 0.0 and arr[-1] == 0.0

    def test_variable_coefficients_rejected(self):
        # the scheme has no a(x) or sigma(x); they go through the splitting
        spec = LatticeSpec(1, 0.1, 0.05, 0.4)
        with pytest.raises(TypeError):
            DiscreteProblem(spec=spec, domain=Domain.box([(0.0, 1.0)]),
                            a=lambda x: 1.1)


def _cone_problem(n, **kw):
    spec = LatticeSpec(n, 0.1, 0.05, 0.4)
    return DiscreteProblem(
        spec=spec, domain=Domain.full_space([(-0.5, 0.5)] * n),
        f=DataFunction.gaussian([0.1] * n, 0.2),
        g=DataFunction.gaussian([-0.05] * n, 0.15, amplitude=0.4), **kw,
    )


T_RANGES = [(0.0, 0.4), (-0.4, 0.4), (0.1, 0.4), (-0.4, -0.15),
            (-0.05, 0.4), (-0.15, 0.4), (0.0, 0.05)]


class TestDependenceCone:
    """A full-space solve steps the dependence cone of the problem's window
    and returns that window, equal to the plain loop on the padded window."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t_range", T_RANGES)
    def test_levels_equal_plain_loop_on_window(self, n, t_range):
        problem = _cone_problem(n)
        lo, hi = (round(t / problem.spec.dt) for t in t_range)
        reference = _reference_levels(problem, lo, hi)
        fld = solve(problem, t_range=t_range)
        assert fld.levels
        for level, values in fld.levels.items():
            assert values.shape == problem.classification.shape
            assert np.array_equal(
                values, crop_centre(reference[level], values.shape)), level

    @staticmethod
    def _forced_problem(n=2):
        # exp(t) tells a backward level's time from the forward one's
        space = DataFunction.gaussian([0.0] + [0.1] * (n - 1), 0.2, amplitude=2.0)
        return _cone_problem(n, forcing=separable_forcing(space, math.exp))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("block_points", [7, 1 << 16])
    @pytest.mark.parametrize("t_range", T_RANGES)
    def test_forced_levels_equal_plain_loop_on_window(self, n, block_points,
                                                      t_range, monkeypatch):
        # the forcing's space is sampled once, one block of rows at a time, on
        # the bootstrap window; the reference samples the whole padded window
        monkeypatch.setattr(stencils, "BLOCK_POINTS", block_points)
        problem = self._forced_problem(n)
        lo, hi = (round(t / problem.spec.dt) for t in t_range)
        reference = _reference_levels(problem, lo, hi)
        fld = solve(problem, t_range=t_range)
        assert fld.levels
        for level, values in fld.levels.items():
            assert np.array_equal(
                values, crop_centre(reference[level], values.shape)), level

    @pytest.mark.parametrize("block_points", [7, 1 << 16])
    @pytest.mark.parametrize("t_range", [(-0.4, 0.4), (0.1, 0.4)])
    def test_two_term_forcing_equals_plain_loop_on_window(self, block_points,
                                                          t_range, monkeypatch):
        # the terms space * p'' and (-Lap space) * p are summed in that order
        # on each block, as the reference sums them on the whole window
        monkeypatch.setattr(stencils, "BLOCK_POINTS", block_points)
        space = DataFunction.gaussian([0.0, 0.1], 0.2, amplitude=2.0)
        problem = _cone_problem(2, forcing=dalembert_forcing(
            space, math.exp, lambda s: 2.0 * math.exp(s)))
        lo, hi = (round(t / problem.spec.dt) for t in t_range)
        reference = _reference_levels(problem, lo, hi)
        fld = solve(problem, t_range=t_range)
        for level, values in fld.levels.items():
            assert np.array_equal(
                values, crop_centre(reference[level], values.shape)), level

    @pytest.mark.parametrize("t_range", [(0.0, 0.4), (0.1, 0.4)])
    def test_forced_levels_equal_padded_verlet(self, t_range):
        # Verlet at h = dt is the forced scheme; on the window padded by
        # steps + 2 rings it is exact on the problem's window
        problem = self._forced_problem()
        forcing, spec = problem.forcing, problem.spec
        fld = solve(problem, t_range=t_range)
        kept = sorted(fld.levels)
        system = LagrangeSystem(
            dx=spec.dx, forcing=forcing,
            fieldobj=field_from_classification(
                problem.classification, pad=spec.steps + 2),
        )
        set_initial_data(system, problem.f, problem.g)
        out = integrate(system, 0.0, spec.T, spec.dt,
                        record_times=[k * spec.dt for k in kept])
        assert len(out) == len(kept)
        for level, values in zip(kept, out.values()):
            assert np.array_equal(
                fld.levels[level], crop_centre(values, fld.shape)), level

    def test_returns_the_problem_window(self):
        problem = _cone_problem(2)
        fld = solve(problem, t_range=(0.0, 0.4))
        expected = field_from_classification(problem.classification)
        assert fld.origin == expected.origin
        assert fld.shape == expected.shape
        assert np.array_equal(fld.interior, expected.interior)
        assert np.array_equal(fld.boundary, expected.boundary)

    @pytest.mark.parametrize("t_range", [(0.0, 0.4), (-0.15, 0.4)])
    def test_each_step_is_one_ring_smaller(self, t_range, monkeypatch):
        # each run steps the bootstrap window, grown by the longer run's
        # steps, on its own cone, the forward run first
        runs = _kernel_runs(monkeypatch)
        problem = _cone_problem(2)
        solve(problem, t_range=t_range)
        window = problem.classification.shape
        steps = [round(abs(t) / problem.spec.dt) for t in reversed(t_range)]
        assert runs == [
            (sign, tuple(w + 2 * max(steps) for w in window),
             [tuple(w + 2 * (s - k) for w in window) for k in range(1, s + 1)])
            for sign, s in zip((1, -1), steps) if s
        ]

    def test_bounded_domain_steps_its_whole_window(self, monkeypatch):
        runs = _kernel_runs(monkeypatch)
        spec = LatticeSpec(2, 0.1, 0.05, 0.4)
        problem = DiscreteProblem(
            spec=spec, domain=Domain.box([(0.0, 1.0)] * 2),
            f=DataFunction.gaussian([0.5, 0.5], 0.1), boundary_value=0.0,
        )
        fld = solve(problem, t_range=(0.0, spec.T))
        window = problem.classification.shape
        assert fld.shape == window
        assert runs == [(1, window, [window] * spec.steps)]


def _kernel_runs(monkeypatch):
    """(sign of h, shape of level 0, shapes of the yielded levels) of each
    stepping-kernel run that `solve` starts, in order."""
    runs = []
    real = leapfrog.three_level_steps

    def recording(v0, velocity, h, *args, **kwargs):
        shapes = []
        runs.append((1 if h > 0 else -1, v0.shape, shapes))
        for level, level_max in real(v0, velocity, h, *args, **kwargs):
            shapes.append(level.shape)
            yield level, level_max

    monkeypatch.setattr(leapfrog, "three_level_steps", recording)
    return runs


def _energy(fld, level, dx, dt):
    """E^{k+1/2} = |(v^{k+1} - v^k)/dt|^2 - <Lap_dx v^{k+1}, v^k> over the
    interior points, with k = level.  The leapfrog scheme conserves it
    exactly, up to roundoff, when Lap_dx is symmetric on the support."""
    new, old = fld.level_array(level + 1), fld.level_array(level)
    inside = fld.interior
    kinetic = np.sum(((new - old)[inside] / dt) ** 2)
    return kinetic - np.sum(laplacian_array(new, dx)[inside] * old[inside])


class TestEnergy:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bounded", [False, True])
    def test_discrete_energy_conserved(self, n, bounded):
        spec = LatticeSpec(n, 0.1, 0.05, 1.0 if bounded else 0.4)
        if bounded:  # zero-Dirichlet box
            domain = Domain.box([(0.0, 1.0)] * n)
            f = DataFunction.gaussian([0.5] * n, 0.1)
        else:  # the window reaches past the support of the solution
            domain = Domain.full_space([(-1.5, 1.5)] * n)
            f = DataFunction.smooth_bump([0.0] * n, 0.3)
        g = DataFunction.gaussian([0.05] * n, 0.12, amplitude=0.4)
        problem = DiscreteProblem(spec=spec, domain=domain, f=f, g=g)
        fld = solve(problem, t_range=(0.0, spec.T))
        start = _energy(fld, 0, spec.dx, spec.dt)
        end = _energy(fld, spec.steps - 1, spec.dx, spec.dt)
        assert start > 0.0
        assert abs(end - start) <= 1e-12 * start


def _reference_levels(problem, lo, hi):
    """Every level lo..hi of the padded run by the plain three-level loop,
    one fresh array per level (no buffer is ever reused).  The forcing, if
    any, enters each level's acceleration at that level's signed time: the
    sum of its terms space(x) * profile(t), in term order, each space
    sampled on the whole padded window."""
    spec = problem.spec
    # a run of s steps from a window padded by s + 2 rings is exact on it
    pad = 0 if problem.domain.bounded else max(hi, -lo, 1) + 2
    fld = field_from_classification(problem.classification, pad=pad)
    clamp = window_clamp(fld, problem.boundary_value)
    terms = [(sample_window(space, fld), profile) for space, profile in
             (problem.forcing.terms if problem.forcing is not None else ())]

    def accel(values, level):
        out = laplacian_array(values, spec.dx)
        if terms:
            w = None
            for space, profile in terms:
                term = space * profile(level * spec.dt)
                w = term if w is None else w + term
            out = out + w
        return out

    v0 = clamp_level(sample_window(problem.f, fld), clamp)
    velocity = sample_window(problem.g, fld)
    levels = {0: v0}
    for sign, end in ((1, hi), (-1, lo)):
        prev, cur = v0, clamp_level(
            leapfrog_first_level(v0, sign * velocity, accel(v0, 0), spec.dt),
            clamp)
        levels[sign] = cur
        for level in range(2 * sign, end + sign, sign):
            new = clamp_level(leapfrog_advance(
                cur, prev, accel(cur, level - sign), sign * spec.dt), clamp)
            levels[level] = new
            prev, cur = cur, new
    return levels


class TestBufferReuse:
    """The stepping kernel writes each level over the one two steps before
    it; every level solve keeps is a copy, equal to the plain loop's."""

    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("t_range", T_RANGES)
    def test_kept_levels_equal_plain_loop(self, bounded, t_range):
        spec = LatticeSpec(2, 0.1, 0.05, 0.4)
        domain = (Domain.box([(0.0, 1.0)] * 2) if bounded
                  else Domain.full_space([(-0.5, 0.5)] * 2))
        problem = DiscreteProblem(
            spec=spec, domain=domain, boundary_value=0.2 if bounded else 0.0,
            f=DataFunction.gaussian([0.4, 0.5], 0.15),
            g=DataFunction.gaussian([0.5, 0.45], 0.2, amplitude=0.4),
        )
        lo, hi = (round(t / spec.dt) for t in t_range)
        reference = _reference_levels(problem, lo, hi)
        fld = solve(problem, t_range=t_range)
        assert fld.levels
        for level, values in fld.levels.items():
            assert np.array_equal(
                values, crop_centre(reference[level], values.shape)), level


class TestBootstrapWindow:
    @pytest.mark.parametrize("t_range, signs", [
        ((0.0, 0.4), [1]), ((0.1, 0.4), [1]), ((-0.4, 0.4), [1, -1]),
        ((-0.4, -0.15), [-1]), ((0.0, 0.0), []),
    ])
    def test_first_levels_only_where_t_range_reaches(self, t_range, signs,
                                                     monkeypatch):
        # a run forms its first level from level 0 and g, once per sign of h
        runs = _kernel_runs(monkeypatch)
        solve(_cone_problem(1), t_range=t_range)
        assert [sign for sign, _, _ in runs] == signs

    @pytest.mark.parametrize("t_range", T_RANGES)
    def test_full_space_bootstraps_the_window_grown_by_steps(self, t_range,
                                                              monkeypatch):
        shapes = []
        real = leapfrog.field_from_classification

        def recording(classification, pad=0):
            fld = real(classification, pad)
            shapes.append(fld.shape)
            return fld

        monkeypatch.setattr(leapfrog, "field_from_classification", recording)
        problem = _cone_problem(2)
        solve(problem, t_range=t_range)
        steps = max(round(abs(t) / problem.spec.dt) for t in t_range)
        window = problem.classification.shape
        assert shapes[0] == tuple(w + 2 * steps for w in window)

    def test_catalog_data_sampled_by_blocks(self, monkeypatch):
        # catalog data is sampled on the window's axes, and no call covers
        # more than one block of window rows
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 50)
        sizes = []
        real = DataFunction.on_axes

        def recording(self, axes):
            sizes.append(math.prod(len(a) for a in axes))
            return real(self, axes)

        monkeypatch.setattr(DataFunction, "on_axes", recording)
        problem = _cone_problem(2)
        fld = solve(problem, t_range=(0.0, 0.4))
        assert len(sizes) > 2 and max(sizes) < 100
        reference = _reference_levels(problem, 0, problem.spec.steps)
        for level, values in fld.levels.items():
            assert np.array_equal(
                values, crop_centre(reference[level], values.shape))


def _wall(x):
    """A boundary value that varies along the boundary."""
    return 0.1 + 0.05 * x[0]


def _worker_runs(case, n):
    """Run the solve or the Verlet integration of `case` at dimension n."""
    spec = LatticeSpec(n, 0.1, 0.05, 0.4)
    f = DataFunction.gaussian([0.4] * n, 0.15)
    if case == "cone":
        solve(_cone_problem(n), t_range=(-0.4, 0.4))
    elif case == "forced":
        solve(TestDependenceCone._forced_problem(n), t_range=(-0.15, 0.4))
    elif case in ("box", "ball"):
        domain = (Domain.box([(0.0, 1.0)] * n) if case == "box"
                  else Domain.ball([0.5] * n, 0.43))
        solve(DiscreteProblem(spec=spec, domain=domain, f=f, boundary_value=_wall),
              t_range=(-0.2, 0.4))
    else:  # Verlet with a(x) and sigma(x) on a clamped ball
        system = system_for_domain(
            Domain.ball([0.5] * n, 0.43), spec.dx, boundary_value=_wall,
            a=lambda x: 1.0 + 0.1 * x[0],
            sigma=DataFunction.smooth_bump([0.5] * n, 0.4, amplitude=0.1))
        set_initial_data(system, f, DataFunction.gaussian([0.5] * n, 0.15))
        integrate(system, 0.0, spec.T, spec.dt / 2)


class TestWorkerCount:
    """The blocks of a level run in up to stencils._WORKERS processes, the
    caller and workers it forks over shared level buffers; the levels and
    the maxima the blowup guard takes do not depend on how many, and no
    worker outlives its run."""

    @pytest.fixture
    def fork_pids(self, monkeypatch):
        """The pids of the workers forked."""
        pids = []
        real = os.fork

        def counting():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        return pids

    @pytest.fixture
    def forks(self, fork_pids, monkeypatch):
        """fork_pids, with every window of window_zeros in shared memory
        wherever there are two workers or more."""
        monkeypatch.setattr(stencils, "FORK_POINTS", 0)
        return fork_pids

    @staticmethod
    def _levels(case, n, workers, monkeypatch):
        seen = []
        real = stencils.three_level_steps

        def recording(*args, **kwargs):
            for level, level_max in real(*args, **kwargs):
                seen.append((level.copy(), level_max))
                yield level, level_max

        monkeypatch.setattr(stencils, "_WORKERS", workers)
        for module in (leapfrog, lagrange):
            monkeypatch.setattr(module, "three_level_steps", recording)
        _worker_runs(case, n)
        return seen

    @staticmethod
    def _assert_same(seen, expected):
        assert len(seen) == len(expected)
        for (level, level_max), (other, other_max) in zip(seen, expected):
            assert np.array_equal(level, other) and level_max == other_max

    @staticmethod
    def _window(shape, fill=0.0):
        values = stencils.window_zeros(shape)
        values[...] = fill
        return values

    @staticmethod
    def _no_worker_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", ["cone", "forced", "box", "ball", "verlet"])
    def test_levels_and_maxima_equal_at_any_worker_count(self, case, n, forks,
                                                         monkeypatch):
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 7)
        one = self._levels(case, n, 1, monkeypatch)
        assert len(one) > 2 and not forks
        for workers in (2, 3):
            self._assert_same(self._levels(case, n, workers, monkeypatch), one)
        assert forks
        self._no_worker_left()

    def test_more_workers_than_cpus(self, forks, monkeypatch):
        # every worker writes its own planes and its own scratch; a write
        # that leaked into another block would change a level
        cpus = stencils._WORKERS
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 7)
        one = self._levels("forced", 3, 1, monkeypatch)
        seen = self._levels("forced", 3, 2 * cpus + 1, monkeypatch)
        self._assert_same(seen, one)
        assert len(forks) > 2 * cpus  # two runs, each on more processes than CPUs
        self._no_worker_left()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("where", [0, -1], ids=["first-block", "last-block"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("h", [0.05, -0.05])
    def test_blowup_guard_sees_every_block(self, workers, where, bad, h, forks,
                                           monkeypatch):
        # the velocity enters no Laplacian, so level 1 is bad at one point;
        # with two workers the last block is the worker's
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 10)
        monkeypatch.setattr(stencils, "_WORKERS", workers)
        v0 = self._window((12, 5))
        velocity = self._window((12, 5), 1.0)
        velocity[where, 2] = bad
        assert len(stencils.row_blocks(v0.shape)) == 6
        with pytest.raises(BlowupError) as exc:
            list(stencils.three_level_steps(v0, velocity, h, 0.1, 3))
        assert exc.value.level == (1 if h > 0 else -1)
        assert not math.isfinite(exc.value.max_value)
        assert len(forks) == workers - 1

    def test_each_worker_steps_one_contiguous_chunk(self, forks, monkeypatch):
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 10)
        monkeypatch.setattr(stencils, "_WORKERS", 2)
        stepped_by = self._window((12,))  # the pid at each block's first plane

        def terms(accel, values, t, at):
            stepped_by[at[0].start] = os.getpid()
            return accel

        v0 = self._window((12, 5))
        list(stencils.three_level_steps(v0, self._window((12, 5), 1.0), 0.05,
                                        0.1, 1, terms=terms))
        chunks = {}
        for start in range(0, 12, 2):
            chunks.setdefault(int(stepped_by[start]), []).append(start)
        assert len(forks) == 1
        assert chunks == {os.getpid(): [0, 2, 4], forks[0]: [6, 8, 10]}

    def test_one_block_forks_nothing(self, forks, monkeypatch):
        monkeypatch.setattr(stencils, "_WORKERS", 2)
        v0 = self._window((12, 5))
        assert len(stencils.row_blocks(v0.shape)) == 1
        assert len(list(stencils.three_level_steps(
            v0, self._window((12, 5), 1.0), 0.05, 0.1, 4))) == 4
        assert not forks

    @pytest.mark.parametrize("plain", ["v0", "velocity", "both"])
    def test_plain_arrays_fork_nothing(self, plain, forks, monkeypatch):
        # the workers could not write into a private array of the caller's
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 10)
        monkeypatch.setattr(stencils, "_WORKERS", 2)
        v0, velocity = self._window((12, 5)), self._window((12, 5), 1.0)
        if plain in ("v0", "both"):
            v0 = np.zeros((12, 5))
        if plain in ("velocity", "both"):
            velocity = np.ones((12, 5))
        levels = [level.copy() for level, _ in
                  stencils.three_level_steps(v0, velocity, 0.05, 0.1, 4)]
        assert len(levels) == 4 and np.all(levels[0] == 0.05)
        assert not forks

    def test_worker_error_reaches_the_caller(self, forks, monkeypatch):
        # blocks 6.. are the worker's: its error is raised here, with its
        # type and message, caused by its traceback there
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 10)
        monkeypatch.setattr(stencils, "_WORKERS", 2)

        def terms(accel, values, t, at):
            if at[0].start >= 6:
                raise KeyError(f"no term at plane {at[0].start}")
            return accel

        v0 = self._window((12, 5))
        with pytest.raises(KeyError, match="no term at plane 6") as exc:
            list(stencils.three_level_steps(v0, self._window((12, 5)), 0.05,
                                            0.1, 3, terms=terms))
        assert len(forks) == 1
        assert f"in worker process {forks[0]}" in str(exc.value.__cause__)
        assert "in terms" in str(exc.value.__cause__)
        self._no_worker_left()

    @pytest.mark.parametrize("end", ["exhausted", "blowup", "worker error",
                                     "closed", "dropped"])
    def test_no_worker_outlives_its_run(self, end, forks, monkeypatch):
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 10)
        monkeypatch.setattr(stencils, "_WORKERS", 3)
        # twelve blocks, whose scratch lets three processes step them; the
        # bad value and the error lie in the last worker's chunk
        v0, velocity = self._window((24, 5)), self._window((24, 5), 1.0)
        if end == "blowup":
            velocity[-1, 2] = math.nan

        def terms(accel, values, t, at):
            if end == "worker error" and at[0].start >= 16:
                raise ValueError("bad block")
            return accel

        run = stencils.three_level_steps(v0, velocity, 0.05, 0.1, 3,
                                         terms=terms)
        if end in ("closed", "dropped"):
            next(run)
            if end == "closed":
                run.close()
            else:
                del run
        elif end == "exhausted":
            assert len(list(run)) == 3
        else:
            with pytest.raises(BlowupError if end == "blowup" else ValueError):
                list(run)
        assert len(forks) == 2
        self._no_worker_left()

    @pytest.mark.parametrize("experiment", ["E1", "E3", "E5", "E6", "E7"])
    def test_experiments_at_n3_step_in_forked_workers(self, experiment,
                                                      fork_pids, monkeypatch):
        # their largest windows (E6's in part (b)) pass FORK_POINTS, and
        # every caller of the kernel hands it arrays of window_zeros
        monkeypatch.setattr(stencils, "_WORKERS", 2)
        levels = {"levels": 4} if experiment == "E1" else {}
        run_experiment(default_config(experiment, n=3, **levels))
        assert fork_pids
        self._no_worker_left()

