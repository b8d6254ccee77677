"""Leapfrog solver: bootstrap exactness, kept levels, guards."""

import math

import numpy as np
import pytest

from wavelattice import (
    BlowupError,
    DataFunction,
    DiscreteProblem,
    Domain,
    LatticeSpec,
    separable_forcing,
    solve,
)
from wavelattice import stencils
from wavelattice.leapfrog import required_padding
from wavelattice.stencils import (
    crop_centre,
    field_from_classification,
    laplacian_array,
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
        spec = LatticeSpec(1, 0.1, 0.05, 0.4)
        with pytest.raises(ValueError):
            DiscreteProblem(spec=spec, domain=Domain.box([(0.0, 1.0)]),
                            a=lambda x: 1.1)


class TestPadding:
    def test_required_padding_covers_dependence_cone(self):
        spec = LatticeSpec(1, 0.1, 0.05, 0.4)
        assert required_padding(spec, steps=8) >= 8


def _cone_problem(n, **kw):
    spec = LatticeSpec(n, 0.1, 0.05, 0.4)
    return DiscreteProblem(
        spec=spec, domain=Domain.full_space([(-0.5, 0.5)] * n),
        f=DataFunction.gaussian([0.1] * n, 0.2),
        g=DataFunction.gaussian([-0.05] * n, 0.15, amplitude=0.4), **kw,
    )


T_RANGES = [(0.0, 0.4), (-0.4, 0.4), (0.1, 0.4), (-0.4, -0.15)]


class TestWindowOnly:
    """solve(..., window_only=True) steps the dependence cone of the
    problem's window and returns that window, bit for bit."""

    @staticmethod
    def _assert_cropped_equal(cone, padded):
        assert sorted(cone.levels) == sorted(padded.levels)
        for level, values in cone.levels.items():
            assert values.shape == cone.shape
            assert np.array_equal(
                values, crop_centre(padded.levels[level], cone.shape))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t_range", T_RANGES)
    def test_levels_equal_padded_solve_on_window(self, n, t_range):
        problem = _cone_problem(n)
        self._assert_cropped_equal(
            solve(problem, t_range=t_range, window_only=True),
            solve(problem, t_range=t_range))

    def test_forced_levels_equal_padded_solve_on_window(self):
        space = DataFunction.gaussian([0.0, 0.1], 0.2, amplitude=2.0)
        problem = _cone_problem(2, forcing=separable_forcing(space, math.cos))
        for t_range in T_RANGES:
            self._assert_cropped_equal(
                solve(problem, t_range=t_range, window_only=True),
                solve(problem, t_range=t_range))

    def test_returns_the_problem_window(self):
        problem = _cone_problem(2)
        fld = solve(problem, t_range=(0.0, 0.4), window_only=True)
        expected = field_from_classification(problem.classification)
        assert fld.origin == expected.origin
        assert fld.shape == expected.shape
        assert np.array_equal(fld.interior, expected.interior)
        assert np.array_equal(fld.boundary, expected.boundary)

    def test_each_step_is_one_ring_smaller(self, monkeypatch):
        shapes = []
        real = stencils.laplacian_array

        def recording(values, dx):
            shapes.append(values.shape)
            return real(values, dx)

        monkeypatch.setattr(stencils, "laplacian_array", recording)
        problem = _cone_problem(2)
        solve(problem, t_range=(0.0, 0.4), window_only=True)
        window = problem.classification.shape
        steps = problem.spec.steps
        assert shapes == [
            tuple(w + 2 * rings for w in window)
            for rings in range(steps - 1, 0, -1)
        ]

    def test_bounded_domain_unchanged(self):
        spec = LatticeSpec(2, 0.1, 0.05, 0.4)
        problem = DiscreteProblem(
            spec=spec, domain=Domain.box([(0.0, 1.0)] * 2),
            f=DataFunction.gaussian([0.5, 0.5], 0.1), boundary_value=0.0,
        )
        for t_range in T_RANGES:
            plain = solve(problem, t_range=t_range)
            cone = solve(problem, t_range=t_range, window_only=True)
            assert (cone.origin, cone.shape) == (plain.origin, plain.shape)
            assert np.array_equal(cone.interior, plain.interior)
            assert sorted(cone.levels) == sorted(plain.levels)
            for level, values in plain.levels.items():
                assert np.array_equal(cone.levels[level], values)

    def test_blowup_detected(self):
        problem = _full_space_problem(f=lambda x: 1e13)
        with pytest.raises(BlowupError):
            solve(problem, t_range=(0.0, 0.4), window_only=True)


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
        else:
            domain = Domain.full_space([(-0.5, 0.5)] * n)
            f = DataFunction.smooth_bump([0.0] * n, 0.3)
        g = DataFunction.gaussian([0.05] * n, 0.12, amplitude=0.4)
        problem = DiscreteProblem(spec=spec, domain=domain, f=f, g=g)
        fld = solve(problem, t_range=(0.0, spec.T))
        start = _energy(fld, 0, spec.dx, spec.dt)
        end = _energy(fld, spec.steps - 1, spec.dx, spec.dt)
        assert start > 0.0
        assert abs(end - start) <= 1e-12 * start
