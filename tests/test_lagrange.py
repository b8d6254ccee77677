"""Semidiscrete Lagrange model: accelerations, integrators, reference error."""

import math

import numpy as np
import pytest

from kernel_reference import leapfrog_advance, leapfrog_first_level
from wavelattice import (
    DataFunction,
    DiscreteProblem,
    Domain,
    FrequencyQuadrature,
    LatticeSpec,
    SpentVelocitiesError,
    field_from_classification,
    integrate,
    phi_reference_error,
    set_initial_data,
    solve,
)
from wavelattice.dispersion import beta_semidiscrete
from wavelattice.lagrange import LagrangeSystem, system_for_domain
from wavelattice.spectral import dalembert_forcing
from wavelattice.stencils import (
    crop_centre,
    laplacian_array,
    lattice_points,
)


def rhs(system: LagrangeSystem, t: float, values=None) -> np.ndarray:
    """The reference acceleration a(x) Lap_dx xi - sigma(x) xi + w(x, t) of
    the system's values (or of `values`), from the terms the stepping kernel
    reads.  Boundary neighbours are read from the clamped entries; the
    array is only meaningful on interior points.  The terms read the whole
    window as one block of its plane view (axis-0 planes, points per plane)."""
    xi = np.asarray(system.values if values is None else values)
    accel = laplacian_array(xi, system.dx)
    if system._terms is None:
        return accel
    whole = slice(None), slice(None)
    return system._terms(accel.reshape(len(xi), -1), xi.reshape(len(xi), -1),
                         t, whole).reshape(xi.shape)


def _clamped(system, arr):
    return system.clamp(np.array(arr))


def _check_finite(arr: np.ndarray, t: float) -> None:
    assert np.all(np.isfinite(arr)), f"non-finite state at t = {t:.6g}"


def _rk4(system, t0, steps, h):
    """The classical RK4 reference: the state xi after `steps` steps of h,
    velocities held zero on non-interior points."""
    xi = np.array(system.values)
    vel = np.array(system.velocities)
    interior = system.fieldobj.interior
    for k in range(steps):
        t = t0 + k * h

        def accel(v, tau):
            return rhs(system, tau, v)

        k1x, k1v = vel, accel(xi, t)
        k2x = vel + (h / 2.0) * k1v
        k2v = accel(_clamped(system, xi + (h / 2.0) * k1x), t + h / 2.0)
        k3x = vel + (h / 2.0) * k2v
        k3v = accel(_clamped(system, xi + (h / 2.0) * k2x), t + h / 2.0)
        k4x = vel + h * k3v
        k4v = accel(_clamped(system, xi + h * k3x), t + h)
        xi = _clamped(system, xi + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x))
        vel = vel + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        vel[~interior] = 0.0
        _check_finite(xi, t + h)
    return xi


def _free_system(dx=0.25, half_width=2.0, **kw):
    window = Domain.full_space([(-half_width, half_width)])
    return system_for_domain(window, dx, **kw)


class TestRhs:
    def test_cosine_eigenvector(self):
        # Lap_dx cos(a x) = -beta_0(a, dx)^2 cos(a x) on interior points
        dx, a = 0.25, 2.0
        system = _free_system(dx=dx)
        pts = lattice_points(system.fieldobj)[..., 0]
        system.values = np.cos(a * pts)
        accel = rhs(system, 0.0)
        expected = -beta_semidiscrete(np.array([a]), dx) ** 2 * system.values
        # skip the window edges, whose stencils reach outside the array
        assert np.allclose(accel[1:-1], expected[1:-1], atol=1e-12)

    def test_sigma_shift_default_sign(self):
        # accel = Lap - sigma * values
        dx, c = 0.25, 0.3
        plain = _free_system(dx=dx)
        shifted = _free_system(dx=dx, sigma=lambda x: c)
        vals = np.sin(lattice_points(plain.fieldobj)[..., 0])
        plain.values = vals.copy()
        shifted.values = vals.copy()
        diff = rhs(shifted, 0.0) - rhs(plain, 0.0)
        interior = plain.fieldobj.interior
        assert np.allclose(diff[interior], -c * vals[interior], atol=1e-13)


class TestIntegrate:
    def test_zero_data_stays_zero(self):
        system = _free_system()
        out = integrate(system, 0.0, 1.0, 0.05)
        assert np.all(out[1.0] == 0.0)

    def test_step_must_divide_span(self):
        system = _free_system()
        with pytest.raises(ValueError):
            integrate(system, 0.0, 1.0, 0.3)

    def test_record_times_on_grid(self):
        system = _free_system()
        out = integrate(system, 0.0, 1.0, 0.25, record_times=[0.5, 1.0])
        assert set(out) == {0.5, 1.0}
        with pytest.raises(ValueError):
            integrate(system, 0.0, 1.0, 0.25, record_times=[0.3])

    def test_velocities_are_stepped_over_not_copied(self):
        # the kernel writes level 1 over the system's velocities, so a second
        # run from them would pair the values at t1 with the velocities at t0
        system = _free_system(dx=0.1)
        set_initial_data(system, DataFunction.gaussian([0.0], 0.3),
                         DataFunction.gaussian([0.1], 0.25, amplitude=0.5))
        velocities = system.velocities
        integrate(system, 0.0, 0.05, 0.05)
        assert system.values is velocities and system.velocities is None
        with pytest.raises(SpentVelocitiesError):
            integrate(system, 0.05, 0.1, 0.05)
        assert issubclass(SpentVelocitiesError, ValueError)
        set_initial_data(system, 0.0, 1.0)
        assert set(integrate(system, 0.0, 0.1, 0.05)) == {0.1}

    def test_rk4_close_to_verlet(self):
        f = DataFunction.gaussian([0.0], 0.3)
        g = DataFunction.gaussian([0.1], 0.25, amplitude=0.5)
        h = 0.005
        sys_v = _free_system(dx=0.1)
        set_initial_data(sys_v, f, g)
        out_v = integrate(sys_v, 0.0, 0.5, h)
        sys_r = _free_system(dx=0.1)
        set_initial_data(sys_r, f, g)
        out_r = _rk4(sys_r, 0.0, round(0.5 / h), h)
        assert np.max(np.abs(out_v[0.5] - out_r)) < 5e-5

    @pytest.mark.parametrize("n, shape", [(1, "box"), (2, "box"), (2, "ball")])
    def test_verlet_is_leapfrog_when_clamped(self, n, shape):
        # at h = dt Verlet reproduces the scheme bit for bit, clamp included;
        # a ball puts boundary and outside points inside the window
        spec = LatticeSpec(n, 0.1, 0.05, 0.5)
        if shape == "box":
            domain = Domain.box([(0.0, 1.0)] * n)
        else:
            domain = Domain.ball([0.5] * n, 0.43)
        f = DataFunction.gaussian([0.4] * n, 0.1)
        g = DataFunction.gaussian([0.5] * n, 0.15, amplitude=0.3)
        problem = DiscreteProblem(spec=spec, domain=domain, f=f, g=g,
                                  boundary_value=0.2)
        leap = solve(problem, t_range=(0.0, spec.T))
        system = LagrangeSystem(
            dx=spec.dx, boundary_value=0.2,
            fieldobj=field_from_classification(problem.classification),
        )
        set_initial_data(system, f, g)
        out = integrate(system, 0.0, spec.T, spec.dt)
        final = leap.level_array(spec.steps)
        assert np.all(final[leap.boundary] == 0.2)
        assert np.array_equal(out[spec.T], final)

    @pytest.mark.parametrize("n, shape", [(1, "box"), (2, "box"), (2, "full_space")])
    def test_forced_verlet_is_forced_leapfrog(self, n, shape):
        # the forcing enters both at the same times on the same points
        spec = LatticeSpec(n, 0.1, 0.05, 0.5)
        if shape == "box":
            domain, pad = Domain.box([(0.0, 1.0)] * n), 0
        else:
            # [0, 1] grown by steps + 2 rings: the solve returns 35^2 points
            reach = round((spec.steps + 2) * spec.dx, 12)
            domain = Domain.full_space([(-reach, 1.0 + reach)] * n)
            pad = spec.steps + 2
        space = DataFunction.gaussian([0.4] * n, 0.15)
        forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
        problem = DiscreteProblem(spec=spec, domain=domain, f=space, forcing=forcing)
        leap = solve(problem, t_range=(0.0, spec.T))
        assert leap.shape == ((11,) if shape == "box" else (35,)) * n
        system = LagrangeSystem(
            dx=spec.dx, forcing=forcing,
            fieldobj=field_from_classification(problem.classification, pad=pad),
        )
        set_initial_data(system, space, None)
        out = integrate(system, 0.0, spec.T, spec.dt)
        # on full space, solve returns the window that Verlet's padding keeps exact
        assert np.array_equal(crop_centre(out[spec.T], leap.shape),
                              leap.level_array(spec.steps))

    def test_gridded_data_must_match_window(self):
        # the same ValueError as the leapfrog solver, not an IndexError
        spec = LatticeSpec(2, 0.1, 0.05, 0.2)
        problem = DiscreteProblem(spec=spec, domain=Domain.box([(0.0, 1.0)] * 2),
                                  f=np.zeros((3, 3)))
        system = LagrangeSystem(
            dx=spec.dx, fieldobj=field_from_classification(problem.classification),
        )
        with pytest.raises(ValueError, match="does not match"):
            set_initial_data(system, problem.f, None)
        with pytest.raises(ValueError, match="does not match"):
            set_initial_data(system, None, problem.f)
        with pytest.raises(ValueError, match="does not match"):
            solve(problem)


class TestReferenceError:
    def test_second_order_decay(self):
        f = DataFunction.gaussian([0.0], 0.3)
        quad = FrequencyQuadrature.for_data(f, T=0.5)
        rows = phi_reference_error(
            f, None, 0.1, [[0.0], [0.2]], 0.5,
            [0.05, 0.025, 0.0125], quad,
        )
        errs = [e for _, e in rows]
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_off_lattice_probe_raises(self):
        # x = 0.05 lies between lattice points: no Verlet value there to
        # compare with the closed form at x = 0.05
        f = DataFunction.gaussian([0.0], 0.3)
        quad = FrequencyQuadrature.for_data(f, T=0.4)
        with pytest.raises(ValueError, match="not on the lattice"):
            phi_reference_error(f, None, 0.1, [[0.05]], 0.4, [0.05], quad)
        (_, on_lattice), = phi_reference_error(f, None, 0.1, [[0.0]], 0.4,
                                               [0.05], quad)
        assert on_lattice < 2e-3


class TestRecordedLevels:
    """The stepping kernel reuses its buffers; Verlet copies what it keeps."""

    @pytest.mark.parametrize("shape", ["box", "ball"])
    def test_every_recorded_level_equals_plain_loop(self, shape):
        spec = LatticeSpec(2, 0.1, 0.05, 0.5)
        domain = (Domain.box([(0.0, 1.0)] * 2) if shape == "box"
                  else Domain.ball([0.5, 0.5], 0.43))
        bump = DataFunction.smooth_bump([0.5, 0.5], 0.4, amplitude=0.1)
        system = system_for_domain(domain, spec.dx, a=lambda x: 1.0 + 0.1 * x[0],
                                   sigma=bump, boundary_value=0.2)
        set_initial_data(system, DataFunction.gaussian([0.4, 0.5], 0.1),
                         DataFunction.gaussian([0.5, 0.5], 0.15, amplitude=0.3))
        h, steps = spec.dt, spec.steps
        # the plain loop: one fresh array per level
        prev = np.array(system.values)
        cur = system.clamp(leapfrog_first_level(
            prev, system.velocities, rhs(system, 0.0, prev), h))
        expected = [prev, cur]
        for k in range(1, steps):
            new = system.clamp(leapfrog_advance(
                cur, prev, rhs(system, k * h, cur), h))
            expected.append(new)
            prev, cur = cur, new
        out = integrate(system, 0.0, spec.T, h,
                        record_times=[k * h for k in range(steps + 1)])
        assert len(out) == steps + 1
        for k, values in enumerate(out.values()):
            assert np.array_equal(values, expected[k]), k
        assert np.array_equal(system.values, expected[-1])
