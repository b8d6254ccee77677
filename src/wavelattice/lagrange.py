"""Semidiscrete Lagrange model: one oscillator per interior lattice point.

Discretizing space only turns the wave problem into the second-order ODE
system xi''(x) = a(x) Lap_dx xi(x) - sigma(x) xi(x) + w(x, t) with the
boundary clamped.  The Stormer-Verlet integrator in its three-level
position form is the leapfrog scheme at step h: it hands the values and
velocities to the stepping kernel of the leapfrog solver, which forms the
first level and steps the rest, so at h = dt (with unit velocity and zero
flexibility) it reproduces the scheme bit-identically and raises
BlowupError through the same guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import SpentVelocitiesError
from .lattice import Domain, LatticeSpec, classify, point_indices, step_index
from .spectral import Forcing, FrequencyQuadrature, homogeneous_solution
from .stencils import (
    GridField,
    clamp_level,
    field_from_classification,
    sample_forcing,
    sample_window,
    three_level_steps,
    window_clamp,
    window_terms,
)


@dataclass
class LagrangeSystem:
    """State and samplers of the clamped oscillator system, with a, sigma
    and each space of the forcing sampled once, when it is built.

    `values`/`velocities` live on the same rectangular window as a
    GridField; boundary entries are clamped to `boundary_value` and the
    velocity there is zero.  sigma(x) enters as in the wave equation with
    +sigma(x)u on the left-hand side.
    """

    dx: float
    fieldobj: GridField
    a: Optional[Callable] = None
    sigma: Optional[Callable] = None
    forcing: Optional[Forcing] = None
    boundary_value: Union[float, Callable] = 0.0
    values: np.ndarray = field(default=None, repr=False)
    velocities: np.ndarray = field(default=None, repr=False)
    _terms: Optional[Callable] = field(default=None, repr=False)
    _clamp: tuple = field(default=None, repr=False)

    def __post_init__(self):
        a, sigma = (None if c is None else sample_window(c, self.fieldobj)
                    for c in (self.a, self.sigma))
        forcing = sample_forcing(self.forcing, self.fieldobj)
        self._terms = window_terms(a, sigma, forcing)
        if self.values is None:
            self.values = sample_window(None, self.fieldobj)
        if self.velocities is None:
            self.velocities = sample_window(None, self.fieldobj)
        self._clamp = window_clamp(self.fieldobj, self.boundary_value)

    def clamp(self, arr: np.ndarray) -> np.ndarray:
        return clamp_level(arr, self._clamp)


def system_for_domain(domain: Domain, dx: float, *, a=None, sigma=None,
                      forcing=None, boundary_value=0.0) -> LagrangeSystem:
    """Build a clamped system on the lattice classification of a domain."""
    spec = LatticeSpec(domain.n, dx, dx / (2.0 * np.sqrt(domain.n)), 1.0)
    fieldobj = field_from_classification(classify(domain, spec))
    return LagrangeSystem(
        dx=dx, fieldobj=fieldobj, a=a, sigma=sigma, forcing=forcing,
        boundary_value=boundary_value,
    )


def set_initial_data(system: LagrangeSystem, f, g) -> None:
    """Sample initial displacement and velocity onto the window.

    Gridded `f`/`g` must match the window's shape (ValueError otherwise).
    """
    system.values = system.clamp(sample_window(f, system.fieldobj))
    system.velocities = sample_window(g, system.fieldobj)
    system.velocities[~system.fieldobj.interior] = 0.0


def integrate(system: LagrangeSystem, t0: float, t1: float, h_ode: float,
              record_times: Optional[list] = None) -> dict:
    """Fixed-step trajectory of the clamped system from t0 to t1.

    Returns {time: value array} at the recorded times (default: t1 only).
    Stormer-Verlet runs in the three-level position form on the stepping
    kernel of the leapfrog solver, which starts from the system's values and
    velocities.  The steps must land on t1 and on every record time exactly
    (ValueError otherwise, by the lattice rule of step_index).  The system's
    values end as the level at t1, in an array the kernel stepped over; the
    kernel steps over the velocities too, so the system holds none after
    the call, and integrating it again before set_initial_data raises
    SpentVelocitiesError.
    """
    if h_ode <= 0:
        raise ValueError("h_ode must be positive")
    steps = step_index(t1 - t0, h_ode)
    if steps < 1:
        raise ValueError("integrate runs forward: need t1 > t0")
    wanted = {step_index(t - t0, h_ode) for t in record_times or ()}
    if system.velocities is None:
        raise SpentVelocitiesError(
            "integrate stepped over the system's velocities: set_initial_data "
            "gives it new ones")
    out = {0: system.values.copy()} if 0 in wanted else {}
    # the kernel writes level 1 over the velocities and level 2 over the values
    run = three_level_steps(system.values, system.velocities, h_ode,
                            system.dx, steps, t0=t0,
                            terms=system._terms, clamp=system._clamp)
    system.velocities = None
    for k, (level, _) in enumerate(run, start=1):
        if k in wanted or k == steps:
            out[k] = level.copy()
    system.values = level
    return {t0 + k * h_ode: arr for k, arr in out.items()}


def phi_reference_error(f, g, dx: float, probes, t: float, h_ode_seq,
                        quad: FrequencyQuadrature) -> list:
    """Max error of Verlet trajectories against the semidiscrete closed form.

    Free-space configuration: the system lives on a window padded past the
    causal range of the probes, so the closed form applies.  The probes
    must be lattice points of step dx (ValueError otherwise).  Returns one
    (h_ode, max_error) row per step size; errors decrease at the
    integrator's order until the quadrature floor.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    reach = abs(t) + 4.0  # past the causal range of the probes
    lo = probes.min(axis=0) - reach
    hi = probes.max(axis=0) + reach
    window = Domain.full_space(list(zip(lo, hi)))
    indices = point_indices(probes, dx)
    reference = homogeneous_solution(f, g, probes, t, dx=dx, quad=quad)
    rows = []
    for h in h_ode_seq:
        system = system_for_domain(window, dx)
        set_initial_data(system, f, g)
        integrate(system, 0.0, t, h)
        vals = system.values[system.fieldobj.positions(indices)]
        rows.append((h, float(np.max(np.abs(vals - reference)))))
    return rows
