"""Explicit three-level solver for the discrete wave problems.

The update rearranges the discrete d'Alembertian to
v(x, t +/- dt) = 2 v(x, t) - v(x, t -/+ dt) + dt^2 (Lap_dx v + w), with the
first levels bootstrapped from the centered velocity condition combined
with the scheme equation at t = 0.  Time runs both ways, covering
[-T, T].  Full-space problems are solved on a window padded by the number
of steps, so the finite domain of dependence keeps the window exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .lattice import Domain, LatticeSpec, classify
from .spectral import DataFunction, Forcing, sample
from .stencils import (
    GridField,
    clamp_level,
    field_from_classification,
    laplacian_array,
    lattice_points,
    leapfrog_first_level,
    three_level_steps,
    window_clamp,
)


@dataclass
class DiscreteProblem:
    """One fully discrete wave problem: lattice, domain, data, forcing.

    `f` and `g` may be catalog functions, plain callables, or pre-sampled
    arrays matching the solver window (the splitting pipeline hands over
    gridded data).  The leapfrog core requires unit velocity and zero
    flexibility; variable coefficients are routed through the elliptic
    splitting instead.
    """

    spec: LatticeSpec
    domain: Domain
    f: Union[DataFunction, Callable, np.ndarray, None] = None
    g: Union[DataFunction, Callable, np.ndarray, None] = None
    boundary_value: Union[float, Callable] = 0.0
    forcing: Optional[Forcing] = None
    a: Optional[Callable] = None
    sigma: Optional[Callable] = None
    classification: Optional[object] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.spec.admissible():
            raise ValueError("DiscreteProblem needs an admissible lattice")
        if self.a is not None or self.sigma is not None:
            raise ValueError(
                "variable coefficients are not solvable by the leapfrog core; "
                "use the elliptic splitting pipeline"
            )
        if self.classification is None:
            self.classification = classify(self.domain, self.spec)


def required_padding(spec: LatticeSpec, steps: Optional[int] = None) -> int:
    """Window padding that keeps full-space runs exact for `steps` steps."""
    return (steps if steps is not None else spec.steps) + 2


def _bootstrap(problem: DiscreteProblem, pad: int):
    """Levels -1, 0, 1 on a fresh window, plus the clamp and forcing term
    that the stepping kernel needs for the rest of the run."""
    fieldobj = field_from_classification(problem.classification, pad=pad)
    points = lattice_points(fieldobj)
    bvals = problem.boundary_value
    if callable(bvals):
        bvals = sample(bvals, points)
    clamp = window_clamp(fieldobj, bvals)
    terms = None
    if problem.forcing is not None:
        flat = points.reshape(-1, points.shape[-1])

        def terms(accel, values, t):
            return accel + problem.forcing.func(flat, t).reshape(fieldobj.shape)
    dt = problem.spec.dt

    v0 = clamp_level(sample(problem.f, points), clamp)
    gv = sample(problem.g, points)
    accel = laplacian_array(v0, problem.spec.dx)
    if terms is not None:
        accel = terms(accel, v0, 0.0)

    for sign, level in ((1.0, 1), (-1.0, -1)):
        fieldobj.levels[level] = clamp_level(
            leapfrog_first_level(v0, sign * gv, accel, dt), clamp
        )
    fieldobj.levels[0] = v0
    return fieldobj, clamp, terms


def bootstrap(problem: DiscreteProblem, pad: Optional[int] = None) -> GridField:
    """Levels t = -dt, 0, +dt satisfying both initial conditions.

    Level 0 samples f; the two neighbours come from combining the centered
    velocity condition with the scheme equation at t = 0, which gives
    v(x, +/-dt) = f +/- dt g + (dt^2/2)(Lap_dx f + w(x, 0)).  Boundary
    points hold the boundary value at all three levels.
    """
    if pad is None:
        pad = required_padding(problem.spec) if not problem.domain.bounded else 0
    return _bootstrap(problem, pad)[0]


def solve(problem: DiscreteProblem,
          t_range: Optional[tuple] = None) -> GridField:
    """Run the scheme over t_range (default the full two-sided horizon).

    The scheme runs forward from level 0 to the upper end of t_range and
    backward to the lower end.  The returned field keeps levels -1, 0 and
    1, both ends of t_range and the last three levels of each run, as far
    as they lie in t_range.  Raises BlowupError past the 1e12 threshold.
    """
    spec = problem.spec
    if t_range is None:
        t_range = (-spec.T, spec.T)
    lo = round(t_range[0] / spec.dt)
    hi = round(t_range[1] / spec.dt)
    if abs(lo * spec.dt - t_range[0]) > 1e-9 or abs(hi * spec.dt - t_range[1]) > 1e-9:
        raise ValueError("t_range endpoints must be lattice times")
    steps_needed = max(hi, -lo, 1)
    pad = required_padding(spec, steps_needed) if not problem.domain.bounded else 0
    fieldobj, clamp, terms = _bootstrap(problem, pad)
    levels = fieldobj.levels
    for sign, end in ((1, hi), (-1, lo)):
        run = three_level_steps(levels[0], levels[sign], sign * spec.dt, spec.dx,
                                sign * end, terms=terms, clamp=clamp)
        for level, values in zip(range(2 * sign, end + sign, sign), run):
            if lo <= level <= hi and (abs(end - level) <= 2 or level in (lo, hi)):
                levels[level] = values
    for level in (-1, 0, 1):
        if not lo <= level <= hi:
            del levels[level]
    return fieldobj
