"""Explicit three-level solver for the discrete wave problems.

The update rearranges the discrete d'Alembertian to
v(x, t +/- dt) = 2 v(x, t) - v(x, t -/+ dt) + dt^2 (Lap_dx v + w), with the
first levels bootstrapped from the centered velocity condition combined
with the scheme equation at t = 0.  Time runs both ways, covering
[-T, T].  Full-space problems are solved on a window padded by the number
of steps, so the finite domain of dependence keeps the window exact.  A
caller that reads only the problem's window asks `solve` for it with
`window_only`: each level is then stepped only on the points that can
still reach that window (one ring fewer per level, the dependence cone of
Courant, Friedrichs and Lewy), with the same values bit for bit.
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
    crop_centre,
    field_from_classification,
    grid_points,
    laplacian_array,
    lattice_points,
    leapfrog_first_level,
    row_blocks,
    three_level_steps,
    window_axes,
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
    """Window padding that keeps full-space runs exact for `steps` steps.

    laplacian_array leaves the outermost ring of a window at zero, so level
    p of a run on the padded window is exact on the points at least |p|
    rings in from its edge: with this padding, every level up to `steps`
    is exact on the unpadded window grown by two rings.
    """
    return (steps if steps is not None else spec.steps) + 2


def _sample_blocks(data, fieldobj: GridField) -> np.ndarray:
    """sample(data, lattice_points(fieldobj)), one block of axis-0 rows of
    the window at a time, so no (m, n) array of the whole window exists.
    Gridded data must already have the window's shape and is copied."""
    values = np.empty(fieldobj.shape)
    if isinstance(data, np.ndarray):
        if data.shape != values.shape:
            raise ValueError(
                f"gridded data of shape {data.shape} does not match the "
                f"lattice window {values.shape}"
            )
        values[...] = data
        return values
    axes = window_axes(fieldobj)
    for rows in row_blocks(values.shape):
        values[rows] = sample(data, grid_points([axes[0][rows], *axes[1:]]))
    return values


def _bootstrap(problem: DiscreteProblem, pad: int, signs=(-1, 1)):
    """Level 0 and the first levels `signs` on a fresh window, plus the clamp
    and forcing term that the stepping kernel needs for the rest of the run.

    Returns (field, v0, {sign: level}, clamp, terms); the field's levels are
    left empty.
    """
    fieldobj = field_from_classification(problem.classification, pad=pad)
    points = None
    if problem.forcing is not None or callable(problem.boundary_value):
        points = lattice_points(fieldobj)
    bvals = problem.boundary_value
    if callable(bvals):
        bvals = sample(bvals, points)
    clamp = window_clamp(fieldobj, bvals)
    terms = None
    if problem.forcing is not None:
        def terms(accel, values, t):
            at = crop_centre(points, accel.shape + points.shape[-1:])
            flat = at.reshape(-1, at.shape[-1])
            return accel + problem.forcing.func(flat, t).reshape(accel.shape)
    dt = problem.spec.dt

    v0 = clamp_level(_sample_blocks(problem.f, fieldobj), clamp)
    gv = _sample_blocks(problem.g, fieldobj)
    accel = laplacian_array(v0, problem.spec.dx)
    if terms is not None:
        accel = terms(accel, v0, 0.0)

    # the last first level is formed in place of the sampled velocity
    first = {}
    for sign in signs:
        out = gv if sign == signs[-1] else None
        first[sign] = clamp_level(
            leapfrog_first_level(v0, gv, accel, sign * dt, out=out), clamp
        )
    return fieldobj, v0, first, clamp, terms


def bootstrap(problem: DiscreteProblem, pad: Optional[int] = None) -> GridField:
    """Levels t = -dt, 0, +dt satisfying both initial conditions.

    Level 0 samples f; the two neighbours come from combining the centered
    velocity condition with the scheme equation at t = 0, which gives
    v(x, +/-dt) = f +/- dt g + (dt^2/2)(Lap_dx f + w(x, 0)).  Boundary
    points hold the boundary value at all three levels.
    """
    if pad is None:
        pad = required_padding(problem.spec) if not problem.domain.bounded else 0
    fieldobj, v0, first, _, _ = _bootstrap(problem, pad)
    fieldobj.levels = {0: v0, **first}
    return fieldobj


def solve(problem: DiscreteProblem, t_range: Optional[tuple] = None, *,
          window_only: bool = False) -> GridField:
    """Run the scheme over t_range (default the full two-sided horizon).

    The scheme runs forward from level 0 to the upper end of t_range and
    backward to the lower end.  The returned field keeps levels -1, 0 and
    1, both ends of t_range and the last three levels of each run, as far
    as they lie in t_range.  Raises BlowupError past the 1e12 threshold.

    A full-space problem is stepped on its window padded by
    required_padding(spec, steps), where steps is the longer run, and the
    padded window is returned: level p is exact on the problem's window
    grown by steps + 2 - |p| rings, the rest of the padding is not.  With
    `window_only` (the caller reads the problem's window and nothing
    else), each level p of a run of `steps` is stepped only on the window
    grown by steps - |p| rings, the points that can still reach the window
    at the run's end, and the field is returned on the problem's window
    (field_from_classification(problem.classification)); its values are
    the padded run's, bit for bit.  On a bounded domain the field already
    is the problem's window, clamped at the boundary, and `window_only`
    changes nothing.
    """
    spec = problem.spec
    if t_range is None:
        t_range = (-spec.T, spec.T)
    lo = round(t_range[0] / spec.dt)
    hi = round(t_range[1] / spec.dt)
    if abs(lo * spec.dt - t_range[0]) > 1e-9 or abs(hi * spec.dt - t_range[1]) > 1e-9:
        raise ValueError("t_range endpoints must be lattice times")
    steps_needed = max(hi, -lo, 1)
    shrink = window_only and not problem.domain.bounded
    if problem.domain.bounded:
        pad = 0
    elif shrink:  # level 1 is read steps - 1 rings out of the window
        pad = steps_needed
    else:
        pad = required_padding(spec, steps_needed)
    signs = [sign for sign, end in ((-1, lo), (1, hi)) if sign * end >= 1]
    fieldobj, v0, first, clamp, terms = _bootstrap(problem, pad, signs)
    window = problem.classification.shape
    levels = {}

    def keep(level, values):
        """Store a copy of a kept level (of the window under `shrink`): the
        stepping kernel writes over the arrays it yields."""
        if lo <= level <= hi:
            if shrink:
                values = crop_centre(values, window)
            levels[level] = values.copy()

    for level, values in ((0, v0), *first.items()):
        keep(level, values)
    runs = [(sign, end) for sign, end in ((1, hi), (-1, lo)) if sign * end >= 2]
    for i, (sign, end) in enumerate(runs):
        seed = first[sign]
        if shrink:  # level 1 of a run of s steps is read s - 1 rings out
            rings = sign * end - 1
            seed = crop_centre(seed, tuple(w + 2 * rings for w in window))
        prev = v0 if i == len(runs) - 1 else v0.copy()
        run = three_level_steps(prev, seed, sign * spec.dt, spec.dx,
                                sign * end, terms=terms, clamp=clamp,
                                shrink=shrink)
        for level, values in zip(range(2 * sign, end + sign, sign), run):
            if abs(end - level) <= 2 or level in (lo, hi):
                keep(level, values)
    if shrink:
        fieldobj = field_from_classification(problem.classification)
    fieldobj.levels = levels
    return fieldobj
