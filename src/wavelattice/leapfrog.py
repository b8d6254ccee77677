"""Explicit three-level solver for the discrete wave problems.

The update rearranges the discrete d'Alembertian to
v(x, t +/- dt) = 2 v(x, t) - v(x, t -/+ dt) + dt^2 (Lap_dx v + w), and the
stepping kernel forms the first level from the centered velocity condition
combined with the scheme equation at t = 0.  Time runs both ways, covering
[-T, T].  A full-space problem is stepped on its dependence cone (Courant,
Friedrichs and Lewy): after k steps a lattice value depends only on data
within k rings of it, so each level is stepped on one ring fewer than the
one before, down to the problem's window, and every value `solve` returns
is the scheme's on all of Z^n.  The scheme has unit velocity and no
flexibility term, so a problem takes no a(x) or sigma(x): variable
coefficients, and the split phi of `elliptic.split_pipeline`, go through
`lagrange.LagrangeSystem`, whose Verlet integrator at h = dt is this scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .lattice import Domain, LatticeSpec, classify, step_index
from .spectral import DataFunction, Forcing
from .stencils import (
    GridField,
    clamp_level,
    crop_centre,
    field_from_classification,
    sample_forcing,
    sample_window,
    three_level_steps,
    window_clamp,
    window_terms,
)


@dataclass
class DiscreteProblem:
    """One fully discrete wave problem: lattice, domain, data, forcing.

    `f` and `g` may be catalog functions, plain callables, or pre-sampled
    arrays matching the solver window.
    """

    spec: LatticeSpec
    domain: Domain
    f: Union[DataFunction, Callable, np.ndarray, None] = None
    g: Union[DataFunction, Callable, np.ndarray, None] = None
    boundary_value: Union[float, Callable] = 0.0
    forcing: Optional[Forcing] = None
    classification: Optional[object] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.spec.admissible():
            raise ValueError("DiscreteProblem needs an admissible lattice")
        if self.classification is None:
            self.classification = classify(self.domain, self.spec)


def solve(problem: DiscreteProblem, t_range: Optional[tuple] = None) -> GridField:
    """Run the scheme over t_range (default the full two-sided horizon).

    The scheme runs forward from level 0 to the upper end of t_range and
    backward to the lower end.  The returned field lies on the problem's
    window, field_from_classification(problem.classification), and keeps
    levels -1, 0 and 1, both ends of t_range and the last three levels of
    each run, as far as they lie in t_range.  Every value it holds is a
    value of the scheme.  Raises BlowupError past the 1e12 threshold, and
    ValueError for a t_range endpoint off the time lattice.

    f, g and each space of the forcing are sampled once, in the calling
    process, on the window grown by the longer run's steps (full space) or
    on the domain's window, f clamped at the boundary (bounded).  Each run
    starts in the stepping kernel from those arrays of level 0 and g (the
    first of two runs from copies, by sample_window), and
    on full space level p of the run is stepped only on the window grown by
    steps - |p| rings: the points that can still reach the window by the
    run's end.
    """
    spec = problem.spec
    if t_range is None:
        t_range = (-spec.T, spec.T)
    if t_range[0] > t_range[1]:
        raise ValueError(f"t_range {t_range!r} is reversed")
    lo, hi = (step_index(t, spec.dt) for t in t_range)
    full_space = not problem.domain.bounded
    pad = max(hi, -lo) if full_space else 0
    fieldobj = field_from_classification(problem.classification, pad=pad)
    forcing = sample_forcing(problem.forcing, fieldobj)  # first: fewest arrays held
    clamp = window_clamp(fieldobj, problem.boundary_value)
    v0 = clamp_level(sample_window(problem.f, fieldobj), clamp)
    gv = sample_window(problem.g, fieldobj)
    window = problem.classification.shape
    levels = {}

    def keep(level, values):
        """Store a copy of a kept level on the window: the stepping kernel
        writes over the arrays it yields."""
        if lo <= level <= hi:
            levels[level] = crop_centre(values, window).copy()

    keep(0, v0)
    runs = [(sign, end) for sign, end in ((1, hi), (-1, lo)) if sign * end >= 1]
    terms = window_terms(forcing=forcing)
    for i, (sign, end) in enumerate(runs):
        seeds = (v0, gv)
        if i < len(runs) - 1:  # the kernel writes over its seeds
            seeds = (sample_window(a, fieldobj) for a in seeds)
        run = three_level_steps(*seeds, sign * spec.dt, spec.dx, sign * end,
                                terms=terms, clamp=clamp,
                                shrink=window if full_space else None)
        for level, (values, _) in zip(range(sign, end + sign, sign), run):
            if abs(end - level) <= 2 or level in (sign, lo, hi):
                keep(level, values)
    if full_space:
        fieldobj = field_from_classification(problem.classification)
    fieldobj.levels = levels
    return fieldobj
