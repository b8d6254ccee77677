"""Error norms of a lattice run against reference values.

A run is compared at one time t on the points of a comparison lattice
inside a window: the lattice of the base spec of the family (or of the
run itself), so every level of a refinement family is measured on the
same points.  The reference values are given on those points, in C order
of window_indices.  The reported norms are the supremum norm and the
scaled little-l2 norm

    ||e||_{l2} = sqrt( sum |e|^2 * dx^n * dt )

so that the l2 value approximates a continuum L2 norm and is stable under
refinement.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import NoCommonPointsError
from ..lattice import step_index, window_indices
from ..stencils import GridField

__all__ = ["scaled_norms", "compare_on_common_lattice"]


def scaled_norms(diff: np.ndarray, dx: float, n: int, dt: float) -> tuple[float, float]:
    """Return (sup, scaled l2) of a flat array of pointwise errors."""
    diff = np.asarray(diff, dtype=float).ravel()
    if diff.size == 0:
        raise NoCommonPointsError("no common points: empty error sample")
    sup = float(np.max(np.abs(diff)))
    l2 = float(math.sqrt(float(np.sum(diff * diff)) * dx**n * dt))
    return sup, l2


def compare_on_common_lattice(
    field: GridField,
    reference: np.ndarray,
    window: Sequence[tuple[float, float]],
    t: float,
    base_spec=None,
) -> tuple[float, float]:
    """(sup, scaled l2) of ``field`` at time ``t`` minus ``reference``.

    ``reference`` holds one value per point of
    ``window_indices(window, dx) * dx``, in that C order, where dx is the
    spacing of ``base_spec`` when given and of the field otherwise; the l2
    norm is scaled by dx^n dt of that lattice.  A reference of another
    shape raises ValueError, and so do a ``t`` off the field's time lattice
    and a field spacing that does not divide dx (the rule of step_index).
    A point the field does not hold raises MissingNeighborError, and an
    empty window NoCommonPointsError.
    """
    coarse = base_spec if base_spec is not None else field.spec
    indices = window_indices(window, coarse.dx)
    reference = np.asarray(reference, dtype=float)
    if reference.shape != (len(indices),):
        raise ValueError(f"reference of shape {reference.shape} for the "
                         f"{len(indices)} points of the comparison window")
    at = field.positions(indices * step_index(coarse.dx, field.spec.dx))
    values = field.level_array(step_index(t, field.spec.dt))[at]
    return scaled_norms(values - reference, coarse.dx, coarse.n, coarse.dt)
