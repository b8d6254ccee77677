"""Error norms on shared lattice points.

Whenever two runs (or a run and a reference) are compared, the comparison
happens on the points of the coarsest lattice involved.  The reported norms
are the supremum norm and the scaled little-l2 norm

    ||e||_{l2} = sqrt( sum |e|^2 * dx^n * dt )

so that the l2 value approximates a continuum L2 norm and is stable under
refinement.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

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


def _stored_at(field: GridField, t: float) -> bool:
    """Whether t is a lattice time of the field with a stored level."""
    try:
        return step_index(t, field.spec.dt) in field.levels
    except ValueError:
        return False


def compare_on_common_lattice(
    field: GridField,
    other: "GridField | Callable[[np.ndarray, float], np.ndarray]",
    window: Sequence[tuple[float, float]],
    times: Iterable[float] | None = None,
    base_spec=None,
) -> tuple[float, float]:
    """Compare ``field`` against another field or an oracle callable.

    The comparison runs over the points of the coarsest lattice involved
    (``base_spec`` may force an even coarser reference lattice) restricted to
    the closed spatial ``window``.  ``times`` selects the comparison times,
    which must lie on every involved time lattice; by default every stored
    time of ``field`` shared with ``other`` is used.  Returns
    ``(sup_error, l2_error)`` with the l2 norm scaled by ``dx^n * dt`` of the
    coarse lattice.  Window points off a bounded field's support are
    skipped; a window point outside a full-space field's window raises
    MissingNeighborError.  A time off a field's time lattice, or spatial
    steps that do not nest, raise ValueError (the rule of step_index).
    """
    other_field = other if isinstance(other, GridField) else None
    coarse = base_spec if base_spec is not None else field.spec
    if other_field is not None and other_field.spec.dx > coarse.dx:
        coarse = other_field.spec
    if field.spec.dx > coarse.dx:
        coarse = field.spec

    n = coarse.n
    sp_a = step_index(coarse.dx, field.spec.dx)
    sp_b = step_index(coarse.dx, other_field.spec.dx) if other_field else 1

    if times is None:
        times = [p * field.spec.dt for p in sorted(field.levels)]
        if other_field is not None:
            times = [t for t in times if _stored_at(other_field, t)]
    times = list(times)

    # Coarse-lattice points of the window common to both fields, in C order
    # of the window: a bounded field skips the points off its support, a
    # full-space field must store them all.
    indices = window_indices(window, coarse.dx)
    for fld, sp in ((field, sp_a), (other_field, sp_b)):
        if fld is not None and not fld.interior.all():
            indices = indices[fld.holds(indices * sp)]
    at_a = field.positions(indices * sp_a)
    if other_field is not None:
        at_b = other_field.positions(indices * sp_b)
    if len(indices) == 0 or not times:
        raise NoCommonPointsError("no common points inside the comparison window")

    diffs = []
    points = indices.astype(float) * coarse.dx
    for t in times:
        vals_a = field.level_array(step_index(t, field.spec.dt))[at_a]
        if other_field is not None:
            vals_b = other_field.level_array(step_index(t, other_field.spec.dt))[at_b]
        else:
            vals_b = np.asarray(other(points, t), dtype=float).ravel()
        diffs.append(vals_a - vals_b)
    return scaled_norms(np.concatenate(diffs), coarse.dx, n, coarse.dt)

