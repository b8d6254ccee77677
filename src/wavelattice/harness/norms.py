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
from ..lattice import window_indices
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


def _time_level(spec, t: float) -> int:
    p = t / spec.dt
    rounded = int(round(p))
    if abs(p - rounded) > 1e-9 * max(1.0, abs(p)):
        raise NoCommonPointsError(
            f"time {t} is not a lattice time for dt = {spec.dt}"
        )
    return rounded


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
    MissingNeighborError.
    """
    other_field = other if isinstance(other, GridField) else None
    coarse = base_spec if base_spec is not None else field.spec
    if other_field is not None and other_field.spec.dx > coarse.dx:
        coarse = other_field.spec
    if field.spec.dx > coarse.dx:
        coarse = field.spec

    n = coarse.n
    sp_a = _space_ratio(coarse.dx, field.spec.dx)
    sp_b = _space_ratio(coarse.dx, other_field.spec.dx) if other_field else 1

    if times is None:
        times = []
        for p in sorted(field.levels):
            t = p * field.spec.dt
            if other_field is not None:
                q = t / other_field.spec.dt
                if abs(q - round(q)) > 1e-9 or round(q) not in other_field.levels:
                    continue
            times.append(t)
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
        vals_a = field.level_array(_time_level(field.spec, t))[at_a]
        if other_field is not None:
            vals_b = other_field.level_array(_time_level(other_field.spec, t))[at_b]
        else:
            vals_b = np.asarray(other(points, t), dtype=float).ravel()
        diffs.append(vals_a - vals_b)
    return scaled_norms(np.concatenate(diffs), coarse.dx, n, coarse.dt)


def _space_ratio(coarse_dx: float, fine_dx: float) -> int:
    ratio = coarse_dx / fine_dx
    rounded = int(round(ratio))
    if rounded < 1 or abs(ratio - rounded) > 1e-9 * ratio:
        raise NoCommonPointsError(f"grids {coarse_dx} and {fine_dx} do not nest")
    return rounded
