"""Discrete difference operators on grid fields and on callables.

Two evaluation paths exist on purpose: the grid path reads stored time
levels of a `GridField`, while the functional path applies the same
difference quotients to a callable u(x, t).  The functional path is what
the plane-wave oracle tests use, since e^{i(a.x + b.t)} never lives on a
finite grid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, MissingLevelError, MissingNeighborError
from .lattice import LatticeClassification

#: values above this abort a run (deliberately reachable under CFL violation)
BLOWUP_THRESHOLD = 1e12


@dataclass
class GridField(LatticeClassification):
    """Values on lattice points at one or more time levels.

    The window, origin and interior / boundary masks are those of a
    `LatticeClassification`; `levels` maps the integer time index p
    (t = p*dt) to one value array over the window per level.
    """

    levels: dict = field(default_factory=dict)

    def index_of_point(self, x) -> tuple:
        """Multi-index of the lattice point nearest to x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return tuple(int(round(xi / self.spec.dx)) for xi in x)

    def value(self, index, level: int) -> float:
        if level not in self.levels:
            raise MissingLevelError(f"time level {level} is not stored")
        if not self.holds_index(index):
            raise MissingNeighborError(f"lattice index {index} outside support")
        return float(self.levels[level][self.offset(index)])

    def value_at(self, x, level: int) -> float:
        return self.value(self.index_of_point(x), level)

    def level_array(self, level: int) -> np.ndarray:
        if level not in self.levels:
            raise MissingLevelError(f"time level {level} is not stored")
        return self.levels[level]


def field_from_classification(
    classification: LatticeClassification, pad: int = 0
) -> GridField:
    """Allocate an empty GridField on the classification's window.

    `pad` grows the index window on every side and marks the padded points
    as interior; used for full-space runs where validity is guaranteed by
    the finite domain of dependence.
    """
    if not classification.support.any():
        raise ValueError("classification holds no lattice points")
    return GridField(
        classification.spec,
        tuple(o - pad for o in classification.origin),
        tuple(s + 2 * pad for s in classification.shape),
        np.pad(classification.interior, pad, constant_values=True),
        np.pad(classification.boundary, pad),
    )


def lattice_points(fieldobj: GridField) -> np.ndarray:
    """Coordinates of every window point, shaped like the window grid."""
    axes = [
        (np.arange(s) + o) * fieldobj.spec.dx
        for o, s in zip(fieldobj.origin, fieldobj.shape)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


# ---------------------------------------------------------------------------
# grid-path operators


def delta_t_second(fieldobj: GridField, index, level: int) -> float:
    dt = fieldobj.spec.dt
    return (
        fieldobj.value(index, level + 1)
        - 2.0 * fieldobj.value(index, level)
        + fieldobj.value(index, level - 1)
    ) / dt**2


def delta_x_second(fieldobj: GridField, index, level: int, axis: int) -> float:
    dx = fieldobj.spec.dx
    plus = list(index)
    minus = list(index)
    plus[axis] += 1
    minus[axis] -= 1
    return (
        fieldobj.value(tuple(plus), level)
        - 2.0 * fieldobj.value(tuple(index), level)
        + fieldobj.value(tuple(minus), level)
    ) / dx**2


# ---------------------------------------------------------------------------
# functional path: the same quotients applied to a callable u(x, t)


def fn_delta_t_second(u, x, t, dt) -> float:
    return (u(x, t + dt) - 2.0 * u(x, t) + u(x, t - dt)) / dt**2


def fn_delta_x_second(u, x, t, dx, axis) -> float:
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[axis] = dx
    return (u(x + e, t) - 2.0 * u(x, t) + u(x - e, t)) / dx**2


def fn_discrete_laplacian(u, x, t, dx, n) -> float:
    return sum(fn_delta_x_second(u, x, t, dx, k) for k in range(n))


def fn_discrete_dalembert(u, x, t, dx, dt, n) -> float:
    return fn_delta_t_second(u, x, t, dt) - fn_discrete_laplacian(u, x, t, dx, n)


# ---------------------------------------------------------------------------
# array kernels shared by the leapfrog solver, the Verlet integrator and the
# CFL experiment.  One code path makes leapfrog and Verlet bit-identical at
# h = dt.


def laplacian_array(values: np.ndarray, dx: float) -> np.ndarray:
    """Second differences summed over axes; outermost ring left at zero."""
    out = np.zeros_like(values)
    core = tuple(slice(1, -1) for _ in range(values.ndim))
    for k in range(values.ndim):
        plus = tuple(
            slice(2, None) if j == k else slice(1, -1) for j in range(values.ndim)
        )
        minus = tuple(
            slice(0, -2) if j == k else slice(1, -1) for j in range(values.ndim)
        )
        out[core] += (values[plus] - 2.0 * values[core] + values[minus]) / dx**2
    return out


def leapfrog_first_level(v0, velocity, accel, h) -> np.ndarray:
    """Bootstrap combination v0 + h*velocity + (h^2/2)*accel."""
    return v0 + h * velocity + (0.5 * h * h) * accel


def leapfrog_advance(v, v_prev, accel, h) -> np.ndarray:
    """Three-level update 2v - v_prev + h^2 * accel."""
    return 2.0 * v - v_prev + (h * h) * accel


def window_clamp(fieldobj: GridField, boundary_value):
    """The clamp of a window for `clamp_level`: (boundary mask, boundary
    values there, outside-support mask), or None when the window has
    neither boundary nor outside points (full space).  `boundary_value` is
    a scalar or an array over the window."""
    boundary = fieldobj.boundary
    outside = ~fieldobj.support
    if not boundary.any() and not outside.any():
        return None
    if isinstance(boundary_value, np.ndarray):
        return boundary, boundary_value[boundary], outside
    return boundary, float(boundary_value), outside


def clamp_level(values: np.ndarray, clamp) -> np.ndarray:
    """Pin boundary points and zero the points outside the support, in place."""
    if clamp is not None:
        boundary, boundary_values, outside = clamp
        values[boundary] = boundary_values
        values[outside] = 0.0
    return values


def crop_centre(values: np.ndarray, shape) -> np.ndarray:
    """The view of `values` on the centred sub-window of `shape`."""
    return values[tuple(
        slice((s - t) // 2, (s - t) // 2 + t) for s, t in zip(values.shape, shape)
    )]


def three_level_steps(prev, cur, h, dx, steps, *, t0=0.0, terms=None,
                      clamp=None, shrink=False):
    """Yield levels 2..steps of the three-level scheme seeded by levels 0, 1.

    Level k+1 is leapfrog_advance(v_k, v_{k-1}, accel, h) with accel =
    laplacian_array(v_k, dx), passed through terms(accel, v_k, t0 + k*h)
    when given (forcing, a(x), sigma), then clamped.  A negative h runs
    backward in time.  Raises BlowupError, with the level signed like h,
    when a level holds a non-finite value or one above BLOWUP_THRESHOLD.

    With `shrink` (full space, no clamp), level k+1 is stepped only on the
    points of v_k one ring in from its edge, where laplacian_array applies
    the stencil: each level is one ring smaller than the one before, v_{k-1}
    (at least as large as v_k) is cropped about the same centre, and every
    value equals the unshrunk run's at that point, bit for bit.  The blowup
    check then sees only the stepped points.
    """
    for k in range(1, steps):
        accel = laplacian_array(cur, dx)
        if shrink:
            inner = tuple(s - 2 for s in cur.shape)
            accel, cur, prev = (crop_centre(a, inner) for a in (accel, cur, prev))
        if terms is not None:
            accel = terms(accel, cur, t0 + k * h)
        new = clamp_level(leapfrog_advance(cur, prev, accel, h), clamp)
        max_abs = float(np.max(np.abs(new)))
        if not np.isfinite(max_abs) or max_abs > BLOWUP_THRESHOLD:
            level = k + 1 if h > 0 else -(k + 1)
            raise BlowupError(
                f"blowup detected at level {level}: max |v| = {max_abs:.3e}",
                level=level,
                max_value=max_abs,
            )
        yield new
        prev, cur = cur, new


# ---------------------------------------------------------------------------
# binary level snapshots

_HEADER = struct.Struct("<iddiq")


def dump_level(fieldobj: GridField, level: int, path) -> None:
    """Write one level: header (n, dx, dt, level, count) + little-endian f64."""
    values = np.ascontiguousarray(fieldobj.level_array(level), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                fieldobj.spec.n,
                fieldobj.spec.dx,
                fieldobj.spec.dt,
                level,
                values.size,
            )
        )
        fh.write(values.tobytes())  # lexicographic (C) lattice order


def load_level(path):
    """Read a level snapshot, returning (n, dx, dt, level, flat values)."""
    with open(path, "rb") as fh:
        n, dx, dt, level, count = _HEADER.unpack(fh.read(_HEADER.size))
        values = np.frombuffer(fh.read(8 * count), dtype="<f8")
    return n, dx, dt, level, values
