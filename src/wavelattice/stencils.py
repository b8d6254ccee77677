"""Lattice windows, their samplers and the array kernels of the scheme.

A `GridField` holds time levels on an index window; the samplers fill a
window one block of rows at a time, and `check_compatibility` samples the
data on a domain's boundary; the array kernels form and step the
three-level scheme that the leapfrog solver, the Verlet integrator and the
CFL experiment all run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, MissingLevelError, UnsupportedShapeError
from .lattice import REL_TOL, Domain, LatticeClassification, grid_points
from .spectral import sample

#: values above this abort a run (deliberately reachable under CFL violation)
BLOWUP_THRESHOLD = 1e12


@dataclass
class GridField(LatticeClassification):
    """Values on lattice points at one or more time levels.

    The window, origin and interior / boundary masks are those of a
    `LatticeClassification`; `levels` maps the integer time index p
    (t = p*dt) to one value array over the window per level.  The values
    at (m, n) multi-indices are `level_array(p)[positions(indices)]`.
    """

    levels: dict = field(default_factory=dict)

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


def window_axes(fieldobj: GridField) -> list:
    """The coordinates of the window's points along each axis."""
    return [
        (np.arange(s) + o) * fieldobj.spec.dx
        for o, s in zip(fieldobj.origin, fieldobj.shape)
    ]


def lattice_points(fieldobj: GridField) -> np.ndarray:
    """Coordinates of every window point, shaped like the window grid."""
    return grid_points(window_axes(fieldobj))


def grid_blocks(axes):
    """(rows, points) for each block of axis-0 rows of the tensor grid of the
    1-D `axes`: `rows` slices axis 0 of the grid, and `points`, shaped
    (rows, ..., n), are the block's points.  Every sampler of a window
    loops over these, so no (m, n) array of a whole grid exists."""
    shape = tuple(a.size for a in axes)
    for rows in row_blocks(shape):
        yield rows, grid_points([axes[0][rows], *axes[1:]])


def sample_window(data, fieldobj: GridField) -> np.ndarray:
    """sample(data, lattice_points(fieldobj)), one block of axis-0 rows of
    the window at a time.  Gridded data must already have the window's shape
    and is copied."""
    values = np.empty(fieldobj.shape)
    if isinstance(data, np.ndarray):
        if data.shape != values.shape:
            raise ValueError(
                f"gridded data of shape {data.shape} does not match the "
                f"lattice window {values.shape}"
            )
        values[...] = data
        return values
    for rows, points in grid_blocks(window_axes(fieldobj)):
        values[rows] = sample(data, points)
    return values


def add_forcing(accel: np.ndarray, forcing, fieldobj: GridField, t) -> np.ndarray:
    """Add the forcing w(x, t) to `accel` in place, one block of axis-0 rows
    at a time, and return it.  `accel` covers the centred sub-window of its
    shape in the window of `fieldobj`."""
    axes = [crop_centre(a, (s,)) for a, s in zip(window_axes(fieldobj), accel.shape)]
    for rows, points in grid_blocks(axes):
        flat = points.reshape(-1, points.shape[-1])
        accel[rows] += forcing.func(flat, t).reshape(points.shape[:-1])
    return accel


# ---------------------------------------------------------------------------
# boundary compatibility of the data, sampled on the boundary


@dataclass
class CompatibilityReport:
    """Maxima of the three boundary compatibility defects and the verdict."""

    max_f_mismatch: float
    max_g: float
    max_surface_laplacian: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in (
            self.max_f_mismatch, self.max_g, self.max_surface_laplacian))


def _boundary_samples(domain: Domain, count: int) -> np.ndarray:
    """(m, n) points on the boundary of a box or ball: both ends in 1-D, a
    grid on each face of a box, `count` points on a circle or a Fibonacci
    sphere."""
    n = domain.n
    if domain.kind == "box":
        per_face = max(2, math.ceil((count / (2 * n)) ** (1.0 / max(n - 1, 1))))
        return np.concatenate([
            grid_points([
                np.array([b[side]]) if j == k else np.linspace(*b, per_face)
                for j, b in enumerate(domain.bounds)
            ]).reshape(-1, n)
            for k in range(n) for side in (0, 1)
        ])
    if domain.kind != "ball":
        raise UnsupportedShapeError("compatibility check needs a box or ball domain")
    if n == 1:
        return domain.center + domain.radius * np.array([[-1.0], [1.0]])
    if n == 2:
        theta = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
        unit = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:  # Fibonacci sphere
        i = np.arange(count)
        z = 1.0 - 2.0 * (i + 0.5) / count
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = math.pi * (3.0 - math.sqrt(5.0)) * i
        unit = np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=-1)
    return domain.center + domain.radius * unit


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of a and b, rounded as np.dot rounds one
    pair (a sum of products can differ in the last bit)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _surface_second_differences(domain: Domain, h, x: np.ndarray, hx: np.ndarray,
                                step: float) -> np.ndarray:
    """|Sum of the tangential second differences of h| at the boundary
    points x (rows), with hx = h(x).

    A box steps along each axis whose faces the point is not on, with the
    sampled triple kept on the face.  A ball walks the great circles
    through the point along up to n - 1 tangents: the axes projected on the
    tangent plane, taken in order when |t.b| < 0.9 for every b taken
    before.
    """
    m, n = x.shape
    total = np.zeros(m)
    if domain.kind == "box":
        lo, hi = np.asarray(domain.bounds).T
        on_face = np.minimum(np.abs(x - lo), np.abs(x - hi)) <= REL_TOL
        for j in range(n):
            rows = ~on_face[:, j]
            xc = x[rows]
            xc[:, j] = np.minimum(np.maximum(xc[:, j], lo[j] + step), hi[j] - step)
            e = step * np.eye(n)[j]
            total[rows] += (sample(h, xc + e) - 2.0 * sample(h, xc)
                            + sample(h, xc - e)) / step**2
        return np.abs(total)
    normal = (x - domain.center) / domain.radius
    tangents = np.zeros((n - 1, m, n))
    found = np.zeros(m, dtype=int)
    for k in range(n):
        t = np.eye(n)[k] - normal[:, k, None] * normal
        norm = np.sqrt(_dot_rows(t, t))
        take = (found < n - 1) & (norm > 1e-8)
        t[take] /= norm[take, None]
        for s in range(n - 1):
            take &= (found <= s) | (np.abs(_dot_rows(t, tangents[s])) < 0.9)
        tangents[found[take], np.flatnonzero(take)] = t[take]
        found += take
    angle = step / domain.radius
    for s in range(n - 1):
        rows = found > s
        plus, minus = (
            domain.center + domain.radius * (
                math.cos(a) * normal[rows] + math.sin(a) * tangents[s, rows])
            for a in (angle, -angle)
        )
        total[rows] += (sample(h, plus) - 2.0 * hx[rows] + sample(h, minus)) / step**2
    return np.abs(total)


def check_compatibility(f, g, h, domain: Domain, tol: float, dx: float = 0.1):
    """Check the boundary compatibility of initial and boundary data.

    Samples the boundary at >= 100 points (all of it in 1-D), reporting
    max |f - h|, max |g| and the largest tangential second difference of
    h at resolution dx/4.  f, g and h are anything `spectral.sample` takes
    (None, a number, a DataFunction or a function of one point).  Passes
    iff all three maxima are <= tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = _boundary_samples(domain, 128)
    hx = sample(h, x)
    return CompatibilityReport(
        float(np.max(np.abs(sample(f, x) - hx))),
        float(np.max(np.abs(sample(g, x)))),
        float(np.max(_surface_second_differences(domain, h, x, hx, dx / 4.0))),
        tol,
    )


# ---------------------------------------------------------------------------
# array kernels shared by the leapfrog solver, the Verlet integrator and the
# CFL experiment.  One code path makes leapfrog and Verlet bit-identical at
# h = dt.  Each kernel works through its arrays one block of axis-0 rows at a
# time, with the same elementwise operations in the same order as the plain
# array expression, so its scratch stays a few hundred kB and its values are
# those of the expression bit for bit.

#: points per block of axis-0 rows in the array kernels
BLOCK_POINTS = 1 << 16


def row_blocks(shape) -> list:
    """Slices of axis 0 that each cover about BLOCK_POINTS points of `shape`."""
    rows = max(1, BLOCK_POINTS // max(1, math.prod(shape[1:])))
    return [slice(a, min(a + rows, shape[0])) for a in range(0, shape[0], rows)]


def _scratch(shape, blocks) -> np.ndarray:
    """Room for the largest block of `shape`, uninitialised."""
    rows = blocks[0].stop - blocks[0].start if blocks else 0
    return np.empty((rows,) + tuple(shape[1:]))


def laplacian_array(values: np.ndarray, dx: float, out=None) -> np.ndarray:
    """Second differences summed over axes; outermost ring left at zero.

    The result goes into `out` (an array shaped like `values`) when given,
    into a new array otherwise.
    """
    if out is None:
        out = np.empty_like(values)
    ndim = values.ndim
    for k in range(ndim):
        for edge in (0, -1):
            out[(slice(None),) * k + (edge,)] = 0.0
    core = (slice(1, -1),) * ndim
    inner = tuple(max(s - 2, 0) for s in values.shape)
    blocks = row_blocks(inner)
    term = _scratch(inner, blocks)
    for rows in blocks:
        # the core rows `rows` read the rows of `values` one further out
        block = values[rows.start:rows.stop + 2]
        acc = out[(slice(rows.start + 1, rows.stop + 1),) + core[1:]]
        part = term[:rows.stop - rows.start]
        acc.fill(0.0)
        for k in range(ndim):
            plus = tuple(slice(2, None) if j == k else slice(1, -1)
                         for j in range(ndim))
            minus = tuple(slice(0, -2) if j == k else slice(1, -1)
                          for j in range(ndim))
            np.multiply(block[core], 2.0, out=part)
            np.subtract(block[plus], part, out=part)
            np.add(part, block[minus], out=part)
            np.divide(part, dx**2, out=part)
            np.add(acc, part, out=acc)
    return out


def leapfrog_first_level(v0, velocity, accel, h, out=None) -> np.ndarray:
    """Bootstrap combination v0 + h*velocity + (h^2/2)*accel.

    The result goes into `out` when given (it may be `velocity`), into a
    new array otherwise.
    """
    if out is None:
        out = np.empty_like(v0)
    blocks = row_blocks(v0.shape)
    left, right = _scratch(v0.shape, blocks), _scratch(v0.shape, blocks)
    for rows in blocks:
        x, y = left[:rows.stop - rows.start], right[:rows.stop - rows.start]
        np.multiply(velocity[rows], h, out=x)
        np.add(v0[rows], x, out=x)
        np.multiply(accel[rows], 0.5 * h * h, out=y)
        np.add(x, y, out=out[rows])
    return out


def leapfrog_advance(v, v_prev, accel, h, out=None) -> np.ndarray:
    """Three-level update 2v - v_prev + h^2 * accel.

    The result goes into `out` when given (it may be `v_prev`), into a new
    array otherwise.
    """
    if out is None:
        out = np.empty_like(v)
    blocks = row_blocks(v.shape)
    left, right = _scratch(v.shape, blocks), _scratch(v.shape, blocks)
    for rows in blocks:
        x, y = left[:rows.stop - rows.start], right[:rows.stop - rows.start]
        np.multiply(v[rows], 2.0, out=x)
        np.subtract(x, v_prev[rows], out=x)
        np.multiply(accel[rows], h * h, out=y)
        np.add(x, y, out=out[rows])
    return out


def window_clamp(fieldobj: GridField, boundary_value):
    """The clamp of a window for `clamp_level`: (boundary mask, boundary
    values there, outside-support mask), or None when the window has
    neither boundary nor outside points (full space).  `boundary_value` is
    a scalar or a callable, sampled on the window."""
    boundary = fieldobj.boundary
    outside = ~fieldobj.support
    if not boundary.any() and not outside.any():
        return None
    if callable(boundary_value):
        return boundary, sample_window(boundary_value, fieldobj)[boundary], outside
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


def three_level_steps(v0, velocity, h, dx, steps, *, t0=0.0, terms=None,
                      clamp=None, shrink=False):
    """Yield (level, max |level|) for levels 1..steps of the three-level
    scheme started from level 0 `v0` and the velocity `velocity`; the
    maximum is the one the blowup check takes, so a caller that tracks it
    reads no level twice.

    With accel_k = laplacian_array(v_k, dx), passed through
    terms(accel, v_k, t0 + k*h) when given (forcing, a(x), sigma), level 1
    is leapfrog_first_level(v0, velocity, accel_0, h) and level k+1 is
    leapfrog_advance(v_k, v_{k-1}, accel_k, h), each then clamped.  A
    negative h runs backward in time.  Raises BlowupError, with the level
    signed like h, when a level holds a non-finite value or one above
    BLOWUP_THRESHOLD.

    The kernel holds no level of its own: level 1 is written over
    `velocity` and level k+1 over level k-1, so `v0` is overwritten by
    level 2, and each yielded array is overwritten two steps after it is
    yielded.  Copy what you keep.

    With `shrink` (full space, no clamp), each level is stepped only on the
    points of the one before one ring in from its edge, where
    laplacian_array applies the stencil: level k is k rings smaller than
    `v0`, the older level is cropped about the same centre, and every value
    equals the unshrunk run's at that point, bit for bit.  The blowup check
    then sees only the stepped points.  `solve` and E5 shrink every
    full-space run.  Verlet cannot: `integrate` returns the whole system
    window, and E3 takes more steps (up to 128, at h = dt/16) than its
    window has padding rings (44).  Full-space Verlet has no clamp either,
    so the flag is not implied by `clamp`.
    """
    buffer = np.empty(v0.size)
    prev, cur = velocity, v0  # level 1 is written over the velocity
    for k in range(steps):
        accel = laplacian_array(cur, dx, out=buffer[:cur.size].reshape(cur.shape))
        if shrink:
            inner = tuple(s - 2 for s in cur.shape)
            accel, cur, prev = (crop_centre(a, inner) for a in (accel, cur, prev))
        if terms is not None:
            accel = terms(accel, cur, t0 + k * h)
        step = leapfrog_advance if k else leapfrog_first_level
        new = clamp_level(step(cur, prev, accel, h, out=prev), clamp)
        max_abs = float(max(np.max(new), -np.min(new)))
        if not np.isfinite(max_abs) or max_abs > BLOWUP_THRESHOLD:
            level = k + 1 if h > 0 else -(k + 1)
            raise BlowupError(
                f"blowup detected at level {level}: max |v| = {max_abs:.3e}",
                level=level,
                max_value=max_abs,
            )
        yield new, max_abs
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
