"""Lattice windows, their sampler and the array kernels of the scheme.

A `GridField` holds time levels on an index window; `sample_window`, the
one path from data to lattice values, fills a window one block of rows at
a time, catalog data by its axes; the array kernels form and step the
three-level scheme that the leapfrog solver, the Verlet integrator and the
CFL experiment all run.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, MissingLevelError
from .lattice import LatticeClassification, grid_points

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
    the finite domain of dependence.  An all-interior classification gets
    read-only constant masks, so no window-sized mask is allocated.
    """
    if not classification.support.any():
        raise ValueError("classification holds no lattice points")
    shape = tuple(s + 2 * pad for s in classification.shape)
    if classification.interior.all():
        masks = np.broadcast_to(True, shape), np.broadcast_to(False, shape)
    else:
        masks = (np.pad(classification.interior, pad, constant_values=True),
                 np.pad(classification.boundary, pad))
    return GridField(classification.spec,
                     tuple(o - pad for o in classification.origin), shape, *masks)


def window_axes(fieldobj: GridField) -> list:
    """The coordinates of the window's points along each axis."""
    return [
        (np.arange(s) + o) * fieldobj.spec.dx
        for o, s in zip(fieldobj.origin, fieldobj.shape)
    ]


def lattice_points(fieldobj: GridField) -> np.ndarray:
    """Coordinates of every window point, shaped like the window grid."""
    return grid_points(window_axes(fieldobj))


def sample_window(data, fieldobj: GridField) -> np.ndarray:
    """`data` on the window's points, the one sampler of data and forcing
    spaces.  None gives zeros and a number that constant; an array must
    have the window's shape and is copied.  Anything else fills the window
    one block of axis-0 rows at a time: data with `on_axes` (catalog data,
    the -Lap term of dalembert_forcing) by the block's axes, building no
    points, and any other callable once per point x, x[k] its k-th
    coordinate."""
    if isinstance(data, np.ndarray):
        if data.shape != fieldobj.shape:
            raise ValueError(
                f"gridded data of shape {data.shape} does not match the "
                f"lattice window {fieldobj.shape}"
            )
        return np.array(data, dtype=float)
    if data is None:
        return np.zeros(fieldobj.shape)
    if not (callable(data) or hasattr(data, "on_axes")):
        return np.full(fieldobj.shape, float(data))
    values = np.empty(fieldobj.shape)
    axes = window_axes(fieldobj)
    for rows in row_blocks(values.shape):
        block = [axes[0][rows], *axes[1:]]
        if hasattr(data, "on_axes"):
            values[rows] = data.on_axes(block)
        else:
            points = grid_points(block)
            values[rows] = np.reshape(
                [float(data(x)) for x in points.reshape(-1, points.shape[-1])],
                points.shape[:-1])
    return values


def sample_forcing(forcing, fieldobj: GridField) -> list:
    """[(S_j, p_j)]: each space S_j of the terms of `forcing` (none without
    one) sampled once on the window by sample_window."""
    return [(sample_window(space, fieldobj), profile)
            for space, profile in (forcing.terms if forcing is not None else ())]


def window_terms(a=None, sigma=None, forcing=()):
    """The `terms` of three_level_steps, None when there are none:
    a * accel - sigma * values + (S_1 p_1(t) + S_2 p_2(t) + ...), the pairs
    of sample_forcing summed in term order.  Each array lies on the window
    of the kernel's level 0; a block reads its rows `rows` and, on the other
    axes, the centred sub-window of the block's shape."""
    if a is None and sigma is None and not forcing:
        return None

    def terms(accel, values, t, rows):
        def block(arr):
            return crop_centre(arr[rows], accel.shape)

        if a is not None:
            accel = block(a) * accel
        if sigma is not None:
            accel = accel - block(sigma) * values
        if forcing:  # summed a few rows at a time: the sum and one term
            spaces = [block(space) for space, _ in forcing]
            factors = [profile(t) for _, profile in forcing]
            step = max(1, TERM_POINTS // max(1, math.prod(accel.shape[1:])))
            for start in range(0, len(accel), step):
                chunk = slice(start, start + step)
                w = spaces[0][chunk] * factors[0]
                for space, p in zip(spaces[1:], factors[1:]):
                    w += space[chunk] * p
                accel[chunk] += w
        return accel

    return terms


# ---------------------------------------------------------------------------
# array kernels shared by the leapfrog solver, the Verlet integrator and the
# CFL experiment.  One code path makes leapfrog and Verlet bit-identical at
# h = dt.  The stepping kernel works through each level one block of axis-0
# rows at a time, in one pass per block: the block's Laplacian rows into
# scratch, the caller's terms, the update written over the older level, the
# clamp and the block's extrema, with the same elementwise operations in the
# same order as the plain array expressions, so its values are theirs bit
# for bit.  A block reads the current level on its own rows and one row
# either side, and writes only its own rows of the older level's array, so
# the blocks of a level are independent: they run on up to _WORKERS
# threads (numpy releases the GIL), each worker taking one contiguous chunk
# of them with its own scratch of about 1 MB.  A level runs on no more
# workers than keep that scratch within half of it (two at the least), so a
# run holds a few window arrays plus at most half a window of scratch on any
# number of CPUs.  The blocks do not depend on the worker count, so neither
# do the values.

#: points per block of axis-0 rows in the array kernels
BLOCK_POINTS = 1 << 16

#: points per chunk of rows in which window_terms sums the forcing: its two
#: temporaries stay far below a block, however many workers overlap
TERM_POINTS = 1 << 14


#: threads that step the blocks of one level: the CPUs this process may run
#: on (its affinity mask where the system has one)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def row_blocks(shape) -> list:
    """Slices of axis 0 that each cover about BLOCK_POINTS points of `shape`."""
    rows = max(1, BLOCK_POINTS // max(1, math.prod(shape[1:])))
    return [slice(a, min(a + rows, shape[0])) for a in range(0, shape[0], rows)]


def _view(flat: np.ndarray, shape) -> np.ndarray:
    """The leading part of the 1-D scratch `flat`, shaped `shape`."""
    return flat[:math.prod(shape)].reshape(shape)


def _laplacian_core(values: np.ndarray, dx: float, rows: slice,
                    acc: np.ndarray, part: np.ndarray) -> None:
    """The second differences of `values` summed over axes at the rows
    `rows` of its core (its points one ring in from the edge), into `acc`,
    shaped like those rows; `part` is 1-D scratch at least that large."""
    ndim = values.ndim
    core = (slice(1, -1),) * ndim
    block = values[rows.start:rows.stop + 2]  # core rows read one row further out
    part = _view(part, acc.shape)
    for k in range(ndim):
        plus = tuple(slice(2, None) if j == k else slice(1, -1) for j in range(ndim))
        minus = tuple(slice(0, -2) if j == k else slice(1, -1) for j in range(ndim))
        np.multiply(block[core], 2.0, out=part)
        np.subtract(block[plus], part, out=part)
        np.add(part, block[minus], out=part)
        np.divide(part, dx**2, out=part)
        if k:
            np.add(acc, part, out=acc)
        else:  # the sum starts from 0.0, which turns a term of -0.0 into 0.0
            np.add(part, 0.0, out=acc)


def _laplacian_rows(values: np.ndarray, dx: float, rows: slice,
                    acc: np.ndarray, part: np.ndarray) -> None:
    """laplacian_array(values, dx)[rows] into `acc`; `part` is 1-D scratch
    at least as large as `acc`."""
    ndim = values.ndim
    for k in range(1, ndim):
        for edge in (0, -1):
            acc[(slice(None),) * k + (edge,)] = 0.0
    first, last = max(rows.start, 1), min(rows.stop, values.shape[0] - 1)
    acc[:first - rows.start] = 0.0
    acc[max(last, first) - rows.start:] = 0.0
    if last > first:
        inner = (slice(first - rows.start, last - rows.start),) + (slice(1, -1),) * (ndim - 1)
        _laplacian_core(values, dx, slice(first - 1, last - 1), acc[inner], part)


def laplacian_array(values: np.ndarray, dx: float) -> np.ndarray:
    """Second differences summed over axes; outermost ring left at zero.

    The result is formed one block of axis-0 rows at a time by the helper
    the stepping kernel uses.
    """
    out = np.empty_like(values)
    blocks = row_blocks(values.shape)
    part = np.empty(math.prod(out[blocks[0]].shape)) if blocks else None
    for rows in blocks:
        _laplacian_rows(values, dx, rows, out[rows], part)
    return out


def window_clamp(fieldobj: GridField, boundary_value):
    """The clamp of a window for `clamp_level`: (boundary mask, boundary
    value, outside-support mask), or None when the window has neither
    boundary nor outside points (full space).  A callable `boundary_value`
    is sampled on the window and the value is that array."""
    boundary = fieldobj.boundary
    if not boundary.any() and fieldobj.interior.all():
        return None
    outside = ~fieldobj.support
    if callable(boundary_value):
        return boundary, sample_window(boundary_value, fieldobj), outside
    return boundary, float(boundary_value), outside


def clamp_level(values: np.ndarray, clamp, rows: slice = slice(None)) -> np.ndarray:
    """Pin boundary points and zero the points outside the support, in place.

    `values` holds the axis-0 rows `rows` of the clamp's window (all of it
    by default).
    """
    if clamp is not None:
        boundary, boundary_value, outside = clamp
        if np.ndim(boundary_value):
            boundary_value = boundary_value[rows]
        np.copyto(values, boundary_value, where=boundary[rows])
        np.copyto(values, 0.0, where=outside[rows])
    return values


def crop_centre(values: np.ndarray, shape) -> np.ndarray:
    """The view of `values` on the centred sub-window of `shape`."""
    return values[tuple(
        slice((s - t) // 2, (s - t) // 2 + t) for s, t in zip(values.shape, shape)
    )]


def _run_chunks(pool, run, count: int) -> None:
    """run(0), ..., run(count - 1): chunk 0 on this thread, the others on
    `pool`; returns when every chunk has ended and raises the first error."""
    futures = [pool.submit(run, j) for j in range(1, count)]
    try:
        run(0)
    finally:
        for future in futures:
            future.exception()  # waits for the chunk to end
    for future in futures:
        future.result()


def three_level_steps(v0, velocity, h, dx, steps, *, t0=0.0, terms=None,
                      clamp=None, shrink=False):
    """Yield (level, max |level|) for levels 1..steps of the three-level
    scheme started from level 0 `v0` and the velocity `velocity`; the
    maximum is the one the blowup check takes, so a caller that tracks it
    reads no level twice.

    With accel_k = laplacian_array(v_k, dx), passed through `terms` when
    given (forcing, a(x), sigma), level 1 is
    v0 + h*velocity + (h^2/2)*accel_0 and level k+1 is
    2 v_k - v_{k-1} + h^2 accel_k, each then clamped.  A negative h runs
    backward in time.  Raises BlowupError, with the level signed like h,
    when a level holds a non-finite value or one above BLOWUP_THRESHOLD.

    Each level is stepped one block of axis-0 rows at a time (about
    BLOCK_POINTS points each), in one pass per block, and the blocks run on
    the CPUs of the process's affinity mask, on no more threads than keep
    their scratch within half the level (a window of one block runs on the
    calling thread).  `terms(accel_rows, values_rows, t, rows)` is
    called once per block, with the block's acceleration and level-k
    values, t = t0 + k*h and `rows`, the block's slice of axis 0 of `v0`'s
    window (on the other axes a block covers the centred sub-window of its
    shape); it returns the block's acceleration and may write over the one
    it gets.  Every value is that of the whole-array expressions, bit for
    bit, at any worker count.

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
    # per-worker scratch: the largest block of any level fits
    size = min(v0.size, max(BLOCK_POINTS, math.prod(v0.shape[1:])))
    scratch = [None] * _WORKERS
    pool = None
    prev, cur = velocity, v0  # level 1 is written over the velocity
    try:
        for k in range(steps):
            values = cur
            if shrink:
                shape = tuple(s - 2 for s in cur.shape)
                values, prev = crop_centre(cur, shape), crop_centre(prev, shape)
            blocks = row_blocks(values.shape)
            highs, lows = np.empty(len(blocks)), np.empty(len(blocks))
            t, skip = t0 + k * h, k + 1 if shrink else 0

            def step(i, acc, part):
                rows = blocks[i]
                accel = _view(acc, values[rows].shape)
                if shrink:
                    _laplacian_core(cur, dx, rows, accel, part)
                else:
                    _laplacian_rows(cur, dx, rows, accel, part)
                if terms is not None:
                    accel = terms(accel, values[rows], t,
                                  slice(rows.start + skip, rows.stop + skip))
                new = prev[rows]
                if k:  # 2 v_k - v_{k-1} + h^2 accel
                    x = _view(part, new.shape)
                    np.multiply(values[rows], 2.0, out=x)
                    np.subtract(x, new, out=new)
                    np.multiply(accel, h * h, out=accel)
                else:  # v_0 + h velocity + (h^2/2) accel
                    np.multiply(new, h, out=new)
                    np.add(values[rows], new, out=new)
                    np.multiply(accel, 0.5 * h * h, out=accel)
                np.add(new, accel, out=new)
                clamp_level(new, clamp, rows)
                highs[i], lows[i] = np.max(new), np.min(new)

            # the workers' scratch, two arrays of `size` each, stays within
            # half the level, but two workers run wherever there are two blocks
            cap = max(2, values.size // (4 * size))
            workers = max(1, min(_WORKERS, len(blocks), cap))
            bounds = [len(blocks) * j // workers for j in range(workers + 1)]

            def run(j):
                if scratch[j] is None:
                    scratch[j] = np.empty(size), np.empty(size)
                for i in range(bounds[j], bounds[j + 1]):
                    step(i, *scratch[j])

            if workers == 1:
                run(0)
            else:
                if pool is None:  # imported here: a one-block run starts no thread
                    from concurrent.futures import ThreadPoolExecutor
                    pool = ThreadPoolExecutor(_WORKERS - 1)
                _run_chunks(pool, run, workers)
            max_abs = float(max(np.max(highs), -np.min(lows)))
            if not np.isfinite(max_abs) or max_abs > BLOWUP_THRESHOLD:
                level = k + 1 if h > 0 else -(k + 1)
                raise BlowupError(
                    f"blowup detected at level {level}: max |v| = {max_abs:.3e}",
                    level=level,
                    max_value=max_abs,
                )
            yield prev, max_abs
            prev, cur = values, prev
    finally:
        if pool is not None:
            pool.shutdown()


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
