"""Lattice windows, their sampler and the array kernels of the scheme.

A `GridField` holds time levels on an index window; `sample_window`, the
one path from data to lattice values, fills a window one block of rows at
a time, catalog data by its axes, into an array of `window_zeros`; the
array kernels form and step the three-level scheme that the leapfrog
solver, the Verlet integrator and the CFL experiment all run, on 2-D views
of each level's buffer as (axis-0 planes, points of a plane), a block at a
time: a range of planes times one contiguous span of the plane.  A run on
large windows in shared memory forks worker processes that step its
blocks beside the caller's.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import weakref
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
    spaces, in an array of window_zeros.  None gives zeros and a number that
    constant; an array must have the window's shape and is copied.
    Anything else fills the window one block of axis-0 rows at a time: data
    with `on_axes` (catalog data, the -Lap term of dalembert_forcing) by the
    block's axes, building no points, and any other callable once per point
    x, x[k] its k-th coordinate."""
    if isinstance(data, np.ndarray) and data.shape != fieldobj.shape:
        raise ValueError(
            f"gridded data of shape {data.shape} does not match the "
            f"lattice window {fieldobj.shape}"
        )
    values = window_zeros(fieldobj.shape)
    if isinstance(data, np.ndarray):
        values[...] = data
        return values
    if data is None:
        return values
    if not (callable(data) or hasattr(data, "on_axes")):
        values[...] = float(data)
        return values
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
    of the kernel's level 0; a block reads it at the block's
    (planes, span) of the window's plane view."""
    if a is None and sigma is None and not forcing:
        return None
    a, sigma = (None if c is None else _planes(c) for c in (a, sigma))
    forcing = [(_planes(space), profile) for space, profile in forcing]

    def terms(accel, values, t, at):
        if a is not None:
            accel = a[at] * accel
        if sigma is not None:
            accel = accel - sigma[at] * values
        if forcing:  # summed a few planes at a time: the sum and one term
            spaces = [space[at] for space, _ in forcing]
            factors = [profile(t) for _, profile in forcing]
            step = max(1, TERM_POINTS // max(1, accel.shape[1]))
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
# h = dt.  Every operand is a 2-D view of a level's buffer seen as (axis-0
# planes, points of a plane), taken at a block's (planes, span): the span
# holds the stepped rows of axis 1 over all of axes >= 2, so its runs are
# contiguous, and a neighbour on axis a >= 1 is the span shifted by the
# stride of axis a.  On a whole window a block's planes are whole, so its
# Laplacian runs on one flat range of the buffer.  The stepping kernel takes
# each level one block at a time, in one pass per block (2 v, the update's
# 2 v - v_{k-1} written over the older level, the Laplacian into scratch,
# the caller's terms, the update's h^2 term, the clamp and the block's
# extrema), with the elementwise operations of the plain array expressions
# in their order, so its values are theirs bit for bit.  A span or flat
# range also holds cells off the stepped points, whose neighbours wrap
# across rows or planes: their acceleration (whole window) or new value
# (cone) is set to 0.0.  The blocks of a level write disjoint planes, so
# up to _WORKERS processes step them, each one contiguous chunk with its own
# two scratch arrays of one block, 1 MB: the caller and the workers it forks
# once per run (`workers.Workers`), when both level buffers lie in anonymous
# shared memory (window_zeros puts windows of FORK_POINTS points or more
# there).  The workers see every other operand (a, sigma, forcing spaces,
# clamp masks, `terms`) as it was at the fork, write their blocks' extrema
# into a small shared array and answer each level on a pipe; their ufunc
# calls, unlike threads', need no hand-over of the GIL.  A level runs on no
# more processes than keep the scratch within half of it (two at the
# least).  The blocks do not depend on the process count, so neither do the
# values.

#: points per block in the array kernels: a process's two scratch arrays of
#: one block take 1 MB
BLOCK_POINTS = 1 << 16

#: points per chunk of planes in which window_terms sums the forcing: its two
#: temporaries stay far below a block
TERM_POINTS = 1 << 14

#: windows of at least this many points are allocated in shared memory and
#: stepped by forked workers; below it a fork costs about what a second CPU
#: saves (E1 n = 3's solve at dx = 0.05, 49^3 points and 16 steps, takes
#: about 0.011 s on one CPU)
FORK_POINTS = 1 << 18

#: processes that step the blocks of one level: the CPUs this process may
#: run on (its affinity mask where the system has one)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

#: the kernel forks its workers on Linux only, where a fork is cheap and an
#: anonymous shared mapping is zero-filled on first touch
_FORKS = sys.platform.startswith("linux") and hasattr(os, "fork")

#: the anonymous shared mappings behind live window arrays, and the peak of
#: their bytes since reset_shared_peak
_SHARED = weakref.WeakSet()
_shared_peak = 0


def window_zeros(shape) -> np.ndarray:
    """Zeros on a window of `shape`, the allocator of every array the
    stepping kernel steps: with more than one worker, a window of
    FORK_POINTS points or more lies in anonymous shared memory, which
    forked workers step in place and the system hands over zero-filled
    without a pass; any other window is a private array."""
    if _FORKS and _WORKERS > 1 and math.prod(shape) >= FORK_POINTS:
        return _shared_zeros(shape)
    return np.zeros(shape)


def _shared_zeros(shape) -> np.ndarray:
    """Zeros of `shape` in a new anonymous shared mapping."""
    import mmap  # here: a run of private arrays loads no module for it

    global _shared_peak
    buffer = mmap.mmap(-1, max(1, 8 * math.prod(shape)))
    _SHARED.add(buffer)
    _shared_peak = max(_shared_peak, shared_memory()[0])
    return np.ndarray(shape, buffer=buffer)


def shared_memory() -> tuple:
    """(bytes, peak bytes) of the live arrays in shared memory, the peak
    since reset_shared_peak: tracemalloc does not see them."""
    live = sum(len(buffer) for buffer in _SHARED)
    return live, max(live, _shared_peak)


def reset_shared_peak() -> None:
    """Set the peak of shared_memory to the bytes live now."""
    global _shared_peak
    _shared_peak = shared_memory()[0]


def _in_shared_memory(values: np.ndarray) -> bool:
    """Whether `values` is a view of an array of _shared_zeros."""
    while isinstance(values, np.ndarray):
        values = values.base
    return values in _SHARED


def row_blocks(shape) -> list:
    """Slices of axis 0 that each cover about BLOCK_POINTS points of `shape`."""
    rows = max(1, BLOCK_POINTS // max(1, math.prod(shape[1:])))
    return [slice(a, min(a + rows, shape[0])) for a in range(0, shape[0], rows)]


def _view(flat: np.ndarray, shape) -> np.ndarray:
    """The leading part of the 1-D scratch `flat`, shaped `shape`."""
    return flat[:math.prod(shape)].reshape(shape)


def _planes(values: np.ndarray) -> np.ndarray:
    """The C-contiguous `values` as a view of shape (axis-0 planes, points
    per plane)."""
    if not values.flags.c_contiguous:
        raise ValueError("the array kernels take C-contiguous arrays")
    return values.reshape(len(values), -1)


def _strides(shape) -> tuple:
    """The strides, in points of the plane, of axes 1.. of a C-ordered array
    of `shape`."""
    return tuple(math.prod(shape[a + 1:]) for a in range(1, len(shape)))


def _zero_outside(block: np.ndarray, bounds) -> None:
    """Set to 0.0 the points of `block` below lo or from hi on along `axis`,
    for each (axis, lo, hi) of `bounds`."""
    for axis, lo, hi in bounds:
        before = (slice(None),) * axis
        block[before + (slice(None, lo),)] = 0.0
        block[before + (slice(hi, None),)] = 0.0


def _laplacian_block(values: np.ndarray, shifts, dx: float, at: tuple,
                     twov: np.ndarray, acc: np.ndarray) -> None:
    """The second differences of the 2-D view `values` summed over axes at
    its points `at` = (rows, columns), into `acc`; `twov` holds 2 * values
    there on entry and is overwritten.  The neighbours along axis k lie
    shifts[k] = (rows, columns) away."""
    rows, cols = at
    for k, (down, right) in enumerate(shifts):
        plus = values[rows.start + down:rows.stop + down,
                      cols.start + right:cols.stop + right]
        minus = values[rows.start - down:rows.stop - down,
                       cols.start - right:cols.stop - right]
        # axis 0's term goes into acc and each later one over 2 v in place,
        # so from axis 2 on 2 v is formed again
        part = twov if k else acc
        if k > 1:
            np.multiply(values[at], 2.0, out=twov)
        np.subtract(plus, twov, out=part)
        np.add(part, minus, out=part)
        np.divide(part, dx**2, out=part)
        if k:
            np.add(acc, part, out=acc)
        else:  # the sum starts from 0.0, which turns a term of -0.0 into 0.0
            np.add(part, 0.0, out=acc)


def _window_laplacian(values: np.ndarray, shape, dx: float, planes: slice,
                      twov: np.ndarray, acc: np.ndarray) -> None:
    """laplacian_array of the window `shape`, whose plane view is `values`,
    at the planes `planes`, into `acc`; `twov` holds 2 * values there on
    entry and is overwritten.  The planes lie one after another in the
    buffer, so the points one ring in are stepped as one flat range; its
    points on the window's edge read neighbours across plane or row ends
    and are set to 0.0 after, with the outermost ring."""
    strides = _strides(shape)
    plane = values.shape[1]
    first, last = max(planes.start, 1), min(planes.stop, shape[0] - 1)
    edge = strides[0] if strides else 0
    start, stop = first * plane + edge, last * plane - edge
    if stop > start:
        inner = slice(0, 1), slice(start - planes.start * plane,
                                   stop - planes.start * plane)
        _laplacian_block(values.reshape(1, -1), [(0, plane), *((0, s) for s in strides)],
                         dx, (slice(0, 1), slice(start, stop)),
                         twov.reshape(1, -1)[inner], acc.reshape(1, -1)[inner])
    _zero_outside(acc.reshape((len(acc),) + tuple(shape[1:])),
                  [(0, first - planes.start, last - planes.start)]
                  + [(a, 1, s - 1) for a, s in enumerate(shape[1:], start=1)])


def laplacian_array(values: np.ndarray, dx: float) -> np.ndarray:
    """Second differences summed over axes; outermost ring left at zero.

    The result is formed one block of axis-0 planes at a time by the helper
    the stepping kernel uses.
    """
    values = np.ascontiguousarray(values)
    out = np.empty_like(values)
    flat, result = _planes(values), _planes(out)
    blocks = row_blocks(flat.shape)
    twov = np.empty(math.prod(flat[blocks[0]].shape) if blocks else 0)
    for planes in blocks:
        block = _view(twov, flat[planes].shape)
        np.multiply(flat[planes], 2.0, out=block)
        _window_laplacian(flat, values.shape, dx, planes, block, result[planes])
    return out


def window_clamp(fieldobj: GridField, boundary_value):
    """The clamp of a window for `clamp_level`: (boundary mask, boundary
    value, outside-support mask), or None when the window has neither
    boundary nor outside points (full space).  A callable `boundary_value`
    is sampled on the window and the value is that array.  The arrays are
    the plane views of window arrays."""
    boundary = fieldobj.boundary
    if not boundary.any() and fieldobj.interior.all():
        return None
    outside = ~fieldobj.support
    if callable(boundary_value):
        boundary_value = _planes(sample_window(boundary_value, fieldobj))
    return _planes(boundary), boundary_value, _planes(outside)


def clamp_level(values: np.ndarray, clamp, at=None) -> np.ndarray:
    """Pin boundary points and zero the points outside the support, in place.

    `values` is a level on the clamp's window, or with `at`, the block
    (planes, span) of its plane view.
    """
    if clamp is not None:
        boundary, boundary_value, outside = clamp
        block = _planes(values) if at is None else values
        at = at or (slice(None), slice(None))
        if np.ndim(boundary_value):
            boundary_value = boundary_value[at]
        np.copyto(block, boundary_value, where=boundary[at])
        np.copyto(block, 0.0, where=outside[at])
    return values


def crop_centre(values: np.ndarray, shape) -> np.ndarray:
    """The view of `values` on the centred sub-window of `shape`."""
    return values[tuple(
        slice((s - t) // 2, (s - t) // 2 + t) for s, t in zip(values.shape, shape)
    )]


def three_level_steps(v0, velocity, h, dx, steps, *, t0=0.0, terms=None,
                      clamp=None, shrink=None):
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

    `v0` and `velocity` are C-contiguous arrays of one shape.  Each level
    is stepped one block (about BLOCK_POINTS points) of axis-0 planes times
    a span of the plane at a time, in one pass per block.  When both arrays
    come from window_zeros in shared memory (sample_window allocates there)
    and level 0 has more than one block, the run forks up to _WORKERS - 1
    worker processes once, on Linux, and each level's blocks are split
    into contiguous chunks, one per process, on no more processes than keep
    their scratch within half the level; otherwise the calling process
    steps every block.  The workers see `terms`, `clamp` and every array
    they read as they were when the run began, what `terms` changes in a
    worker stays there, and the run waits for the workers before it yields
    a level or raises.  A worker's exception is raised here, caused by its
    traceback there; every worker has ended and been waited for once the
    run is exhausted, raises or is closed.
    `terms(accel, values, t, at)` is called once per block, with the
    block's acceleration and level-k values, t = t0 + k*h and `at`, the
    block's (planes, span) in the plane view of `v0`'s window; it returns
    the block's acceleration and may write over the one it gets.  Every
    value is that of the whole-array expressions, bit for bit, at any
    process count.

    The kernel holds no level of its own: level 1 is written over
    `velocity` and level k+1 over level k-1, so `v0` is overwritten by
    level 2, and each yielded array is overwritten two steps after it is
    yielded.  Copy what you keep.

    `shrink` (full space, no clamp) is the shape of the window the run
    must reach: level k is then stepped only on that window grown by
    steps - k rings, centred in `v0`'s, the points of level k-1 one ring in
    from its region, where laplacian_array applies the stencil.  Every
    value there equals the unshrunk run's, bit for bit, the blowup check
    sees only them, and the yielded level is the view of that region.
    `solve` and E5 shrink every full-space run.  Verlet cannot: `integrate`
    returns the whole system window, and E3 takes more steps (up to 128, at
    h = dt/16) than its window has padding rings (44).  Full-space Verlet
    has no clamp either, so the shrink is not implied by `clamp`.
    """
    shape = v0.shape
    if velocity.shape != shape:
        raise ValueError(f"velocity of shape {velocity.shape} on a level of {shape}")
    strides = _strides(shape)
    shifts = [(1, 0), *((0, s) for s in strides)]  # plane +-1, then along it
    levels = _planes(v0), _planes(velocity)  # level k is levels[k % 2]
    plane = levels[0].shape[1]
    if shrink is not None:
        base = [(s - w) // 2 - steps for s, w in zip(shape, shrink)]
        if len(shrink) != len(shape) or min(base) < 0:
            raise ValueError(f"window {shrink} is not {steps} rings inside {shape}")
    # each process's scratch: the largest block of any level fits
    size = min(v0.size, max(BLOCK_POINTS, plane))
    scratch = []

    def level(k):
        """Level k's stepped region (None: the whole window), the cells off
        it to zero, its span of the plane, its blocks of planes and the most
        processes that step them: the scratch of two arrays of `size` per
        process stays within half the level, but two step two blocks."""
        region, wrap = None, []
        planes, span = slice(0, shape[0]), slice(0, plane)
        if shrink is not None:  # the window grown by steps - k - 1 rings
            region = tuple(slice(b + k + 1, s - b - k - 1)
                           for b, s in zip(base, shape))
            planes = region[0]
            if strides:
                span = slice(region[1].start * strides[0],
                             region[1].stop * strides[0])
            wrap = [(a, r.start, r.stop) for a, r in enumerate(region)][2:]
        count = span.stop - span.start
        blocks = [slice(planes.start + b.start, planes.start + b.stop)
                  for b in row_blocks((planes.stop - planes.start, count))]
        cap = max(2, (planes.stop - planes.start) * count // (4 * size))
        return region, wrap, span, blocks, min(len(blocks), cap)

    def step_blocks(k, first, end):
        """Step blocks first..end-1 of level k, each block's max and min
        into `extrema`."""
        region, wrap, span, blocks, _ = level(k)
        values, older = levels[k % 2], levels[1 - k % 2]
        if not scratch:
            scratch.extend((np.empty(size), np.empty(size)))
        t = t0 + k * h
        for i in range(first, end):
            at = blocks[i], span
            current, new = values[at], older[at]
            twov = _view(scratch[0], new.shape)
            accel = _view(scratch[1], new.shape)
            np.multiply(current, 2.0, out=twov)
            if k:  # 2 v_k - v_{k-1} + h^2 accel
                np.subtract(twov, new, out=new)
            else:  # v_0 + h velocity + (h^2/2) accel
                np.multiply(new, h, out=new)
                np.add(current, new, out=new)
            if region is None:
                _window_laplacian(values, shape, dx, at[0], twov, accel)
            else:
                _laplacian_block(values, shifts, dx, at, twov, accel)
            if terms is not None:
                accel = terms(accel, current, t, at)
            np.multiply(accel, h * h if k else 0.5 * h * h, out=accel)
            np.add(new, accel, out=new)
            clamp_level(new, clamp, at)
            if wrap:  # cells off the region: never read, kept from the extrema
                _zero_outside(new.reshape(new.shape[:1] + (-1,) + shape[2:]),
                              wrap)
            extrema[0, i], extrema[1, i] = np.max(new), np.min(new)

    pool, extrema = None, None
    try:
        if steps:  # level 0 has the most blocks and takes the most processes
            _, _, _, blocks, most = level(0)
            forks = (_WORKERS > 1 and most > 1 and _in_shared_memory(v0)
                     and _in_shared_memory(velocity))
            extrema = (_shared_zeros if forks else np.empty)((2, len(blocks)))
            if forks:
                from .workers import Workers  # only a run that forks loads it

                pool = Workers(min(_WORKERS, most) - 1, step_blocks)
        for k in range(steps):
            region, _, _, blocks, most = level(k)
            if pool is None:
                step_blocks(k, 0, len(blocks))
            else:
                processes = max(1, min(len(pool.children) + 1, most))
                pool.step(k, [len(blocks) * j // processes
                              for j in range(processes + 1)])
            highs, lows = extrema[:, :len(blocks)]
            max_abs = float(max(np.max(highs), -np.min(lows)))
            if not np.isfinite(max_abs) or max_abs > BLOWUP_THRESHOLD:
                level_index = k + 1 if h > 0 else -(k + 1)
                raise BlowupError(
                    f"blowup detected at level {level_index}: "
                    f"max |v| = {max_abs:.3e}",
                    level=level_index,
                    max_value=max_abs,
                )
            new = (v0, velocity)[1 - k % 2]
            yield (new if region is None else new[region]), max_abs
    finally:
        if pool is not None:
            pool.close()


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
