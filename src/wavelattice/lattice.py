"""Space-time lattices, admissibility, domain geometry and classification.

A lattice is the pair (dx, dt) together with the horizon T and the spatial
dimension n.  Admissible lattices satisfy the CFL bound dt/dx <= 1/sqrt(n)
and have an integer number of time steps per horizon.  Bounded domains are
boxes and balls; lattice points are split into interior points (all 2n
axis neighbours inside the domain) and boundary points (in the closure,
at least one neighbour outside), held as boolean masks on a rectangular
window of lattice multi-indices.  Every read of a lattice field goes
through one lookup: `window_indices` and `point_indices` give (m, n)
multi-indices, and a classification turns them into positions in its
window's arrays.  `step_index` gives the level of a lattice time and the
ratio of nested steps by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousBoundaryError, MissingNeighborError

#: relative tolerance for the T/dt integrality test and boundary ties
REL_TOL = 1e-12


@dataclass(frozen=True)
class LatticeSpec:
    """Steps (dx, dt), horizon T and spatial dimension n of one lattice."""

    n: int
    dx: float
    dt: float
    T: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spatial dimension must be >= 1")
        if self.dx <= 0 or self.dt <= 0 or self.T <= 0:
            raise ValueError("dx, dt and T must be positive")

    @property
    def steps(self) -> int:
        """Number of time steps per horizon, round(T / dt)."""
        return max(1, round(self.T / self.dt))

    def admissible(self) -> bool:
        """True iff T/dt is an integer (rel. tol 1e-12) and dt/dx <= 1/sqrt(n)."""
        integral = abs(self.steps * self.dt - self.T) <= REL_TOL * self.T
        cfl = self.dt / self.dx <= (1.0 + REL_TOL) / math.sqrt(self.n)
        return integral and cfl

    def halved(self) -> "LatticeSpec":
        return LatticeSpec(self.n, self.dx / 2.0, self.dt / 2.0, self.T)


def refine_halving(spec: LatticeSpec, levels: int) -> list[LatticeSpec]:
    """Nested family of `levels` lattices: the input spec, then halvings.

    The input spec must be admissible and levels >= 1.  Halving preserves
    the step ratio and the integrality of T/dt, so every returned spec is
    admissible and its points contain the coarser lattices' points.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if not spec.admissible():
        raise ValueError("refine_halving requires an admissible spec")
    out = [spec]
    for _ in range(levels - 1):
        out.append(out[-1].halved())
    return out


class Domain:
    """Spatial domain: box, ball, or full space with a window.

    Box and ball membership tests are exact closed-form comparisons.  The
    full-space variant carries a bounded evaluation window used only for
    error measurement and has no boundary.
    """

    def __init__(self, kind, *, bounds=None, center=None, radius=None):
        self.kind = kind
        self.bounds = None if bounds is None else [tuple(map(float, b)) for b in bounds]
        self.center = None if center is None else np.asarray(center, dtype=float)
        self.radius = None if radius is None else float(radius)

    @staticmethod
    def box(bounds) -> "Domain":
        """Open box with per-axis (lo, hi) bounds."""
        return Domain("box", bounds=bounds)

    @staticmethod
    def ball(center, radius) -> "Domain":
        """Open ball given center and radius."""
        return Domain("ball", center=center, radius=radius)

    @staticmethod
    def full_space(window) -> "Domain":
        """All of R^n; `window` bounds the region used for error measurement."""
        return Domain("full_space", bounds=window)

    @property
    def n(self) -> int:
        if self.kind == "ball":
            return len(self.center)
        return len(self.bounds)

    @property
    def bounded(self) -> bool:
        return self.kind != "full_space"

    def contains(self, x) -> np.ndarray:
        """Exact membership in the open domain of points x shaped (..., n);
        the result is shaped x.shape[:-1]."""
        x = np.asarray(x, dtype=float)
        if self.kind == "box":
            lo, hi = np.asarray(self.bounds).T
            return np.all((lo < x) & (x < hi), axis=-1)
        if self.kind == "ball":
            return np.sum((x - self.center) ** 2, axis=-1) < self.radius**2
        return np.ones(x.shape[:-1], dtype=bool)

    def boundary_distance(self, x) -> np.ndarray:
        """Exact distance from points x shaped (..., n) to the boundary,
        shaped x.shape[:-1]; infinite in full space."""
        x = np.asarray(x, dtype=float)
        if self.kind == "box":
            lo, hi = np.asarray(self.bounds).T
            # per-axis signed exterior excess: positive outside along an axis
            q = np.maximum(lo - x, x - hi)
            outside = np.sqrt(np.sum(np.maximum(q, 0.0) ** 2, axis=-1))
            return np.where(np.any(q > 0.0, axis=-1), outside, -np.max(q, axis=-1))
        if self.kind == "ball":
            r = np.sqrt(np.sum((x - self.center) ** 2, axis=-1))
            return np.abs(r - self.radius)
        return np.full(x.shape[:-1], math.inf)

    def bounding_window(self):
        """Per-axis (lo, hi) bounds of a box containing the domain."""
        if self.kind == "ball":
            return [(c - self.radius, c + self.radius) for c in self.center]
        return list(self.bounds)


@dataclass
class LatticeClassification:
    """Interior and boundary masks of a domain on a rectangular index window.

    `origin` is the multi-index of the window's lowest corner and `shape`
    its extent; the multi-index k refers to the lattice point x = k*dx.
    Interior points lie in the domain with all 2n axis neighbours in its
    closure; boundary points lie in the closure with at least one
    neighbour outside.  The masks are disjoint.
    """

    spec: LatticeSpec
    origin: tuple
    shape: tuple
    interior: np.ndarray
    boundary: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return self.interior | self.boundary

    def holds(self, indices) -> np.ndarray:
        """Which of the (m, n) multi-indices lie in the support."""
        off = np.asarray(indices) - np.asarray(self.origin)
        inside = np.all((off >= 0) & (off < np.asarray(self.shape)), axis=-1)
        at = tuple(off[inside].T)
        held = np.zeros(len(off), dtype=bool)
        held[inside] = self.interior[at] | self.boundary[at]
        return held

    def positions(self, indices) -> tuple:
        """Fancy index of the (m, n) multi-indices into the window's arrays.
        Raises MissingNeighborError for an index off the support."""
        indices = np.asarray(indices)
        held = self.holds(indices)
        if not held.all():
            raise MissingNeighborError(
                f"lattice index {tuple(indices[~held][0].tolist())} is outside "
                f"the support (window origin {self.origin}, shape {self.shape})"
            )
        return tuple((indices - np.asarray(self.origin)).T)


def grid_points(axes) -> np.ndarray:
    """The points of the tensor grid of the 1-D `axes`, shaped (..., n), of
    the axes' dtype.  Each coordinate is broadcast into place, which is
    several times faster than stacking a meshgrid."""
    n = len(axes)
    points = np.empty(tuple(a.size for a in axes) + (n,), np.result_type(*axes))
    for k, a in enumerate(axes):
        points[..., k] = a.reshape((-1,) + (1,) * (n - 1 - k))
    return points


def window_indices(window, dx: float) -> np.ndarray:
    """The (m, n) multi-indices of the lattice points of step dx in the
    closed `window` of per-axis (lo, hi) bounds, in C order."""
    axes = [
        np.arange(math.ceil((lo - 1e-12) / dx), math.floor((hi + 1e-12) / dx) + 1)
        for lo, hi in window
    ]
    return grid_points(axes).reshape(-1, len(axes))


def _nearest_indices(values: np.ndarray, step: float):
    """The nearest indices round(values / step), as floats, and the mask of
    the values off the lattice of that step: farther than
    1e-9 * max(1, |index|) step units from every lattice value, or not
    finite.  The one rule of every lattice lookup."""
    scaled = values / step
    indices = np.round(scaled)
    tol = 1e-9 * np.maximum(1.0, np.abs(scaled))
    with np.errstate(invalid="ignore"):  # inf - inf is nan: off the lattice
        return indices, ~(np.abs(scaled - indices) <= tol)


def point_indices(points, dx: float) -> np.ndarray:
    """The (m, n) multi-indices of lattice points of step dx, given shaped
    (m, n) or (n,).  Raises ValueError for a point off the lattice, which is
    never rounded to its nearest lattice point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    indices, off = _nearest_indices(points, dx)
    if off.any():
        x = points[off.any(axis=-1)][0]
        raise ValueError(f"point {tuple(x.tolist())} is not on the lattice "
                         f"of step {dx}")
    return indices.astype(int)


def step_index(x: float, step: float) -> int:
    """The integer k with k * step = x: the level of a lattice time, a step
    count or the ratio of nested grid steps.  Raises ValueError for an x
    off the lattice of that step, by the rule of point_indices."""
    index, off = _nearest_indices(np.float64(x), step)
    if off:
        raise ValueError(f"{x!r} is not on the lattice of step {step!r}")
    return int(index)


def _index_window(domain: Domain, dx: float, pad: int):
    """Per-axis integer indices covering the domain's bounding window,
    grown by `pad` on every side."""
    return [
        np.arange(math.floor(lo / dx) - pad, math.ceil(hi / dx) + pad + 1)
        for lo, hi in domain.bounding_window()
    ]


def _neighbours_in(closure: np.ndarray) -> np.ndarray:
    """Mask of the points whose 2n axis neighbours all lie in `closure`;
    neighbours beyond the window count as outside."""
    padded = np.pad(closure, 1)
    out = np.ones_like(closure)
    for k in range(closure.ndim):
        for start in (0, 2):
            out &= padded[tuple(
                slice(start, start + closure.shape[j]) if j == k else slice(1, -1)
                for j in range(closure.ndim)
            )]
    return out


def classify(domain: Domain, spec: LatticeSpec) -> LatticeClassification:
    """Interior and boundary masks on the smallest window holding both.

    Raises AmbiguousBoundaryError when a point is strictly within
    1e-12*dx of the boundary without lying on it exactly; points exactly
    on the boundary classify as closure points.
    """
    if not domain.bounded:
        # full space: the evaluation window becomes the interior, no boundary
        axes = _index_window(domain, spec.dx, pad=0)
        shape = tuple(len(a) for a in axes)
        return LatticeClassification(
            spec, tuple(int(a[0]) for a in axes), shape,
            np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool),
        )
    # the bounding window padded by one ring, then its open-domain and
    # closure masks
    axes = _index_window(domain, spec.dx, pad=1)
    points = grid_points([a * spec.dx for a in axes])
    d = domain.boundary_distance(points)
    tol = REL_TOL * spec.dx
    near = (0.0 < d) & (d < tol)
    if near.any():
        x = points[near][0]
        raise AmbiguousBoundaryError(
            f"lattice point {tuple(x.tolist())} lies within {tol:g} of the boundary"
        )
    inside = domain.contains(points)
    closure = inside | (d == 0.0)
    all_in = _neighbours_in(closure)
    interior = inside & all_in
    boundary = closure & ~all_in
    support = interior | boundary
    crop = []
    for k in range(support.ndim):
        others = tuple(j for j in range(support.ndim) if j != k)
        hit = np.flatnonzero(support.any(axis=others))
        crop.append(slice(hit[0], hit[-1] + 1) if hit.size else slice(0, 0))
    crop = tuple(crop)
    return LatticeClassification(
        spec,
        tuple(int(a[0]) + s.start for a, s in zip(axes, crop)),
        interior[crop].shape,
        interior[crop].copy(),
        boundary[crop].copy(),
    )

