"""Space-time lattices, admissibility, domain geometry and classification.

A lattice is the pair (dx, dt) together with the horizon T and the spatial
dimension n.  Admissible lattices satisfy the CFL bound dt/dx <= 1/sqrt(n)
and have an integer number of time steps per horizon.  Bounded domains are
boxes, balls, or finite unions of those; lattice points are split into
interior points (all 2n axis neighbours inside the domain) and boundary
points (in the closure, at least one neighbour outside), held as boolean
masks on a rectangular window of lattice multi-indices.  Every read of a
lattice field goes through one lookup: `window_indices` and `point_indices`
give (m, n) multi-indices, and a classification turns them into positions
in its window's arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousBoundaryError, MissingNeighborError, UnsupportedShapeError

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


def is_admissible(spec: LatticeSpec) -> bool:
    """Total predicate for membership of (dx, dt) in the admissible set."""
    return spec.admissible()


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
    """Spatial domain: box, ball, full space with a window, or finite union.

    Box and ball membership tests are exact closed-form comparisons.  The
    full-space variant carries a bounded evaluation window used only for
    error measurement and has no boundary.
    """

    def __init__(self, kind, *, bounds=None, center=None, radius=None, parts=None):
        self.kind = kind
        self.bounds = None if bounds is None else [tuple(map(float, b)) for b in bounds]
        self.center = None if center is None else np.asarray(center, dtype=float)
        self.radius = None if radius is None else float(radius)
        self.parts = parts

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

    @staticmethod
    def union(*parts) -> "Domain":
        """Finite union of bounded domains (for double-point demonstrations)."""
        if not parts or any(p.kind == "full_space" for p in parts):
            raise ValueError("union requires bounded member domains")
        return Domain("union", parts=list(parts))

    @property
    def n(self) -> int:
        if self.kind == "ball":
            return len(self.center)
        if self.kind == "union":
            return self.parts[0].n
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
        if self.kind == "full_space":
            return np.ones(x.shape[:-1], dtype=bool)
        return np.logical_or.reduce([p.contains(x) for p in self.parts])

    def boundary_distance(self, x) -> np.ndarray:
        """Distance from points x shaped (..., n) to the boundary (exact for
        box/ball), shaped x.shape[:-1].

        For unions this is the minimum over member boundaries, which is an
        upper bound for the true distance; it is only used for tie detection.
        """
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
        if self.kind == "full_space":
            return np.full(x.shape[:-1], math.inf)
        return np.minimum.reduce([p.boundary_distance(x) for p in self.parts])

    def bounding_window(self):
        """Per-axis (lo, hi) bounds of a box containing the domain."""
        if self.kind == "box" or self.kind == "full_space":
            return list(self.bounds)
        if self.kind == "ball":
            return [
                (c - self.radius, c + self.radius) for c in self.center
            ]
        windows = [p.bounding_window() for p in self.parts]
        return [
            (min(w[k][0] for w in windows), max(w[k][1] for w in windows))
            for k in range(self.n)
        ]


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


def point_indices(points, dx: float) -> np.ndarray:
    """The (m, n) multi-indices of lattice points of step dx, given shaped
    (m, n) or (n,).  Raises ValueError for a point off the lattice, which is
    never rounded to its nearest lattice point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    scaled = points / dx
    indices = np.round(scaled)
    off = np.abs(scaled - indices) > 1e-9 * np.maximum(1.0, np.abs(scaled))
    if off.any():
        x = points[off.any(axis=-1)][0]
        raise ValueError(f"point {tuple(x.tolist())} is not on the lattice "
                         f"of step {dx}")
    return indices.astype(int)


def _index_window(domain: Domain, dx: float, pad: int):
    """Per-axis integer indices covering the domain's bounding window,
    grown by `pad` on every side."""
    return [
        np.arange(math.floor(lo / dx) - pad, math.ceil(hi / dx) + pad + 1)
        for lo, hi in domain.bounding_window()
    ]


def _closure_masks(domain: Domain, dx: float):
    """Origin, then the open-domain and closure masks, on the index window
    padded by one ring.

    Raises AmbiguousBoundaryError when a window point is strictly within
    1e-12*dx of the boundary without lying on it exactly.
    """
    axes = _index_window(domain, dx, pad=1)
    points = grid_points([a * dx for a in axes])
    d = domain.boundary_distance(points)
    tol = REL_TOL * dx
    near = (0.0 < d) & (d < tol)
    if near.any():
        x = points[near][0]
        raise AmbiguousBoundaryError(
            f"lattice point {tuple(x.tolist())} lies within {tol:g} of the boundary"
        )
    inside = domain.contains(points)
    return tuple(int(a[0]) for a in axes), inside, inside | (d == 0.0)


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
    origin, inside, closure = _closure_masks(domain, spec.dx)
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
        tuple(o + s.start for o, s in zip(origin, crop)),
        interior[crop].shape,
        interior[crop].copy(),
        boundary[crop].copy(),
    )


def detect_double_points(domain: Domain, spec: LatticeSpec) -> np.ndarray:
    """Multi-indices, shaped (m, n) in C order, of the lattice points where
    the domain is locally disconnected.

    Boxes and balls are convex and have none.  For union domains every
    closure point that is not interior gets a local connectivity test: the
    indicator is sampled on a cube of side dx around the point at
    resolution dx/8 and its inside cells are labelled with axis adjacency;
    more than one component flags the point.  An isolated touch point (two
    boxes meeting at a corner) has all its neighbours in the closure and so
    is neither interior nor boundary, yet it is exactly the kind of point
    to flag.  This is the heuristic stand-in for the geometric definition,
    which has no algorithmic test.
    """
    if domain.kind in ("box", "ball"):
        return np.empty((0, domain.n), dtype=int)
    if domain.kind == "full_space":
        raise UnsupportedShapeError("double-point scan needs a bounded domain")
    from scipy import ndimage  # loads scipy.special, which nothing else needs

    cube = grid_points([np.arange(-4, 5) * (spec.dx / 8.0)] * domain.n)
    origin, inside, closure = _closure_masks(domain, spec.dx)
    candidates = np.argwhere(closure & ~(inside & _neighbours_in(closure))) + origin
    flagged = [ndimage.label(domain.contains(k * spec.dx + cube))[1] > 1
               for k in candidates]
    return candidates[np.array(flagged, dtype=bool)]
