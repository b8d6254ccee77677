"""Scalar reference for `wavelattice.lattice.classify`.

This is the point-by-point classification that the mask version replaced:
it walks the padded index window one multi-index at a time, asks the
domain about each point and each of its 2n axis neighbours, and collects
interior and boundary points as sets of index tuples.  Tests compare the
masks of `classify` with it.
"""

import itertools
import math

import numpy as np

from wavelattice import AmbiguousBoundaryError
from wavelattice.lattice import REL_TOL


def index_set(mask, origin) -> set:
    """Multi-indices (as tuples of ints) of the True entries of a mask
    whose lowest corner is the multi-index `origin`."""
    return {
        tuple(int(i) + int(o) for i, o in zip(off, origin))
        for off in np.argwhere(mask)
    }


def _window(domain, dx, pad):
    return [
        range(math.floor(lo / dx) - pad, math.ceil(hi / dx) + pad + 1)
        for lo, hi in domain.bounding_window()
    ]


def _neighbors(index):
    for k in range(len(index)):
        for s in (-1, 1):
            nb = list(index)
            nb[k] += s
            yield tuple(nb)


def reference_classify(domain, spec):
    """(interior, boundary) sets of index tuples of a domain's lattice points.

    Raises AmbiguousBoundaryError when a point is strictly within
    1e-12*dx of the boundary without lying on it exactly.
    """
    dx = spec.dx
    interior, boundary = set(), set()
    if not domain.bounded:
        interior.update(itertools.product(*_window(domain, dx, pad=0)))
        return interior, boundary

    tol = REL_TOL * dx

    def member(index):
        x = np.asarray(index, dtype=float) * dx
        d = domain.boundary_distance(x)
        if 0.0 < d < tol:
            raise AmbiguousBoundaryError(
                f"lattice point {tuple(x)} lies within {tol:g} of the boundary"
            )
        inside = domain.contains(x)
        return inside, inside or d == 0.0

    for index in itertools.product(*_window(domain, dx, pad=1)):
        inside, in_closure = member(index)
        if not in_closure:
            continue
        nb_closure = [member(nb)[1] for nb in _neighbors(index)]
        if inside and all(nb_closure):
            interior.add(index)
        elif not all(nb_closure):
            boundary.add(index)
    return interior, boundary
