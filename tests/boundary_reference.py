"""Scalar references for `detect_double_points` and `check_compatibility`.

These are the point-by-point versions that the array code replaced: the
double-point scan flood-fills each candidate's inside cells as a set of
index tuples, and the compatibility check walks the boundary samples one
point at a time, calling f, g and h on one point each.  Tests compare the
array code with them.
"""

import itertools
import math

import numpy as np

from wavelattice.lattice import REL_TOL, _closure_masks, _neighbours_in


def reference_double_points(domain, spec) -> set:
    """Coordinates (tuples of floats) of the flagged points of a union."""
    dx = spec.dx
    n = domain.n
    step = dx / 8.0
    cube = np.array(list(itertools.product(range(-4, 5), repeat=n)))
    samples = cube * step
    origin, inside, closure = _closure_masks(domain, dx)
    candidates = closure & ~(inside & _neighbours_in(closure))
    suspects = set()
    for index in np.argwhere(candidates) + np.asarray(origin):
        x0 = index.astype(float) * dx
        hit = domain.contains(x0 + samples)
        remaining = {tuple(off) for off in cube[hit].tolist()}
        # flood fill over axis-adjacent sample cells
        components = 0
        while remaining:
            components += 1
            stack = [remaining.pop()]
            while stack:
                cell = stack.pop()
                for k in range(n):
                    for s in (-1, 1):
                        nb = list(cell)
                        nb[k] += s
                        nb = tuple(nb)
                        if nb in remaining:
                            remaining.discard(nb)
                            stack.append(nb)
        if components > 1:
            suspects.add(tuple(x0.tolist()))
    return suspects


def _boundary_samples(domain, count):
    n = domain.n
    if domain.kind == "box":
        if n == 1:
            lo, hi = domain.bounds[0]
            return [np.array([lo]), np.array([hi])]
        pts = []
        per_face = max(2, math.ceil((count / (2 * n)) ** (1.0 / (n - 1))))
        for k in range(n):
            for side in (0, 1):
                axes = [j for j in range(n) if j != k]
                grids = [
                    np.linspace(domain.bounds[j][0], domain.bounds[j][1], per_face)
                    for j in axes
                ]
                for combo in itertools.product(*grids):
                    p = np.empty(n)
                    p[k] = domain.bounds[k][side]
                    for j, v in zip(axes, combo):
                        p[j] = v
                    pts.append(p)
        return pts
    if n == 1:
        c, r = domain.center[0], domain.radius
        return [np.array([c - r]), np.array([c + r])]
    if n == 2:
        thetas = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
        return [
            domain.center + domain.radius * np.array([math.cos(t), math.sin(t)])
            for t in thetas
        ]
    pts = []
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(count):
        z = 1.0 - 2.0 * (i + 0.5) / count
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        th = golden * i
        pts.append(
            domain.center
            + domain.radius * np.array([rho * math.cos(th), rho * math.sin(th), z])
        )
    return pts


def _surface_second_differences(domain, h, x, step):
    n = domain.n
    if n == 1:
        return 0.0
    total = 0.0
    if domain.kind == "box":
        on_face = [
            k
            for k in range(n)
            if min(abs(x[k] - domain.bounds[k][0]), abs(x[k] - domain.bounds[k][1]))
            <= REL_TOL
        ]
        for j in [j for j in range(n) if j not in on_face]:
            lo, hi = domain.bounds[j]
            xc = np.array(x)
            xc[j] = min(max(xc[j], lo + step), hi - step)
            e = np.zeros(n)
            e[j] = step
            total += (h(xc + e) - 2.0 * h(xc) + h(xc - e)) / step**2
        return abs(total)
    normal = (x - domain.center) / domain.radius
    basis = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        t = e - np.dot(e, normal) * normal
        norm = np.linalg.norm(t)
        if norm > 1e-8:
            t = t / norm
            if all(abs(np.dot(t, b)) < 0.9 for b in basis):
                basis.append(t)
        if len(basis) == n - 1:
            break
    angle = step / domain.radius
    for t in basis:
        plus = domain.center + domain.radius * (
            math.cos(angle) * normal + math.sin(angle) * t)
        minus = domain.center + domain.radius * (
            math.cos(-angle) * normal + math.sin(-angle) * t)
        total += (h(plus) - 2.0 * h(x) + h(minus)) / step**2
    return abs(total)


def _as_callable(fn):
    if fn is None:
        return lambda x: 0.0
    if callable(fn):
        return fn
    value = float(fn)
    return lambda x: value


def reference_compatibility(f, g, h, domain, dx=0.1) -> tuple:
    """(max |f - h|, max |g|, max surface second difference of h)."""
    f, g, h = (_as_callable(fn) for fn in (f, g, h))
    step = dx / 4.0
    max_fh = max_g = max_lap = 0.0
    for x in _boundary_samples(domain, 128):
        max_fh = max(max_fh, abs(float(f(x)) - float(h(x))))
        max_g = max(max_g, abs(float(g(x))))
        max_lap = max(max_lap, _surface_second_differences(domain, h, x, step))
    return max_fh, max_g, max_lap
