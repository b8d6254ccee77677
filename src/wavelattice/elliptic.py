"""Discrete elliptic problem and the variable-coefficient splitting.

The split u = phi + v takes v from the stationary problem
b(x) Lap_dx v = sigma(x) v with Dirichlet data h, a definite system for
b > 0 and sigma >= 0 that one preconditioned CG solves, and hands back the
initial displacement f - v of phi, which has zero boundary values.  E7
steps phi on the Lagrange system with unit velocity and no flexibility, so
u = phi + v solves u'' = (1 + b) Lap_dx u - sigma u only at b = sigma = 0:
otherwise phi misses b Lap_dx phi + Lap_dx v - sigma phi, the gap that E7's
"pipeline vs direct" note measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Union

import numpy as np

from .errors import SingularSystemError
from .lattice import Domain, LatticeSpec, _neighbours_in, classify
from .stencils import (
    GridField,
    field_from_classification,
    laplacian_array,
    sample_window,
)


@dataclass
class EllipticProblem:
    """Coefficients, boundary data and lattice of one discrete problem."""

    domain: Domain
    dx: float
    b: Union[Callable, float] = 0.0
    sigma: Union[Callable, float] = 0.0
    h: Union[Callable, float] = 0.0
    classification: Optional[object] = None

    def __post_init__(self):
        if self.classification is None:
            spec = LatticeSpec(
                self.domain.n, self.dx,
                self.dx / (2.0 * np.sqrt(self.domain.n)), 1.0,
            )
            self.classification = classify(self.domain, spec)


@dataclass
class EllipticSolution:
    """Lattice solution with its residual report and CG step count."""

    fieldobj: GridField
    values: np.ndarray
    residual: float
    scale: float
    iterations: int


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product as numpy's pairwise sum: single-threaded, so the same
    bits at any CPU count, which a threaded BLAS dot does not promise."""
    return float(np.sum(a * b))


def _cg(apply, rhs, *, rtol, atol, maxiter, M=None, callback=None):
    """Conjugate gradients from x = 0 for SPD `apply` and preconditioner `M`.

    Stops when ||r|| <= max(rtol ||rhs||, atol), as scipy's cg does, and
    calls `callback(x)` after each step.  Returns (x, steps, converged).
    """
    precondition = M if M is not None else (lambda r: r)
    x, r = np.zeros_like(rhs), rhs.copy()
    tol = max(rtol * math.sqrt(_dot(rhs, rhs)), atol)
    z = precondition(r)
    p, rz = z.copy(), _dot(r, z)
    steps = 0
    while math.sqrt(_dot(r, r)) > tol:
        if steps == maxiter:
            return x, steps, False
        q = apply(p)
        alpha = rz / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        steps += 1
        if callback is not None:
            callback(x)
        z = precondition(r)
        rz, rz_old = _dot(r, z), rz
        p = z + (rz / rz_old) * p
    return x, steps, True


# The solve calls `spla.cg`, the name scipy.sparse.linalg had here, because
# perfbench's tracer counts CG steps by swapping this attribute for a proxy
# whose cg passes a callback.
spla = SimpleNamespace(cg=_cg)


def _sines(grid: np.ndarray) -> np.ndarray:
    """Type-I DST, sum_j x_j sin(pi j k / (N + 1)), along every axis, each
    from the rfft of the odd extension (0, x, 0, -reversed x)."""
    for axis in range(grid.ndim):
        x = np.moveaxis(grid, axis, -1)
        size = x.shape[-1]
        odd = np.zeros(x.shape[:-1] + (2 * size + 2,))
        odd[..., 1:size + 1] = x
        odd[..., size + 2:] = -x[..., ::-1]
        dst = -0.5 * np.fft.rfft(odd)[..., 1:size + 1].imag
        grid = np.moveaxis(dst, -1, axis)
    return grid


def _fast_poisson(interior: np.ndarray, dx: float, shift: float):
    """r -> R B^-1 R^T r, with B = -Lap_dx + shift on the bounding box of
    `interior` (zero values around it) and R the restriction to the mask
    (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).  B is diagonal in the
    sine basis, so B^-1 is a DST, a division and a DST.  On a box this is
    the exact inverse of the constant-coefficient operator; on any mask it
    is SPD for shift >= 0.
    """
    box = tuple(slice(int(i.min()), int(i.max()) + 1)
                for i in np.nonzero(interior))
    mask = interior[box]
    eigs = [(2.0 / dx * np.sin(np.pi * np.arange(1, s + 1) / (2 * s + 2))) ** 2
            for s in mask.shape]
    # the DST-I is its own inverse up to a factor (N + 1) / 2 per axis
    scale = math.prod(2.0 / (s + 1) for s in mask.shape)
    inverse = scale / (shift + sum(np.ix_(*eigs)))

    def apply(r):
        grid = np.zeros(mask.shape)
        grid[mask] = r
        return _sines(inverse * _sines(grid))[mask]

    return apply


def assemble_and_solve(problem: EllipticProblem) -> EllipticSolution:
    """Solve the definite system by CG with a fast-Poisson preconditioner.

    Interior rows read b(x) Lap_dx v = sigma(x) v; rows where both
    coefficients vanish degenerate to 0 = 0 and are replaced by
    Lap_dx v = 0 (harmonic filler), which keeps the b -> 0 limit
    continuous.  Boundary points are pinned to h.  Divided by b, the rows
    in the interior unknowns p are the SPD system
    (sigma/b) p - Lap_dx p = Lap_dx (h on the boundary), both sides formed
    by laplacian_array on the window, without a matrix.
    Raises SingularSystemError when a row has b <= 0 or sigma < 0 (an
    indefinite system), when CG does not converge, or when the residual
    check fails.
    """
    fieldobj = field_from_classification(problem.classification)
    interior, boundary = fieldobj.interior, fieldobj.boundary
    m = int(np.count_nonzero(interior))
    if m == 0:
        raise SingularSystemError("no interior points to solve on")
    if not np.all(_neighbours_in(fieldobj.support)[interior]):
        raise SingularSystemError(
            "interior point has a neighbour outside the support"
        )

    bvals = sample_window(problem.b, fieldobj)[interior]
    svals = sample_window(problem.sigma, fieldobj)[interior]
    hvals = sample_window(problem.h, fieldobj)[boundary]

    # harmonic filler where the operator row would vanish identically
    degenerate = (bvals == 0.0) & (svals == 0.0)
    b_eff = np.where(degenerate, 1.0, bvals)
    s_eff = np.where(degenerate, 0.0, svals)
    if not (np.all(b_eff > 0.0) and np.all(s_eff >= 0.0)):
        raise SingularSystemError(
            "indefinite system: a row has b <= 0 or sigma < 0"
        )
    shift = s_eff / b_eff

    def on_window(values, mask):
        grid = np.zeros(fieldobj.shape)
        grid[mask] = values
        return grid

    rhs = laplacian_array(on_window(hvals, boundary), problem.dx)[interior]

    def apply(p):
        lap = laplacian_array(on_window(p, interior), problem.dx)[interior]
        return shift * p - lap

    precondition = _fast_poisson(interior, problem.dx, float(np.mean(shift)))
    v_int, iterations, converged = spla.cg(
        apply, rhs, rtol=1e-13, atol=0.0, maxiter=20 * m, M=precondition)
    if not converged:
        raise SingularSystemError(f"CG did not converge in {iterations} steps")

    values = on_window(v_int, interior)
    values[boundary] = hvals

    residual, scale = _residual(problem, fieldobj, values, bvals, svals)
    if not np.isfinite(residual) or residual > 1e-8 * max(scale, 1.0):
        raise SingularSystemError(
            f"solution residual {residual:.3e} too large (scale {scale:.3e})"
        )
    return EllipticSolution(fieldobj, values, residual, scale, iterations)


def _residual(problem, fieldobj, values, bvals, svals):
    """Infinity norm of b*Lap v - sigma*v on interior points, plus a scale."""
    lap = laplacian_array(values, problem.dx)[fieldobj.interior]
    term_b = bvals * lap
    term_s = svals * values[fieldobj.interior]
    # harmonic filler rows are judged on Lap v itself
    term_b = np.where((bvals == 0.0) & (svals == 0.0), lap, term_b)
    res = float(np.max(np.abs(term_b - term_s)))
    scale = max(1.0, float(np.max(np.abs(term_b) + np.abs(term_s))))
    return res, scale


def split_pipeline(problem: EllipticProblem, f) -> tuple:
    """Split u = phi + v: solve for v and shift the initial data by it.

    Returns the elliptic solution and f - v on its window, zero off the
    support: the initial displacement of phi, which has zero boundary
    values.  Adding v back to phi gives u only at b = sigma = 0 (module
    docstring).
    """
    elliptic = assemble_and_solve(problem)
    shifted = sample_window(f, elliptic.fieldobj) - elliptic.values
    shifted[~elliptic.fieldobj.support] = 0.0
    return elliptic, shifted
