"""Discrete elliptic problem and the variable-coefficient splitting.

The split u = phi + v takes v from the stationary problem
b(x) Lap_dx v = sigma(x) v with Dirichlet data h and steps phi as a
constant-coefficient wave problem with zero boundary values and initial
displacement f - v.  That solves u'' = (1 + b) Lap_dx u - sigma u only at
b = sigma = 0: otherwise phi misses b Lap_dx phi + Lap_dx v - sigma phi,
the gap that E7's "pipeline vs direct" note measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Union

import numpy as np

from .errors import SingularSystemError
from .lattice import Domain, LatticeSpec, classify
from .leapfrog import DiscreteProblem
from .spectral import DataFunction
from .stencils import (
    GridField,
    field_from_classification,
    laplacian_array,
    sample_window,
)

#: dense fallback is allowed up to this interior size
DENSE_LIMIT = 4096


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
    solver: str
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
    """Solve the system by CG with a fast-Poisson preconditioner when it is
    definite, by a dense solve otherwise.

    Interior rows read b(x) * (Laplacian row) - sigma(x) * (identity row);
    rows where both coefficients vanish degenerate to 0 = 0 and are
    replaced by plain Laplacian rows (harmonic filler), which keeps the
    b -> 0 limit continuous.  Boundary points are pinned to h, whose terms
    go into the right-hand side.  CG applies the operator on the window
    without a matrix; only the dense solve forms one.
    Raises SingularSystemError when no solver produces a reliable result.
    """
    fieldobj = field_from_classification(problem.classification)
    interior = fieldobj.interior
    shape = fieldobj.shape
    dx2 = problem.dx**2

    m = int(np.count_nonzero(interior))
    if m == 0:
        raise SingularSystemError("no interior points to solve on")

    bvals = sample_window(problem.b, fieldobj)[interior]
    svals = sample_window(problem.sigma, fieldobj)[interior]
    hvals = sample_window(problem.h, fieldobj)[fieldobj.boundary]

    # harmonic filler where the operator row would vanish identically
    degenerate = (bvals == 0.0) & (svals == 0.0)
    b_eff = np.where(degenerate, 1.0, bvals)
    s_eff = np.where(degenerate, 0.0, svals)

    definite = bool(np.all(b_eff > 0.0) and np.all(s_eff >= 0.0))
    n = problem.domain.n
    if definite:
        # symmetrized: -Lap v + (sigma/b) v = boundary contributions
        diag = 2.0 * n / dx2 + s_eff / b_eff
        off_scale = np.full(m, -1.0 / dx2)
    else:
        diag = -2.0 * n / dx2 * b_eff - s_eff
        off_scale = b_eff / dx2

    # the window grown by one ring, so that no neighbour of an interior
    # point wraps around an edge; `shifts` view its 2n neighbours
    core = tuple(slice(1, s + 1) for s in shape)
    shifts = [core[:axis] + (slice(1 + sign, s + 1 + sign),) + core[axis + 1:]
              for axis, s in enumerate(shape) for sign in (-1, 1)]

    def neighbours(values, mask, fill=0.0):
        """(2n, m): `values` put at `mask` on the grown window, read at the
        neighbours of each interior point."""
        grid = np.full(tuple(s + 2 for s in shape), fill)
        grid[core][mask] = values
        return np.stack([grid[shift][interior] for shift in shifts])

    if not np.all(neighbours(True, fieldobj.support, fill=False)):
        raise SingularSystemError(
            "interior point has a neighbour outside the support"
        )
    rhs = -off_scale * neighbours(hvals, fieldobj.boundary).sum(axis=0)

    def apply(p):
        return diag * p + off_scale * neighbours(p, interior).sum(axis=0)

    solver, iterations = "dense", 0
    if definite:
        precondition = _fast_poisson(interior, problem.dx,
                                     float(np.mean(s_eff / b_eff)))
        v_int, iterations, converged = spla.cg(
            apply, rhs, rtol=1e-13, atol=0.0, maxiter=20 * m, M=precondition)
        if converged:
            solver = "cg"
    if solver == "dense":
        if m > DENSE_LIMIT:
            raise SingularSystemError(
                f"indefinite system with {m} unknowns exceeds the dense limit"
            )
        # the same rows, with each interior neighbour numbered as an unknown
        columns = neighbours(np.arange(m), interior, fill=m)
        which, rows = np.nonzero(columns < m)
        matrix = np.diag(diag)
        matrix[rows, columns[which, rows]] = off_scale[rows]
        try:
            v_int = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"dense solve failed: {exc}") from exc

    values = np.zeros(shape)
    values[interior] = v_int
    values[fieldobj.boundary] = hvals

    residual, scale = _residual(problem, fieldobj, values, bvals, svals)
    if not np.isfinite(residual) or residual > 1e-8 * max(scale, 1.0):
        raise SingularSystemError(
            f"solution residual {residual:.3e} too large (scale {scale:.3e})"
        )
    return EllipticSolution(fieldobj, values, residual, scale, solver,
                            iterations)


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


@dataclass
class VariableCoefficientProblem:
    """The full wave problem with velocity a = 1 + b and flexibility sigma.

    split_pipeline solves it only at b = sigma = 0 (module docstring).  As
    in EllipticProblem and DiscreteProblem, `classification` is the lattice
    classification of (domain, spec.dx), built when not given; gridded f
    lives on its window.
    """

    spec: LatticeSpec
    domain: Domain
    f: Union[DataFunction, Callable, None] = None
    g: Union[DataFunction, Callable, None] = None
    h: Union[Callable, float] = 0.0
    b: Union[Callable, float] = 0.0
    sigma: Union[Callable, float] = 0.0
    classification: Optional[object] = None


@dataclass
class SplitResult:
    """Elliptic part, shifted data and the constant-coefficient problem."""

    elliptic: EllipticSolution
    shifted_f: np.ndarray
    wave_problem: DiscreteProblem

    def reconstruct(self, phi_values: np.ndarray) -> np.ndarray:
        """Add the stationary part back: u = phi + v pointwise."""
        return phi_values + self.elliptic.values


def split_pipeline(problem: VariableCoefficientProblem) -> SplitResult:
    """Split u = phi + v: solve the elliptic part, shift the initial data.

    Returns the elliptic solution, the gridded data f - v, and a
    zero-boundary constant-coefficient problem ready for the leapfrog
    stepper or the Lagrange integrator; reconstruction adds v back.  That
    is the variable-coefficient problem only at b = sigma = 0.
    """
    classification = problem.classification
    if classification is None:
        classification = classify(problem.domain, problem.spec)
    elliptic = assemble_and_solve(
        EllipticProblem(
            domain=problem.domain, dx=problem.spec.dx,
            b=problem.b, sigma=problem.sigma, h=problem.h,
            classification=classification,
        )
    )
    fieldobj = elliptic.fieldobj
    shifted = sample_window(problem.f, fieldobj) - elliptic.values
    shifted[~fieldobj.support] = 0.0

    wave = DiscreteProblem(
        spec=problem.spec,
        domain=problem.domain,
        f=shifted,
        g=problem.g,
        boundary_value=0.0,
        classification=classification,
    )
    return SplitResult(elliptic, shifted, wave)
