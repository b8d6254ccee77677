"""Discrete elliptic problem and the variable-coefficient splitting.

The stationary problem b(x) Lap_dx v = sigma(x) v with Dirichlet data h
absorbs the variable coefficients of the full wave problem: writing the
velocity as a(x) = 1 + b(x) and the solution as u = phi + v leaves a
constant-coefficient wave problem for phi with zero boundary values and
shifted initial displacement f - v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystemError
from .lattice import Domain, LatticeSpec, classify
from .leapfrog import DiscreteProblem
from .spectral import DataFunction, Forcing
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
    """Lattice solution with its residual report."""

    fieldobj: GridField
    values: np.ndarray
    residual: float
    scale: float
    solver: str


def assemble_and_solve(problem: EllipticProblem) -> EllipticSolution:
    """Solve the assembled sparse system, CG when definite, dense otherwise.

    Interior rows read b(x) * (Laplacian row) - sigma(x) * (identity row);
    rows where both coefficients vanish degenerate to 0 = 0 and are
    replaced by plain Laplacian rows (harmonic filler), which keeps the
    b -> 0 limit continuous.  Boundary rows are identities pinned to h.
    Raises SingularSystemError when no solver produces a reliable result.
    """
    fieldobj = field_from_classification(problem.classification)
    shape = fieldobj.shape
    dx2 = problem.dx**2

    m = int(np.count_nonzero(fieldobj.interior))
    if m == 0:
        raise SingularSystemError("no interior points to solve on")

    bvals = sample_window(problem.b, fieldobj)[fieldobj.interior]
    svals = sample_window(problem.sigma, fieldobj)[fieldobj.interior]
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

    # Neighbours by flat-index arithmetic on the window grown by one ring,
    # so no neighbour of an interior point wraps around an edge.  The
    # blocks run diag, axis 0 -/+, axis 1 -/+, ..., which fixes the order
    # in which each row's boundary terms are summed into the rhs.
    grown = tuple(s + 2 for s in shape)
    interior = np.pad(fieldobj.interior, 1).ravel()
    boundary = np.pad(fieldobj.boundary, 1).ravel()
    centre = np.flatnonzero(interior)
    number = np.full(interior.size, -1)
    number[centre] = np.arange(m)
    h_grid = np.zeros(interior.size)
    h_grid[boundary] = hvals
    rows, cols, vals = [np.arange(m)], [np.arange(m)], [diag]
    rhs = np.zeros(m)
    for axis in range(len(shape)):
        stride = math.prod(grown[axis + 1:])
        for sign in (-1, 1):
            nb = centre + sign * stride
            inner, edge = interior[nb], boundary[nb]
            if not np.all(inner | edge):
                raise SingularSystemError(
                    "interior point has a neighbour outside the support"
                )
            rows.append(np.flatnonzero(inner))
            cols.append(number[nb[inner]])
            vals.append(off_scale[inner])
            rhs[edge] -= off_scale[edge] * h_grid[nb[edge]]
    rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))

    solver = "cg"
    if definite:
        v_int, info = spla.cg(matrix, rhs, rtol=1e-13, atol=0.0, maxiter=20 * m)
        if info != 0:
            solver = "dense"
    else:
        solver = "dense"
    if solver == "dense":
        if m > DENSE_LIMIT:
            raise SingularSystemError(
                f"indefinite system with {m} unknowns exceeds the dense limit"
            )
        try:
            v_int = np.linalg.solve(matrix.toarray(), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"dense solve failed: {exc}") from exc

    values = np.zeros(shape)
    values[fieldobj.interior] = v_int
    values[fieldobj.boundary] = hvals

    residual, scale = _residual(problem, fieldobj, values, bvals, svals)
    if not np.isfinite(residual) or residual > 1e-8 * max(scale, 1.0):
        raise SingularSystemError(
            f"solution residual {residual:.3e} too large (scale {scale:.3e})"
        )
    return EllipticSolution(fieldobj, values, residual, scale, solver)


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

    As in EllipticProblem and DiscreteProblem, `classification` is the
    lattice classification of (domain, spec.dx), built when not given;
    gridded f lives on its window.
    """

    spec: LatticeSpec
    domain: Domain
    f: Union[DataFunction, Callable, None] = None
    g: Union[DataFunction, Callable, None] = None
    h: Union[Callable, float] = 0.0
    b: Union[Callable, float] = 0.0
    sigma: Union[Callable, float] = 0.0
    forcing: Optional[Forcing] = None
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
    stepper or the Lagrange integrator; reconstruction adds v back.
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
        forcing=problem.forcing,
        classification=classification,
    )
    return SplitResult(elliptic, shifted, wave)
