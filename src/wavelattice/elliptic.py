"""Discrete elliptic problem and the variable-coefficient splitting.

The stationary problem b(x) Lap_dx v = sigma(x) v with Dirichlet data h
absorbs the variable coefficients of the full wave problem: writing the
velocity as a(x) = 1 + b(x) and the solution as u = phi + v leaves a
constant-coefficient wave problem for phi with zero boundary values and
shifted initial displacement f - v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystemError
from .lattice import Domain, LatticeSpec, classify
from .leapfrog import DiscreteProblem
from .spectral import DataFunction, Forcing, sample
from .stencils import GridField, field_from_classification, lattice_points

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

    def value_at(self, x) -> float:
        off = self.fieldobj.offset(self.fieldobj.index_of_point(x))
        return float(self.values[off])


def assemble_and_solve(problem: EllipticProblem) -> EllipticSolution:
    """Solve the assembled sparse system, CG when definite, dense otherwise.

    Interior rows read b(x) * (Laplacian row) - sigma(x) * (identity row);
    rows where both coefficients vanish degenerate to 0 = 0 and are
    replaced by plain Laplacian rows (harmonic filler), which keeps the
    b -> 0 limit continuous.  Boundary rows are identities pinned to h.
    Raises SingularSystemError when no solver produces a reliable result.
    """
    fieldobj = field_from_classification(problem.classification)
    points = lattice_points(fieldobj)
    flat_points = points.reshape(-1, points.shape[-1])
    shape = fieldobj.shape
    dx2 = problem.dx**2

    interior_idx = np.flatnonzero(fieldobj.interior.ravel())
    boundary_idx = np.flatnonzero(fieldobj.boundary.ravel())
    m = len(interior_idx)
    if m == 0:
        raise SingularSystemError("no interior points to solve on")

    bvals = sample(problem.b, flat_points[interior_idx])
    svals = sample(problem.sigma, flat_points[interior_idx])
    hvals = sample(problem.h, flat_points[boundary_idx])

    # harmonic filler where the operator row would vanish identically
    degenerate = (bvals == 0.0) & (svals == 0.0)
    b_eff = np.where(degenerate, 1.0, bvals)
    s_eff = np.where(degenerate, 0.0, svals)

    pos = {int(j): k for k, j in enumerate(interior_idx)}
    bpos = {int(j): k for k, j in enumerate(boundary_idx)}
    strides = np.array(
        [int(np.prod(shape[k + 1:])) for k in range(len(shape))], dtype=int
    )

    definite = bool(np.all(b_eff > 0.0) and np.all(s_eff >= 0.0))
    rows, cols, vals = [], [], []
    rhs = np.zeros(m)
    n = problem.domain.n
    for k, j in enumerate(interior_idx):
        if definite:
            # symmetrized: -Lap v + (sigma/b) v = boundary contributions
            diag = 2.0 * n / dx2 + s_eff[k] / b_eff[k]
            off_scale = -1.0 / dx2
        else:
            diag = -2.0 * n / dx2 * b_eff[k] - s_eff[k]
            off_scale = b_eff[k] / dx2
        rows.append(k)
        cols.append(k)
        vals.append(diag)
        for axis in range(len(shape)):
            for s in (-1, 1):
                nb = int(j + s * strides[axis])
                if nb in pos:
                    rows.append(k)
                    cols.append(pos[nb])
                    vals.append(off_scale)
                elif nb in bpos:
                    rhs[k] -= off_scale * hvals[bpos[nb]]
                else:
                    raise SingularSystemError(
                        "interior point has a neighbour outside the support"
                    )
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
    values.ravel()[interior_idx] = v_int
    values.ravel()[boundary_idx] = hvals

    residual, scale = _residual(problem, fieldobj, values, bvals, svals,
                                interior_idx, strides)
    if not np.isfinite(residual) or residual > 1e-8 * max(scale, 1.0):
        raise SingularSystemError(
            f"solution residual {residual:.3e} too large (scale {scale:.3e})"
        )
    return EllipticSolution(fieldobj, values, residual, scale, solver)


def _residual(problem, fieldobj, values, bvals, svals, interior_idx, strides):
    """Infinity norm of b*Lap v - sigma*v on interior points, plus a scale."""
    flat = values.ravel()
    dx2 = problem.dx**2
    res = 0.0
    scale = 1.0
    for k, j in enumerate(interior_idx):
        lap = 0.0
        for axis in range(len(strides)):
            lap += (
                flat[j + strides[axis]] - 2.0 * flat[j] + flat[j - strides[axis]]
            ) / dx2
        term_b = bvals[k] * lap
        term_s = svals[k] * flat[j]
        if bvals[k] == 0.0 and svals[k] == 0.0:
            term_b = lap  # harmonic filler rows are judged on Lap v itself
        res = max(res, abs(term_b - term_s))
        scale = max(scale, abs(term_b) + abs(term_s))
    return res, scale


@dataclass
class VariableCoefficientProblem:
    """The full wave problem with velocity a = 1 + b and flexibility sigma."""

    spec: LatticeSpec
    domain: Domain
    f: Union[DataFunction, Callable, None] = None
    g: Union[DataFunction, Callable, None] = None
    h: Union[Callable, float] = 0.0
    b: Union[Callable, float] = 0.0
    sigma: Union[Callable, float] = 0.0
    forcing: Optional[Forcing] = None


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
    classification = classify(problem.domain, problem.spec)
    elliptic = assemble_and_solve(
        EllipticProblem(
            domain=problem.domain, dx=problem.spec.dx,
            b=problem.b, sigma=problem.sigma, h=problem.h,
            classification=classification,
        )
    )
    fieldobj = elliptic.fieldobj
    shifted = sample(problem.f, lattice_points(fieldobj)) - elliptic.values
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
