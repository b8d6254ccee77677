"""Elliptic solver and the variable-coefficient splitting."""

import re
from dataclasses import replace

import numpy as np
import pytest

from wavelattice import (
    DataFunction,
    Domain,
    EllipticProblem,
    LatticeSpec,
    SingularSystemError,
    assemble_and_solve,
    split_pipeline,
)
from wavelattice import elliptic
from wavelattice.harness import default_config, run_experiment
from wavelattice.lattice import classify
from wavelattice.stencils import (
    field_from_classification,
    lattice_points,
    sample_window,
)


class TestAssembleAndSolve:
    def test_linear_exactness_1d(self):
        # b = sigma = 0 with linear boundary data: the 3-point stencil is
        # exact, u(x) = h(x) at every lattice point
        h = lambda x: 2.0 * x[0] + 1.0
        sol = assemble_and_solve(
            EllipticProblem(domain=Domain.box([(0.0, 1.0)]), dx=0.25, h=h)
        )
        pts = lattice_points(sol.fieldobj)
        for off in np.ndindex(sol.fieldobj.shape):
            if sol.fieldobj.support[off]:
                assert sol.values[off] == pytest.approx(
                    h(pts[off]), abs=1e-12
                )
        assert sol.residual <= 1e-9 * sol.scale

    def test_dense_oracle_1d(self):
        # (0,1), dx = 0.25, b = sigma = 1: three interior unknowns; compare
        # against an independently assembled dense system
        dx = 0.25
        h = lambda x: np.cos(3.0 * x[0])
        sol = assemble_and_solve(
            EllipticProblem(domain=Domain.box([(0.0, 1.0)]), dx=dx,
                            b=1.0, sigma=1.0, h=h)
        )
        # interior rows read b Lap v - sigma v = 0 with Dirichlet data h
        main = -2.0 / dx**2 - 1.0
        off = 1.0 / dx**2
        A = np.array([[main, off, 0.0], [off, main, off], [0.0, off, main]])
        rhs = np.zeros(3)
        rhs[0] -= off * h(np.array([0.0]))
        rhs[2] -= off * h(np.array([1.0]))
        expected = np.linalg.solve(A, rhs)
        got = sol.values[sol.fieldobj.positions([(1,), (2,), (3,)])]
        assert np.allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("b, sigma", [
        # definite: b > 0, sigma >= 0
        (lambda x: 1.0 + 0.5 * x[0], lambda x: x[1]),
        # harmonic filler rows where b = sigma = 0 (x0 < 0.5); small b and
        # sigma elsewhere, so the filler rows set the residual
        (lambda x: 0.0 if x[0] < 0.5 else 0.01 * (1.0 + x[1]),
         lambda x: 0.0 if x[0] < 0.5 else 0.02),
    ], ids=["definite", "filler"])
    def test_dense_oracle_2d(self, b, sigma):
        # unit square, dx = 0.25: the 3 x 3 interior unknowns (i, j),
        # 1 <= i, j <= 3, against a system assembled point by point
        dx = 0.25
        h = lambda x: np.cos(2.0 * x[0]) + x[0] * x[1]
        sol = assemble_and_solve(
            EllipticProblem(domain=Domain.box([(0.0, 1.0)] * 2), dx=dx,
                            b=b, sigma=sigma, h=h)
        )

        def coef(c, x):
            return float(c(x)) if callable(c) else float(c)

        def v(i, j):
            return sol.values[sol.fieldobj.positions([(i, j)])][0]

        unknowns = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        A = np.zeros((9, 9))
        rhs = np.zeros(9)
        residual = 0.0
        for row, (i, j) in enumerate(unknowns):
            x = np.array([i * dx, j * dx])
            bx, sx = coef(b, x), coef(sigma, x)
            lap = (v(i + 1, j) - 2.0 * v(i, j) + v(i - 1, j)) / dx**2
            lap += (v(i, j + 1) - 2.0 * v(i, j) + v(i, j - 1)) / dx**2
            residual = max(residual, abs(bx * lap - sx * v(i, j)))
            if bx == 0.0 and sx == 0.0:
                bx = 1.0  # harmonic filler: Lap v = 0, judged on Lap v
                residual = max(residual, abs(lap))
            A[row, row] = -4.0 * bx / dx**2 - sx
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in unknowns:
                    A[row, unknowns.index(nb)] = bx / dx**2
                else:
                    rhs[row] -= bx / dx**2 * h(np.array(nb) * dx)
        expected = np.linalg.solve(A, rhs)
        got = sol.values[sol.fieldobj.positions(unknowns)]
        assert np.allclose(got, expected, rtol=0.0, atol=1e-10)
        for i in range(5):
            for j in range(5):
                if (i, j) not in unknowns:
                    assert v(i, j) == h(np.array([i, j]) * dx)
        assert sol.residual == residual
        assert sol.residual <= 1e-9 * sol.scale

    @pytest.mark.parametrize("b, sigma", [
        # Lap v + 20 v has eigenvalues of both signs here
        (1.0, -20.0),
        # b < 0 left of x0 = 0.5, where b = sigma = 0 is a filler row
        (lambda x: x[0] - 0.5, 0.0),
        # b = 0 under sigma > 0 is no filler row
        (lambda x: 0.0 if x[0] < 0.5 else 1.0, 1.0),
    ], ids=["indefinite", "b-negative", "b-zero"])
    def test_indefinite_system_raises(self, b, sigma):
        # only b > 0 and sigma >= 0 give the SPD system that CG solves
        with pytest.raises(SingularSystemError, match="indefinite"):
            assemble_and_solve(
                EllipticProblem(domain=Domain.box([(0.0, 1.0)] * 2), dx=0.25,
                                b=b, sigma=sigma, h=1.0)
            )

    def test_unconverged_cg_raises(self, monkeypatch):
        # CG stopped after one step reports that it did not converge
        cg = elliptic.spla.cg
        monkeypatch.setattr(elliptic.spla, "cg",
                            lambda *args, **kwargs: cg(*args, **{**kwargs,
                                                              "maxiter": 1}))
        with pytest.raises(SingularSystemError, match="did not converge"):
            assemble_and_solve(
                EllipticProblem(domain=Domain.ball((0.0, 0.0), 1.0), dx=0.2,
                                b=lambda x: 1.0 + 0.5 * x[0], sigma=2.0,
                                h=lambda x: np.cos(x[0]) * x[1])
            )

    def test_constant_boundary_gives_constant(self):
        # sigma = 0: constants are harmonic, so u = c everywhere
        sol = assemble_and_solve(
            EllipticProblem(domain=Domain.box([(0.0, 1.0), (0.0, 1.0)]),
                            dx=0.25, b=lambda x: 0.2 * x[0], h=3.0)
        )
        assert np.allclose(sol.values[sol.fieldobj.support], 3.0, atol=1e-11)

    def test_ball_variable_coefficients_residual(self):
        sol = assemble_and_solve(
            EllipticProblem(
                domain=Domain.ball((0.0, 0.0), 1.0), dx=0.2,
                b=lambda x: 0.1 * np.cos(x[0]),
                sigma=lambda x: 0.05 * (1.0 + x[1] ** 2),
                h=lambda x: x[0] * x[1],
            )
        )
        assert sol.residual <= 1e-9 * sol.scale

    def test_ball_matches_dense_solve(self):
        # a definite problem on a ball: CG preconditioned by the box solve
        # restricted to the ball's mask agrees with a dense solve of the
        # same rows assembled point by point
        dx = 0.2
        b = lambda x: 1.0 + 0.5 * x[0]
        sigma = lambda x: 2.0 + x[1]
        h = lambda x: np.cos(x[0]) * x[1]
        sol = assemble_and_solve(
            EllipticProblem(domain=Domain.ball((0.0, 0.0), 1.0), dx=dx,
                            b=b, sigma=sigma, h=h)
        )
        interior = sol.fieldobj.interior
        # the mask is not its bounding box: R B^-1 R^T is not B^-1
        assert not interior[np.ix_(interior.any(axis=1), interior.any(axis=0))].all()
        assert np.count_nonzero(interior) <= 200  # a small dense oracle
        pts = lattice_points(sol.fieldobj)
        unknowns = [tuple(i) for i in np.argwhere(interior)]
        number = {idx: row for row, idx in enumerate(unknowns)}
        A = np.zeros((len(unknowns), len(unknowns)))
        rhs = np.zeros(len(unknowns))
        for row, idx in enumerate(unknowns):
            bx, sx = b(pts[idx]), sigma(pts[idx])
            A[row, row] = -4.0 * bx / dx**2 - sx
            for axis in range(2):
                for sign in (-1, 1):
                    nb = list(idx)
                    nb[axis] += sign
                    nb = tuple(nb)
                    if nb in number:
                        A[row, number[nb]] = bx / dx**2
                    else:
                        assert sol.fieldobj.boundary[nb]
                        rhs[row] -= bx / dx**2 * h(pts[nb])
        expected = np.linalg.solve(A, rhs)
        assert np.allclose(sol.values[interior], expected, rtol=0.0, atol=1e-10)

    def test_no_interior_raises(self):
        with pytest.raises(SingularSystemError):
            assemble_and_solve(
                EllipticProblem(domain=Domain.box([(0.0, 0.25)]), dx=0.25)
            )


class TestSplitPipeline:
    F = DataFunction.gaussian([0.5], 0.08)

    def _problem(self, **kw):
        return EllipticProblem(domain=Domain.box([(0.0, 1.0)]), dx=0.1, **kw)

    def test_trivial_split_is_identity(self):
        # b = sigma = h = 0: the elliptic part vanishes and the shifted
        # data equal the original samples bit for bit
        elliptic, shifted = split_pipeline(self._problem(), self.F)
        assert np.all(elliptic.values == 0.0)
        pts = lattice_points(elliptic.fieldobj)
        flat = pts.reshape(-1, 1)
        samples = np.array([float(self.F(p)) for p in flat]).reshape(pts.shape[:-1])
        assert np.array_equal(shifted, samples)

    def test_constant_h_shifts_by_constant(self):
        c = 0.4
        elliptic, shifted = split_pipeline(self._problem(h=c), self.F)
        support = elliptic.fieldobj.support
        assert np.allclose(elliptic.values[support], c, atol=1e-11)
        # adding v back undoes the shift
        samples = sample_window(self.F, elliptic.fieldobj)
        assert np.allclose((shifted + elliptic.values)[support],
                           samples[support], rtol=0.0, atol=1e-15)

    def test_given_classification_changes_nothing(self):
        # a classification handed in (E7 builds one to sample f on its
        # window) is used as is and gives the split of a fresh one
        problem = self._problem(h=0.4, b=0.1)
        classification = classify(problem.domain, LatticeSpec(1, 0.1, 0.05, 0.5))
        gridded = sample_window(self.F, field_from_classification(classification))
        fresh_v, fresh = split_pipeline(problem, gridded)
        given_v, given = split_pipeline(
            replace(problem, classification=classification), gridded)
        assert given_v.fieldobj.spec is classification.spec
        assert np.array_equal(given, fresh)
        assert np.array_equal(given_v.values, fresh_v.values)


def _cg_iterations(notes):
    return [int(k) for k in re.findall(r"\((\d+) CG iterations\)", "\n".join(notes))]


@pytest.mark.parametrize("n, levels", [(2, 4), (3, 3)])
def test_box_preconditioner_bounds_e7_iterations(n, levels):
    # the fast-Poisson preconditioner is the exact inverse of E7's operator
    # with sigma/b replaced by its mean, so CG needs a few steps at any dx
    result = run_experiment(default_config("E7", n=n, levels=levels))
    iterations = _cg_iterations(result.notes)
    assert len(iterations) == levels
    assert max(iterations) <= 8

