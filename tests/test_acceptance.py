"""Acceptance suite: the ten gate criteria, one pass/fail line each.

Every test prints "ACCEPTANCE <k> <name>: PASS" on success (pytest -v -s
shows the lines); tolerances are pinned to the stated values.
"""

import math
import time

import numpy as np
import pytest

from wavelattice import (
    DataFunction,
    DiscreteProblem,
    Domain,
    EllipticProblem,
    FrequencyQuadrature,
    LatticeSpec,
    assemble_and_solve,
    beta_arrays,
    integrate,
    phi_reference_error,
    set_initial_data,
    solve,
    symbol_G_arrays,
)
from wavelattice.lagrange import LagrangeSystem
from wavelattice.lattice import point_indices
from wavelattice.stencils import crop_centre, field_from_classification
from test_stencils import fn_discrete_dalembert
from wavelattice.harness import (
    default_config,
    propagator_degeneration,
    run_experiment,
)

SEED = 20260826


def _report(k, name, elapsed, budget):
    print(f"\nACCEPTANCE {k} {name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


def test_acceptance_01_dispersion_root():
    start = time.time()
    rng = np.random.default_rng(SEED)
    per_dim = 10_000 // 3 + 1
    for n in (1, 2, 3):
        dx = 10.0 ** rng.uniform(-2.0, 0.0, size=per_dim)
        dt = rng.uniform(0.05, 0.999, size=per_dim) / math.sqrt(n) * dx
        alpha = rng.uniform(-1.0, 1.0, size=(per_dim, n)) * (math.pi / dx)[:, None]
        beta = beta_arrays(alpha, dx, dt)
        g = symbol_G_arrays(alpha, beta**2, dx, dt)
        bound = 1e-11 * (1.0 + np.sum(alpha**2, axis=-1))
        assert np.all(np.abs(g) <= bound)
    _report(1, "dispersion-root", time.time() - start, 5.0)


def test_acceptance_02_plane_wave_annihilation():
    start = time.time()
    rng = np.random.default_rng(SEED + 1)
    count = 0
    while count < 1000:
        n = int(rng.integers(1, 4))
        # dt bounded below: the centered quotients divide by dt^2, so the
        # exact cancellation is only observable above the roundoff floor
        dx = float(10.0 ** rng.uniform(-1.0, -0.3))
        dt = float(rng.uniform(0.3, 0.99)) / math.sqrt(n) * dx
        alpha = rng.uniform(-0.9, 0.9, size=n) * math.pi / dx
        beta = float(beta_arrays(alpha, dx, dt))

        def u(x, t, alpha=alpha, beta=beta):
            return math.cos(float(np.dot(alpha, x)) + beta * t)

        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=n)
            t = float(rng.uniform(-1.0, 1.0))
            resid = fn_discrete_dalembert(u, x, t, dx, dt, n)
            assert abs(resid) <= 1e-10
            count += 1
    _report(2, "plane-wave-annihilation", time.time() - start, 5.0)


def test_acceptance_03_seno_bound():
    start = time.time()
    from wavelattice.harness import audit_seno_bound

    T = 1.0
    violation = audit_seno_bound(1, T, 5000, SEED + 2)
    assert violation <= 1e-12 * T
    violation = audit_seno_bound(2, T, 5000, SEED + 3)
    assert violation <= 1e-12 * T
    _report(3, "seno-bound", time.time() - start, 5.0)


def test_acceptance_04_keystone_identity():
    start = time.time()
    dx = 1.0 / 512
    dt = dx / 2.0
    spec = LatticeSpec(1, dx, dt, 200 * dt)
    # [-0.25, 0.25] grown by steps + 2 rings: 661 compared points
    reach = 0.25 + (spec.steps + 2) * dx
    domain = Domain.full_space([(-reach, reach)])
    f = DataFunction.gaussian([0.0], 0.05)
    g = DataFunction.gaussian([0.02], 0.04, amplitude=0.3)
    problem = DiscreteProblem(spec=spec, domain=domain, f=f, g=g)
    leap = solve(problem, t_range=(0.0, spec.T))
    assert leap.shape == (661,)
    # Verlet has no cone: run it on the window padded by steps + 2 rings
    fieldobj = field_from_classification(problem.classification,
                                         pad=spec.steps + 2)
    system = LagrangeSystem(dx=dx, fieldobj=fieldobj)
    set_initial_data(system, f, g)
    out = integrate(system, 0.0, spec.T, dt)
    assert np.array_equal(crop_centre(out[spec.T], leap.shape),
                          leap.level_array(spec.steps))
    _report(4, "keystone-identity", time.time() - start, 1.0)


def test_acceptance_05_joint_limit_e1():
    start = time.time()
    for n in (1, 2):
        result = run_experiment(default_config("E1", n=n, levels=5))
        assert result.passed, result.notes
        for table in result.tables.values():
            assert len(table.rows) == 5  # >= 4 halvings
            assert table.monotone_decreasing()
            assert 1.7 <= table.final_order() <= 2.3
    _report(5, "joint-limit-E1", time.time() - start, 120.0)


def test_acceptance_06_iterated_limit_e3_e4():
    start = time.time()
    r3 = run_experiment(default_config("E3", n=1))
    assert r3.passed, r3.notes
    r4 = run_experiment(default_config("E4", n=1, levels=4))
    assert r4.passed, r4.notes
    orders = r4.tables["phi_vs_u"].observed_orders[1:]
    assert all(1.7 <= o <= 2.3 for o in orders)
    _report(6, "iterated-limit-E3-E4", time.time() - start, 60.0)


def test_acceptance_07_cfl_asymmetry_e5():
    start = time.time()
    result = run_experiment(default_config("E5", n=1))
    assert result.passed, result.notes
    assert any("blowup detected" in line for line in result.notes)
    assert any("arcsin argument 1.05" in line for line in result.notes)
    _report(7, "cfl-asymmetry-E5", time.time() - start, 30.0)


def test_acceptance_08_duhamel_e6():
    start = time.time()
    result = run_experiment(default_config("E6", n=1))
    assert result.passed, result.notes
    table = result.tables["duhamel"]
    assert table.rows[0].sup_error <= 1e-6  # single-frequency oracle
    spec_err = table.rows[1]
    assert spec_err.sup_error <= 5.0 * (spec_err.dx**2 + spec_err.dt**2)
    _report(8, "duhamel-E6", time.time() - start, 30.0)


def test_acceptance_09_elliptic_splitting_e7():
    start = time.time()
    # (EL)_{dx} residual on a batch of test problems
    problems = [
        EllipticProblem(Domain.box([(0, 1)]), 0.05, b=0.5, sigma=0.25,
                        h=lambda x: 1.0 + x[0]),
        EllipticProblem(Domain.box([(0, 1), (0, 1)]), 0.125,
                        b=lambda x: 0.2 + 0.1 * x[0], sigma=0.1, h=0.3),
        EllipticProblem(Domain.ball((0.0, 0.0), 1.0), 0.125, b=1.0,
                        sigma=lambda x: 0.5 * (x[0] ** 2 + x[1] ** 2), h=1.0),
    ]
    for prob in problems:
        sol = assemble_and_solve(prob)
        assert sol.residual <= 1e-9 * max(sol.scale, 1.0)
    # linear-data exactness in 1-D: harmonic solution of b Lap v = 0
    lin = assemble_and_solve(
        EllipticProblem(Domain.box([(0, 1)]), 0.25, b=1.0, sigma=0.0,
                        h=lambda x: 2.0 * x[0] - 0.5)
    )
    at = lin.fieldobj.positions(point_indices([[0.25], [0.5], [0.75]], 0.25))
    assert np.all(np.abs(lin.values[at] - np.array([0.0, 0.5, 1.0])) <= 1e-12)
    # E7 self-convergence
    result = run_experiment(default_config("E7", n=1, levels=4))
    assert result.passed, result.notes
    orders = result.tables["pipeline"].observed_orders[1:]
    print(f"\n  E7 self-convergence orders: {[f'{o:.2f}' for o in orders]}")
    assert orders and orders[-1] >= 1.0
    _report(9, "elliptic-splitting-E7", time.time() - start, 60.0)


def test_acceptance_10_propagator_degeneration():
    start = time.time()
    chain_dt, chain_dx = propagator_degeneration(1, 100, SEED + 4)
    assert chain_dt.final_order() >= 1.9
    assert chain_dx.final_order() >= 1.9
    _report(10, "propagator-degeneration", time.time() - start, 10.0)
