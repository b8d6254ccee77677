"""Dispersion relation: symbol values, roots, and the semidiscrete limit."""

import math

import numpy as np
import pytest

from wavelattice import (
    CflViolationError,
    beta_arrays,
    beta_semidiscrete,
    symbol_G_arrays,
)
from wavelattice.dispersion import sinc


class TestSinc:
    def test_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_small_argument_series(self):
        for z in (1e-5, 1e-7, 1e-9):
            assert float(sinc(z)) == pytest.approx(1.0 - z * z / 6.0, abs=1e-16)

    def test_matches_ratio(self):
        z = 0.7
        assert float(sinc(z)) == pytest.approx(math.sin(z) / z, rel=1e-15)


class TestSymbolG:
    def test_reference_value(self):
        # alpha = (2,), beta^2 = 4, dx = 0.5, dt = 0.25; evaluated from the
        # definition -sinc^2(beta dt/2) beta^2 + sum sinc^2(a_k dx/2) a_k^2
        val = symbol_G_arrays(np.array([2.0]), 4.0, 0.5, 0.25)
        expected = -(math.sin(0.25) / 0.25) ** 2 * 4.0 + (
            math.sin(0.5) / 0.5
        ) ** 2 * 4.0
        assert val == pytest.approx(expected, rel=1e-15)
        assert val == pytest.approx(-0.23977646645319117, rel=1e-14)

    def test_degenerate_spacings(self):
        # dx = dt = 0 collapses to the continuum symbol -beta^2 + |alpha|^2
        val = symbol_G_arrays(np.array([3.0, 4.0]), 9.0, 0.0, 0.0)
        assert val == pytest.approx(-9.0 + 25.0, rel=1e-15)


class TestBeta:
    def test_unit_ratio_identity_1d(self):
        # at dt = dx in 1-D the scheme is dispersion-free: beta = |alpha|
        dx = dt = 0.1
        for a in (0.5, 3.0, -7.0, 12.0):
            if abs(a) * dx / 2.0 <= math.pi / 2.0:
                assert beta_arrays(np.array([a]), dx, dt) == pytest.approx(
                    abs(a), rel=1e-12
                )

    def test_root_of_symbol(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            dx = 0.2
            dt = 0.7 / math.sqrt(n) * dx
            alpha = rng.uniform(-math.pi / dx, math.pi / dx, size=n)
            b = beta_arrays(alpha, dx, dt)
            g = symbol_G_arrays(alpha, b**2, dx, dt)
            assert abs(g) <= 1e-11 * (1.0 + float(np.sum(alpha**2)))

    def test_semidiscrete_reference_value(self):
        # beta_0(2, 0.5) = 4 sin(0.5)
        val = beta_semidiscrete(np.array([2.0]), 0.5)
        assert val == pytest.approx(4.0 * math.sin(0.5), rel=1e-15)
        assert val == pytest.approx(1.917702154416812, rel=1e-14)

    def test_dt_to_zero_limit(self):
        alpha = np.array([1.5, -2.5])
        dx = 0.25
        b0 = beta_semidiscrete(alpha, dx)
        errs = [
            abs(beta_arrays(alpha, dx, dt) - b0) for dt in (1e-3, 5e-4, 2.5e-4)
        ]
        # second-order approach to the semidiscrete branch
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_dt_zero_exact(self):
        alpha = np.array([1.5, -2.5])
        assert beta_arrays(alpha, 0.25, 0.0) == beta_semidiscrete(alpha, 0.25)

    def test_cfl_violation_raises(self):
        dx = 0.1
        dt = 1.05 * dx  # ratio above 1/sqrt(1)
        alpha = np.array([math.pi / dx])
        with pytest.raises(CflViolationError):
            beta_arrays(alpha, dx, dt)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(13)
        dx, dt = 0.2, 0.1
        alphas = rng.uniform(-10.0, 10.0, size=(20, 2))
        batch = beta_arrays(alphas, dx, dt)
        singles = np.array([beta_arrays(a, dx, dt) for a in alphas])
        assert np.array_equal(batch, singles)
