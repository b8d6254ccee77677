"""Discrete dispersion relation of the explicit scheme.

The symbol G(alpha, beta^2, dx, dt) vanishes exactly on discrete plane
waves e^{i(alpha.x + beta t)}.  Under the CFL bound the temporal frequency
has the closed form beta = (2/dt) * arcsin((dt/dx) * sqrt(sum_k
sin^2(alpha_k dx/2))), with branch beta*dt/2 in [0, pi/2].  Setting dt = 0
gives the semidiscrete frequency beta0, and dx = dt = 0 recovers |alpha|.
"""

from __future__ import annotations

import numpy as np

from .errors import CflViolationError

#: below this |z| the sinc factors switch to their Taylor series
_SERIES_CUT = 1e-4


def sinc(z):
    """sin(z)/z with the removable singularity filled by a 4-term series."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _SERIES_CUT
    safe = np.where(small, 1.0, z)
    direct = np.sin(safe) / safe
    z2 = z * z
    series = 1.0 - z2 / 6.0 * (1.0 - z2 / 20.0 * (1.0 - z2 / 42.0))
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def _sin_half_sq_sum(alpha, dx):
    """sum_k sin^2(alpha_k dx/2), vectorized over trailing axis n."""
    alpha = np.asarray(alpha, dtype=float)
    return np.sum(np.sin(alpha * (dx / 2.0)) ** 2, axis=-1)


def symbol_G_arrays(alpha, beta_sq, dx, dt):
    """The eigenvalue of the discrete d'Alembertian at e^{i(alpha.x+beta t)}.

    Total in all arguments; dt = 0 and dx = 0 degenerate smoothly through
    the filled sinc singularities, so G(alpha, beta^2, 0, 0) = -beta^2 +
    |alpha|^2.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta_sq = np.asarray(beta_sq, dtype=float)
    beta = np.sqrt(beta_sq)
    dx = np.asarray(dx, dtype=float)
    dt = np.asarray(dt, dtype=float)
    tpart = sinc(beta * dt / 2.0) ** 2 * beta_sq
    xpart = np.sum(sinc(alpha * dx[..., None] / 2.0) ** 2 * alpha**2, axis=-1)
    out = -tpart + xpart
    return out if np.ndim(out) else float(out)


def beta_arrays(alpha, dx, dt):
    """Closed-form positive root of G = 0, vectorized.

    alpha has shape (..., n); dx and dt broadcast against the leading
    shape, and dt is either 0 everywhere (the semidiscrete frequency) or
    positive everywhere.  Raises CflViolationError when the arcsin argument
    exceeds 1 + 1e-12 anywhere (inadmissible lattice; the complex regime is
    out of scope).
    """
    alpha = np.asarray(alpha, dtype=float)
    dx = np.asarray(dx, dtype=float)
    dt = np.asarray(dt, dtype=float)
    s = np.sqrt(_sin_half_sq_sum(alpha, dx[..., None] if dx.ndim else dx))
    if np.all(dt == 0.0):
        out = (2.0 / dx) * s
        return out if np.ndim(out) else float(out)
    arg = (dt / dx) * s
    if np.any(arg > 1.0 + 1e-12):
        raise CflViolationError(
            f"arcsin argument {float(np.max(arg)):.6g} > 1: lattice violates CFL"
        )
    out = (2.0 / dt) * np.arcsin(np.clip(arg, 0.0, 1.0))
    return out if np.ndim(out) else float(out)


def beta_semidiscrete(alpha, dx):
    """The dt -> 0 limit (2/dx) * sqrt(sum_k sin^2(alpha_k dx/2))."""
    out = (2.0 / dx) * np.sqrt(_sin_half_sq_sum(alpha, dx))
    return out if np.ndim(out) else float(out)

