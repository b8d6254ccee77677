"""Frequency-domain reference solutions and propagators.

Everything here synthesizes solutions from Fourier data: the continuum
solution, the fully discrete closed form, the semidiscrete closed form,
the 2x2 propagator matrices of the first-order system, and the
variation-of-constants (Duhamel) solution of forced problems.  These are
the oracles against which the time steppers are validated, so the
quadrature deliberately mirrors the frequency-splitting structure: a
tensor-product Gauss-Legendre rule on [-M, M]^n plus a closed-form tail
bound for Gaussian-decay data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dispersion import beta_arrays, sinc
from .errors import SGridMisalignedError, TailBoundError
from .lattice import LatticeSpec, grid_points

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# data catalog


@dataclass(frozen=True)
class DataFunction:
    """A smooth scalar field from the built-in catalog.

    Gaussian-type kinds carry a closed-form Fourier transform and decay
    parameters used for tail bounds.  Plane-wave and separable-cosine
    kinds are single-frequency: solution synthesis short-circuits the
    quadrature for them.  The bump kind gets a numeric transform.
    """

    kind: str
    center: Optional[tuple] = None
    width: Optional[float] = None
    amplitude: float = 1.0
    alpha0: Optional[tuple] = None
    carrier: Optional[tuple] = None
    radius: Optional[float] = None
    n: int = 1

    # -- constructors

    @staticmethod
    def gaussian(center, width, amplitude=1.0) -> "DataFunction":
        center = tuple(np.atleast_1d(np.asarray(center, dtype=float)))
        return DataFunction(
            "gaussian", center=center, width=float(width),
            amplitude=float(amplitude), n=len(center),
        )

    @staticmethod
    def modulated_gaussian(center, width, carrier, amplitude=1.0) -> "DataFunction":
        center = tuple(np.atleast_1d(np.asarray(center, dtype=float)))
        carrier = tuple(np.atleast_1d(np.asarray(carrier, dtype=float)))
        return DataFunction(
            "modulated_gaussian", center=center, width=float(width),
            carrier=carrier, amplitude=float(amplitude), n=len(center),
        )

    @staticmethod
    def plane_wave(alpha0) -> "DataFunction":
        alpha0 = tuple(np.atleast_1d(np.asarray(alpha0, dtype=float)))
        return DataFunction("plane_wave", alpha0=alpha0, n=len(alpha0))

    @staticmethod
    def separable_cosine(alpha0) -> "DataFunction":
        alpha0 = tuple(np.atleast_1d(np.asarray(alpha0, dtype=float)))
        return DataFunction("separable_cosine", alpha0=alpha0, n=len(alpha0))

    @staticmethod
    def smooth_bump(center, radius, amplitude=1.0) -> "DataFunction":
        center = tuple(np.atleast_1d(np.asarray(center, dtype=float)))
        return DataFunction(
            "smooth_bump", center=center, radius=float(radius),
            amplitude=float(amplitude), n=len(center),
        )

    @property
    def single_frequency(self) -> Optional[np.ndarray]:
        if self.kind in ("plane_wave", "separable_cosine"):
            return np.asarray(self.alpha0, dtype=float)
        return None

    # -- evaluation

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        pts = np.atleast_2d(x)
        if self.kind == "gaussian":
            c = np.asarray(self.center)
            r2 = np.sum((pts - c) ** 2, axis=-1)
            vals = self.amplitude * np.exp(-r2 / (2.0 * self.width**2))
        elif self.kind == "modulated_gaussian":
            c = np.asarray(self.center)
            k = np.asarray(self.carrier)
            r2 = np.sum((pts - c) ** 2, axis=-1)
            vals = (
                self.amplitude
                * np.exp(-r2 / (2.0 * self.width**2))
                * np.cos((pts - c) @ k)
            )
        elif self.kind == "plane_wave":
            vals = np.cos(pts @ np.asarray(self.alpha0))
        elif self.kind == "separable_cosine":
            vals = np.prod(np.cos(pts * np.asarray(self.alpha0)), axis=-1)
        elif self.kind == "smooth_bump":
            c = np.asarray(self.center)
            s2 = np.sum((pts - c) ** 2, axis=-1) / self.radius**2
            inside = s2 < 1.0
            safe = np.where(inside, s2, 0.0)
            vals = np.where(
                inside,
                self.amplitude * np.exp(1.0 - 1.0 / (1.0 - safe)),
                0.0,
            )
        else:
            raise ValueError(f"unknown data kind {self.kind!r}")
        return float(vals[0]) if squeeze else vals

    def fourier(self, alpha) -> np.ndarray:
        """Fourier transform (2pi)^{-n/2} integral of f e^{-i alpha.x}.

        Closed form for Gaussian kinds, numeric Gauss-Legendre over the
        support for the bump; single-frequency kinds have no integrable
        transform and must go through the synthesis shortcut instead.
        """
        alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
        if self.kind == "gaussian":
            c = np.asarray(self.center)
            w = self.width
            mag = self.amplitude * w**self.n * np.exp(
                -(w**2) * np.sum(alpha**2, axis=-1) / 2.0
            )
            return mag * np.exp(-1j * (alpha @ c))
        if self.kind == "modulated_gaussian":
            c = np.asarray(self.center)
            k = np.asarray(self.carrier)
            w = self.width
            mag = 0.5 * self.amplitude * w**self.n * (
                np.exp(-(w**2) * np.sum((alpha - k) ** 2, axis=-1) / 2.0)
                + np.exp(-(w**2) * np.sum((alpha + k) ** 2, axis=-1) / 2.0)
            )
            return mag * np.exp(-1j * (alpha @ c))
        if self.kind == "smooth_bump":
            return self._bump_transform(alpha)
        raise ValueError(f"{self.kind} has no integrable Fourier transform")

    def _bump_transform(self, alpha, nodes_per_axis=64):
        z, w = leggauss(nodes_per_axis)
        pts = grid_points([c + self.radius * z for c in self.center]).reshape(-1, self.n)
        weight = np.prod(
            grid_points([self.radius * w] * self.n).reshape(-1, self.n), axis=-1)
        vals = self(pts) * weight
        phases = np.exp(-1j * (alpha @ pts.T))
        return (phases @ vals) / _TWO_PI ** (self.n / 2.0)

    def decay_envelope(self) -> Optional[tuple]:
        """(A, w) with |f^(alpha)| <= A exp(-w^2 |alpha|^2 / 2), when known."""
        if self.kind == "gaussian":
            return self.amplitude * self.width**self.n, self.width
        if self.kind == "modulated_gaussian":
            # conservative: shift the envelope by the carrier magnitude
            kmag = float(np.linalg.norm(self.carrier))
            return (
                self.amplitude
                * self.width**self.n
                * math.exp(self.width**2 * kmag**2 / 2.0 + self.width * kmag),
                self.width,
            )
        return None


def sample(data, points) -> np.ndarray:
    """Values of `data` on `points` (shape (..., n)), shaped points.shape[:-1].

    None gives 0 and a number that constant.  An array is copied and must
    already have that shape.  A DataFunction is evaluated once on the flat
    (m, n) points.  Any other callable takes one point x, with x[k] its
    k-th coordinate, so it is evaluated point by point.
    """
    points = np.asarray(points, dtype=float)
    shape = points.shape[:-1]
    if data is None:
        return np.zeros(shape)
    if isinstance(data, np.ndarray):
        if data.shape != shape:
            raise ValueError(
                f"gridded data of shape {data.shape} does not match the "
                f"lattice window {shape}"
            )
        return np.array(data, dtype=float)
    if not callable(data):
        return np.full(shape, float(data))
    flat = points.reshape(-1, points.shape[-1])
    if isinstance(data, DataFunction):
        vals = data(flat)
    else:
        vals = [float(data(p)) for p in flat]
    return np.asarray(vals, dtype=float).reshape(shape)


def gaussian_laplacian(data: DataFunction) -> Callable:
    """Closed-form spatial Laplacian of a Gaussian catalog entry."""
    if data.kind != "gaussian":
        raise ValueError("closed-form Laplacian only for the gaussian kind")
    c = np.asarray(data.center)
    w2 = data.width**2

    def lap(x):
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        r2 = np.sum((pts - c) ** 2, axis=-1)
        vals = data(pts) * (r2 / w2**2 - data.n / w2)
        return float(vals[0]) if x.ndim == 1 else vals

    return lap


# ---------------------------------------------------------------------------
# quadrature


@dataclass
class FrequencyQuadrature:
    """Tensor-product Gauss-Legendre rule on the frequency box [-M, M]^n."""

    n: int
    M: float
    nodes_per_axis: int
    nodes: np.ndarray  # (K, n)
    weights: np.ndarray  # (K,)

    @classmethod
    def build(cls, n: int, M: float, nodes_per_axis: int) -> "FrequencyQuadrature":
        z, w = leggauss(nodes_per_axis)
        nodes = grid_points([M * z] * n).reshape(-1, n)
        weights = np.prod(grid_points([M * w] * n).reshape(-1, n), axis=-1)
        return cls(n, M, nodes_per_axis, nodes, weights)

    @classmethod
    def for_data(cls, *data, T: float, tol: float = 1e-10,
                 nodes_per_axis: Optional[int] = None) -> "FrequencyQuadrature":
        """Choose M so the closed-form tail bound is below tol*(2 + 2T)."""
        envelopes = [d.decay_envelope() for d in data if d is not None]
        if any(e is None for e in envelopes) or not envelopes:
            raise ValueError("for_data needs Gaussian-decay catalog entries")
        n = data[0].n
        M = 1.0
        while gaussian_tail_bound(n, M, envelopes, T) > tol * (2.0 + 2.0 * T):
            M *= 1.25
            if M > 1e4:
                raise TailBoundError("no cutoff satisfies the tail tolerance")
        if nodes_per_axis is None:
            nodes_per_axis = 129 if n <= 2 else 33
        return cls.build(n, M, nodes_per_axis)

    def tail_bound(self, *data, T: float) -> float:
        envelopes = [d.decay_envelope() for d in data if d is not None]
        if any(e is None for e in envelopes):
            return 0.0  # single-frequency data bypass quadrature entirely
        return gaussian_tail_bound(self.n, self.M, envelopes, T)

    def doubled(self) -> "FrequencyQuadrature":
        return FrequencyQuadrature.build(self.n, self.M, 2 * self.nodes_per_axis)

    @property
    def axis_nodes(self) -> np.ndarray:
        """The K nodes of one axis (the last axis runs fastest in `nodes`)."""
        return self.nodes[:self.nodes_per_axis, -1]


def synthesize(quad: FrequencyQuadrature, spectrum, points) -> np.ndarray:
    """Re (2pi)^{-n/2} sum_j w_j spectrum_j e^{i x.alpha_j} at each row x of
    the (m, n) `points`, for a spectrum given on the quadrature nodes.

    The tensor grid is contracted one axis at a time against per-axis
    factors e^{i x_k z}: the memory is O(K^n + m K^{n-1}) and m K n complex
    exponentials are formed, not m K^n.
    """
    n, K = quad.n, quad.nodes_per_axis
    z = quad.axis_nodes
    m = len(points)
    acc = np.exp(1j * np.multiply.outer(points[:, 0], z)) @ (
        (spectrum * quad.weights).reshape(K, -1))
    for k in range(1, n):
        factor = np.exp(1j * np.multiply.outer(points[:, k], z))[:, None, :]
        acc = (factor @ acc.reshape(m, K, -1))[:, 0, :]
    return acc[:, 0].real / _TWO_PI ** (n / 2.0)


def upper_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) for s = 1/2, 1, 3/2, ...

    Closed form from Q(1, x) = e^{-x}, Q(1/2, x) = erfc(sqrt x) and
    Q(a + 1, x) = Q(a, x) + x^a e^{-x} / Gamma(a + 1).
    """
    frac = s % 1.0
    total = math.erfc(math.sqrt(x)) if frac else 0.0
    term = x**frac * math.exp(-x) / math.gamma(1.0 + frac)
    for k in range(round(s - frac)):
        total += term
        term *= x / (frac + k + 1.0)
    return total


def gaussian_tail_bound(n: int, M: float, envelopes, T: float) -> float:
    """Closed form of (2pi)^{-n/2} integral_{|a|>M} A e^{-w^2|a|^2/2} (2+2T) da."""
    total = 0.0
    for A, w in envelopes:
        a = w**2 / 2.0
        surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        radial = (
            math.gamma(n / 2.0)
            * upper_gamma_q(n / 2.0, a * M * M)
            / (2.0 * a ** (n / 2.0))
        )
        total += A * surface * radial
    return total * (2.0 + 2.0 * T) / _TWO_PI ** (n / 2.0)


# ---------------------------------------------------------------------------
# homogeneous closed forms


def _model_steps(flavor: str, spec: Optional[LatticeSpec], dx: float):
    """(dx, dt) of one model: the scheme ("fully_discrete") reads them from
    `spec`, Lagrange's model ("semidiscrete") has dt = 0 on the spacing
    `dx`, and the wave equation ("continuum") has dx = dt = 0.  Raises
    ValueError for an unknown flavor, a missing `spec` or `dx`, or one the
    flavor does not read."""
    if flavor == "fully_discrete" and spec is not None and dx == 0.0:
        return spec.dx, spec.dt
    if flavor == "semidiscrete" and spec is None and dx > 0.0:
        return dx, 0.0
    if flavor == "continuum" and spec is None and dx == 0.0:
        return 0.0, 0.0
    raise ValueError(
        f"flavor {flavor!r} with spec={spec!r}, dx={dx!r}: fully_discrete "
        "takes a LatticeSpec, semidiscrete a dx > 0, continuum neither")


def _dispersion(flavor: str, alpha, *, spec: Optional[LatticeSpec] = None,
                dx: float = 0.0):
    """(frequency, g-route divisor) of one model at the frequency rows alpha.

    The three models are one family in the steps (dx, dt) of
    `_model_steps`, so the frequencies run
    beta(alpha; dx, dt) -> beta(alpha; dx, 0) -> |alpha|.  The divisor
    sinc(freq dt) turns the g-route weight t sinc(freq t) into
    dt sin(freq t)/sin(freq dt); it is exactly 1 at dt = 0.
    """
    dx, dt = _model_steps(flavor, spec, dx)
    if dx == 0.0:
        return np.sqrt(np.sum(np.asarray(alpha, dtype=float) ** 2, axis=-1)), 1.0
    freq = beta_arrays(alpha, dx, dt)
    return freq, sinc(freq * dt)


def _coefficients(flavor: str, alpha: np.ndarray, t: float, *,
                  spec: Optional[LatticeSpec] = None, dx: float = 0.0,
                  freq_factor=None):
    """(f-coefficient, g-coefficient) of the synthesis integrand at time t."""
    freq, divisor = _dispersion(flavor, alpha, spec=spec, dx=dx)
    cos_fac = np.cos(freq * t)
    g_fac = t * sinc(freq * t) / divisor
    if freq_factor is not None:
        fac = freq_factor(alpha, freq)
        cos_fac = cos_fac * fac
        g_fac = g_fac * fac
    return cos_fac, g_fac


def homogeneous_solution(f: Optional[DataFunction], g: Optional[DataFunction],
                         flavor: str, x, t: float, *,
                         spec: Optional[LatticeSpec] = None, dx: float = 0.0,
                         quad: Optional[FrequencyQuadrature] = None,
                         tol: Optional[float] = None,
                         freq_factor=None):
    """Displacement of the homogeneous problem at (x, t), any flavor.

    Single-frequency data are synthesized exactly; Gaussian-decay data go
    through the quadrature.  `x` may be a single point or an (m, n) array.
    Raises TailBoundError when the reported tail bound exceeds `tol`, and
    ValueError when the flavor, `spec` or `dx` do not fit (see
    _model_steps), with data or without.
    """
    _model_steps(flavor, spec, dx)
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim <= 1
    pts = np.atleast_2d(x)
    total = np.zeros(pts.shape[0])

    def coeff(alpha, which):
        cf, gf = _coefficients(
            flavor, np.atleast_2d(alpha), t, spec=spec, dx=dx,
            freq_factor=freq_factor,
        )
        return cf[0] if which == "f" else gf[0]

    quad_parts = []
    for data, which in ((f, "f"), (g, "g")):
        if data is None:
            continue
        if data.single_frequency is not None:
            vals = data(pts) * coeff(data.single_frequency, which)
            total = total + np.atleast_1d(vals)
        else:
            quad_parts.append((data, which))

    if quad_parts:
        if quad is None:
            raise ValueError("Gaussian-decay data need a FrequencyQuadrature")
        if tol is not None:
            tail = quad.tail_bound(*[d for d, _ in quad_parts], T=abs(t))
            if tail > tol:
                raise TailBoundError(
                    f"tail bound {tail:.3e} exceeds tolerance {tol:.3e}"
                )
        alpha = quad.nodes
        cf, gf = _coefficients(flavor, alpha, t, spec=spec, dx=dx,
                               freq_factor=freq_factor)
        integrand = np.zeros(alpha.shape[0], dtype=complex)
        for data, which in quad_parts:
            integrand += data.fourier(alpha) * (cf if which == "f" else gf)
        total = total + synthesize(quad, integrand, pts)

    return float(total[0]) if squeeze else total


def continuum_solution_u(f, g, x, t, quad=None, *, tol=None, derivative=None):
    """Solution of the continuum Cauchy problem by Fourier synthesis.

    `derivative` selects an exact integrand factor: "tt" multiplies by
    -|alpha|^2 (second time derivative), ("xx", k) by -alpha_k^2.
    """
    freq_factor = _derivative_factor(derivative)
    return homogeneous_solution(
        f, g, "continuum", x, t, quad=quad, tol=tol, freq_factor=freq_factor
    )


def discrete_closed_form_v(f, g, spec: LatticeSpec, x, t, quad=None, *, tol=None):
    """Closed form of the fully discrete solution at a lattice point."""
    p = t / spec.dt
    if abs(p - round(p)) > 1e-9:
        raise ValueError(f"t = {t} is not a lattice time for dt = {spec.dt}")
    return homogeneous_solution(f, g, "fully_discrete", x, t, spec=spec,
                                quad=quad, tol=tol)


def semidiscrete_closed_form_phi(f, g, dx, x, t, quad=None, *, tol=None,
                                 derivative=None):
    """Closed form of the semidiscrete (Lagrange model) solution."""
    freq_factor = _derivative_factor(derivative)
    return homogeneous_solution(f, g, "semidiscrete", x, t, dx=dx, quad=quad,
                                tol=tol, freq_factor=freq_factor)


def _derivative_factor(derivative):
    if derivative is None:
        return None
    if derivative == "tt":
        return lambda alpha, freq: -(freq**2)
    if isinstance(derivative, tuple) and derivative[0] == "xx":
        k = derivative[1]
        return lambda alpha, freq: -(alpha[..., k] ** 2)
    raise ValueError(f"unknown derivative selector {derivative!r}")


# ---------------------------------------------------------------------------
# propagator matrices


def propagator(flavor: str, alpha, t: float, *,
               spec: Optional[LatticeSpec] = None,
               dx: float = 0.0) -> np.ndarray:
    """2x2 frequency-domain evolution matrix of (displacement, velocity).

    With (w, d) the frequency and divisor of _dispersion, the upper row is
    [cos wt, t sinc(wt)/d] and the lower row, its exact time derivative,
    [-w sin wt, cos wt / d].  The plane-wave factor e^{i alpha.x}/(2pi)^{n/2}
    is the caller's responsibility during synthesis.
    """
    freq, divisor = map(float, _dispersion(flavor, alpha, spec=spec, dx=dx))
    cos_t = math.cos(freq * t)
    upper = [cos_t, t * sinc(freq * t) / divisor]
    lower = [-freq * math.sin(freq * t), cos_t / divisor]
    return np.array([upper, lower], dtype=complex)


# ---------------------------------------------------------------------------
# forcing and Duhamel


@dataclass
class Forcing:
    """Forcing w(x, t) with a known x-transform.

    `func(points, t)` takes an (m, n) array of points and returns their
    (m,) values, so a solver evaluates one time level in one call.
    `fourier_x(alpha)` forms what does not depend on t at the frequency
    rows alpha once and returns the spatial Fourier transform there as a
    function of t.  When the spatial profile is single-frequency,
    `spatial` carries it and the transforms are bypassed.
    """

    func: Callable
    fourier_x: Optional[Callable] = None
    spatial: Optional[DataFunction] = None
    time_profile: Optional[Callable] = None


def separable_forcing(space: DataFunction, time_profile=None) -> Forcing:
    """w(x, t) = space(x) * profile(t); profile defaults to 1."""
    profile = time_profile if time_profile is not None else (lambda t: 1.0)

    def func(x, t):
        return space(x) * profile(t)

    if space.single_frequency is not None:
        return Forcing(func, spatial=space, time_profile=profile)

    def fourier_x(alpha):
        what = space.fourier(alpha)
        return lambda t: what * profile(t)

    return Forcing(func, fourier_x=fourier_x, spatial=space, time_profile=profile)


def dalembert_forcing(space: DataFunction, profile, profile_dd) -> Forcing:
    """w = box(space * profile): the manufactured-solution forcing.

    For U(x, t) = space(x) * profile(t) the wave operator gives
    w = space * profile'' - (Lap space) * profile, whose x-transform is
    space^(alpha) * (profile''(t) + |alpha|^2 profile(t)).
    """
    lap = gaussian_laplacian(space)

    def func(x, t):
        return space(x) * profile_dd(t) - lap(x) * profile(t)

    def fourier_x(alpha):
        what = space.fourier(alpha)
        a2 = np.sum(np.atleast_2d(alpha) ** 2, axis=-1)
        return lambda t: what * (profile_dd(t) + a2 * profile(t))

    return Forcing(func, fourier_x=fourier_x)


def _forcing_kernel(flavor, alpha, *, spec=None, dx=0.0):
    """g-route coefficient K12 of the propagator at the frequency rows alpha,
    as a function of tau; the frequencies are formed once."""
    freq, divisor = _dispersion(flavor, np.atleast_2d(alpha), spec=spec, dx=dx)
    return lambda tau: tau * sinc(freq * tau) / divisor


def _simpson(y: np.ndarray, x: np.ndarray):
    """Composite Simpson's rule along axis 0 of `y` on the nodes `x`, for an
    odd node count; the arithmetic of scipy.integrate.simpson(y, x=x, axis=0),
    so the values are the same."""
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    tmp = hsum / 6.0 * (y[0:-2:2] * (2.0 - 1.0 / ratio)
                        + y[1:-1:2] * (hsum * (hsum / (h0 * h1)))
                        + y[2::2] * (2.0 - ratio))
    return np.sum(tmp, axis=0)


def duhamel_solve(f, g, forcing: Optional[Forcing], flavor: str, x, t: float,
                  quad: Optional[FrequencyQuadrature] = None, *,
                  spec: Optional[LatticeSpec] = None, dx: float = 0.0,
                  s_step: Optional[float] = None):
    """Displacement of the forced problem by variation of constants.

    `x` may be a single point or an (m, n) array, as in
    homogeneous_solution.

    The homogeneous part evolves (f^, g^) with the propagator; the forcing
    contributes the integral of K12(t - s) w^(alpha, s) over s in [0, t].
    Continuum and semidiscrete flavors integrate in s by composite Simpson
    on an even number of intervals of at most `s_step` (default t / 64);
    the fully discrete flavor uses the exact discrete convolution of the
    scheme (a trapezoid-type sum on multiples of dt), since discrete-time
    variation of constants is a sum, not an integral.  A flavor, `spec` or
    `dx` that do not fit raise ValueError, as in homogeneous_solution.
    """
    if t < 0:
        raise ValueError("duhamel_solve integrates forward from 0: need t >= 0")
    hom = homogeneous_solution(f, g, flavor, x, t, spec=spec, dx=dx, quad=quad)
    if forcing is None or t == 0.0:
        return hom
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)

    def result(forced):
        vals = hom + forced
        return float(vals[0]) if x.ndim <= 1 else vals

    single = None if forcing.spatial is None else forcing.spatial.single_frequency
    if single is None and quad is None:
        raise ValueError("forcing with Gaussian-decay profile needs a quadrature")
    kernel = _forcing_kernel(flavor, quad.nodes if single is None else single,
                             spec=spec, dx=dx)
    if flavor == "fully_discrete":
        dt = spec.dt
        p = t / dt
        if abs(p - round(p)) > 1e-9:
            raise SGridMisalignedError(
                f"t = {t} is not a multiple of dt = {dt}"
            )
        p = round(p)
        s_nodes = np.arange(p) * dt
        s_weights = np.full(p, dt)
        s_weights[0] = dt / 2.0  # matches the bootstrap's half forcing weight
    else:
        step = s_step if s_step is not None else t / 64.0
        m = 2 * max(1, math.ceil(t / (2.0 * step)))
        s_nodes = np.linspace(0.0, t, m + 1)
        s_weights = None  # Simpson path

    if single is not None:
        kern = np.array([float(kernel(t - s)[0]) for s in s_nodes])
        prof = np.array([forcing.time_profile(s) for s in s_nodes])
        if s_weights is not None:
            integral = float(np.sum(s_weights * kern * prof))
        else:
            integral = float(_simpson(kern * prof, s_nodes))
        return result(np.atleast_1d(forcing.spatial(pts)) * integral)

    what = forcing.fourier_x(quad.nodes)
    if s_weights is not None:
        # a running sum over s: the additions of a sum over a stacked s-axis,
        # in the same order, without holding (s, node) arrays
        per_node = None
        for weight, s in zip(s_weights, s_nodes):
            term = weight * kernel(t - s) * what(s)
            per_node = term if per_node is None else per_node + term
    else:
        terms = np.stack([kernel(t - s) * what(s) for s in s_nodes])
        per_node = _simpson(terms, s_nodes)
    return result(synthesize(quad, per_node, pts))
