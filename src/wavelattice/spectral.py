"""Frequency-domain reference solutions and propagators.

Everything here synthesizes solutions from Fourier data: the displacement
of the homogeneous problem, the 2x2 propagator matrices of the first-order
system, and the variation-of-constants (Duhamel) solution of forced
problems.  The three models are one family in the steps (dx, dt): the
scheme at (dx, dt), Lagrange's model at (dx, 0) and the wave equation at
(0, 0), and every function takes the steps of the model it solves.  These
are the oracles against which the time steppers are validated, so the
quadrature deliberately mirrors the frequency-splitting structure: a
tensor-product Gauss-Legendre rule on [-M, M]^n plus a closed-form tail
bound for Gaussian-decay data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dispersion import beta_arrays, sinc
from .errors import TailBoundError
from .lattice import grid_points, step_index

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# data catalog

_CENTER = ("center", "center", "vector", 0.0)
_WIDTH = ("width", "width", "positive", 0.3)
_AMPLITUDE = ("amplitude", "amplitude", "scalar", 1.0)
_ALPHA = ("alpha", "alpha0", "vector", 1.0)

#: kind -> its parameters in order, each (config key, field, form, default).
#: A "vector" holds one component per axis, a "scalar" one number and a
#: "positive" one number > 0.  The config parser and printer walk this
#: table, and DataFunction normalises and checks its fields against it.
CATALOG = {
    "gaussian": (_CENTER, _WIDTH, _AMPLITUDE),
    "modulated_gaussian": (_CENTER, _WIDTH, ("carrier", "carrier", "vector", 1.0),
                           _AMPLITUDE),
    "plane_wave": (_ALPHA,),
    "separable_cosine": (_ALPHA,),
    "smooth_bump": (_CENTER, ("radius", "radius", "positive", 0.5), _AMPLITUDE),
}


@dataclass(frozen=True)
class DataFunction:
    """A smooth scalar field from the built-in catalog.

    Gaussian-type kinds carry a closed-form Fourier transform and decay
    parameters used for tail bounds.  Plane-wave and separable-cosine
    kinds are single-frequency: solution synthesis short-circuits the
    quadrature for them.  The bump kind has neither: with no Gaussian
    envelope to bound a quadrature tail, no reference solution takes it.
    The dimension n is the length of the centre (or of alpha0), and every
    point or frequency handed in must have a last axis of that length.
    """

    kind: str
    center: Optional[tuple] = None
    width: Optional[float] = None
    amplitude: float = 1.0
    alpha0: Optional[tuple] = None
    carrier: Optional[tuple] = None
    radius: Optional[float] = None

    def __post_init__(self):
        """Hold each parameter of the kind as CATALOG says: vectors as
        tuples of floats of one common length, scalars as floats."""
        if self.kind not in CATALOG:
            raise ValueError(f"unknown data kind {self.kind!r}")
        for _, name, form, _ in CATALOG[self.kind]:
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"{self.kind} needs {name}")
            if form == "vector":
                value = tuple(map(float, np.atleast_1d(value)))
            else:
                value = float(value)
            if form == "positive" and not value > 0.0:
                raise ValueError(f"{self.kind} needs {name} > 0, got {value!r}")
            object.__setattr__(self, name, value)
        lengths = {len(getattr(self, name))
                   for _, name, form, _ in CATALOG[self.kind] if form == "vector"}
        if lengths != {self.n} or not self.n:
            raise ValueError(f"{self.kind} needs vectors of one nonzero length")

    # -- constructors

    @staticmethod
    def gaussian(center, width, amplitude=1.0) -> "DataFunction":
        return DataFunction("gaussian", center=center, width=width, amplitude=amplitude)

    @staticmethod
    def modulated_gaussian(center, width, carrier, amplitude=1.0) -> "DataFunction":
        return DataFunction("modulated_gaussian", center=center, width=width,
                            carrier=carrier, amplitude=amplitude)

    @staticmethod
    def plane_wave(alpha0) -> "DataFunction":
        return DataFunction("plane_wave", alpha0=alpha0)

    @staticmethod
    def separable_cosine(alpha0) -> "DataFunction":
        return DataFunction("separable_cosine", alpha0=alpha0)

    @staticmethod
    def smooth_bump(center, radius, amplitude=1.0) -> "DataFunction":
        return DataFunction("smooth_bump", center=center, radius=radius,
                            amplitude=amplitude)

    @property
    def n(self) -> int:
        return len(self.center if self.center is not None else self.alpha0)

    @property
    def single_frequency(self) -> Optional[np.ndarray]:
        if self.kind in ("plane_wave", "separable_cosine"):
            return np.asarray(self.alpha0, dtype=float)
        return None

    def _last_axis(self, x, what) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,):
            raise ValueError(
                f"{what} of shape {x.shape} need a last axis of length {self.n}")
        return x

    # -- evaluation

    def __call__(self, x):
        x = self._last_axis(x, "points")
        vals = self._evaluate(list(np.moveaxis(np.atleast_2d(x), -1, 0)))
        return float(vals[0]) if x.ndim == 1 else vals

    def on_axes(self, axes) -> np.ndarray:
        """The values on the tensor grid of the 1-D `axes`, one per
        dimension, shaped (axes[0].size, ..., axes[-1].size): those of
        self(grid_points(axes)) bit for bit.  Each per-axis term is formed
        on its axis and broadcast, so no point array is built."""
        if len(axes) != self.n:
            raise ValueError(f"{len(axes)} axes need {self.n}")
        return self._evaluate(_axis_coords(axes))

    def _evaluate(self, coords):
        """The kind's formula at the points whose k-th coordinates are
        `coords[k]` (arrays that broadcast together).  Per-axis terms, the
        dot products of plane_wave and of the modulated Gaussian's phase
        among them, are summed or multiplied from axis 0 on, in the order
        np.sum and np.prod take along the last axis, so one point, a batch
        and a tensor grid give the same values."""
        if self.kind == "plane_wave":
            return np.cos(sum(c * a for c, a in zip(coords, self.alpha0)))
        if self.kind == "separable_cosine":
            return math.prod(np.cos(c * a) for c, a in zip(coords, self.alpha0))
        if self.kind == "smooth_bump":
            r2 = sum((c - c0) ** 2 for c, c0 in zip(coords, self.center))
            s2 = r2 / self.radius**2
            inside = s2 < 1.0
            safe = np.where(inside, s2, 0.0)
            return np.where(
                inside, self.amplitude * np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)
        # -r2 as the sum of the negated squares, exactly (negation commutes
        # with rounding), so no pass over the grid negates it; times an
        # amplitude of 1.0 changes no value
        vals = np.exp(sum(-((c - c0) ** 2) for c, c0 in zip(coords, self.center))
                      / (2.0 * self.width**2))
        if self.amplitude != 1.0:
            vals = self.amplitude * vals
        if self.kind == "modulated_gaussian":
            vals = vals * np.cos(sum((c - c0) * k for c, c0, k in zip(
                coords, self.center, self.carrier)))
        return vals

    def fourier(self, alpha) -> np.ndarray:
        """Fourier transform (2pi)^{-n/2} integral of f e^{-i alpha.x}, in
        closed form for the Gaussian kinds.

        Raises ValueError for the others: single-frequency kinds have no
        integrable transform and go through the synthesis shortcut instead,
        and the bump has no closed form.
        """
        alpha = np.atleast_2d(self._last_axis(alpha, "frequencies"))
        if self.kind not in ("gaussian", "modulated_gaussian"):
            raise ValueError(f"{self.kind} has no closed-form Fourier transform")
        w = self.width

        def bell(a):
            return np.exp(-(w**2) * np.sum(a**2, axis=-1) / 2.0)

        if self.kind == "gaussian":
            mag = self.amplitude * w**self.n * bell(alpha)
        else:
            k = np.asarray(self.carrier)
            mag = 0.5 * self.amplitude * w**self.n * (
                bell(alpha - k) + bell(alpha + k))
        return mag * np.exp(-1j * (alpha @ np.asarray(self.center)))

    def decay_envelope(self) -> Optional[tuple]:
        """(A, w) with |f^(alpha)| <= A exp(-w^2 |alpha|^2 / 2), when known."""
        if self.kind == "gaussian":
            return self.amplitude * self.width**self.n, self.width
        if self.kind == "modulated_gaussian":
            # conservative: shift the envelope by the carrier magnitude
            kmag = float(np.linalg.norm(self.carrier))
            shift = math.exp(self.width**2 * kmag**2 / 2.0 + self.width * kmag)
            return self.amplitude * self.width**self.n * shift, self.width
        return None


def _axis_coords(axes) -> list:
    """The 1-D `axes` shaped to broadcast into their tensor grid."""
    return [np.asarray(a, dtype=float).reshape((-1,) + (1,) * (len(axes) - 1 - k))
            for k, a in enumerate(axes)]


# ---------------------------------------------------------------------------
# quadrature


#: tail tolerance of FrequencyQuadrature.for_data, per unit of 2 + 2T
TAIL_TOL = 1e-10


def _quadrature_data(data) -> list:
    """The items of `data` that go through the quadrature: not None and not
    single-frequency.  Raises TailBoundError naming each kind among them
    with no Gaussian envelope, since the tail bound needs one."""
    data = [d for d in data if d is not None and d.single_frequency is None]
    unbounded = sorted({d.kind for d in data if d.decay_envelope() is None})
    if unbounded:
        raise TailBoundError(f"no tail bound for {', '.join(unbounded)} data: "
                             "it has no Gaussian envelope")
    return data


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
    def for_data(cls, *data, T: float) -> Optional["FrequencyQuadrature"]:
        """The rule that synthesizes `data` up to |t| = T, or None when no
        item needs one: None and single-frequency items are synthesized
        exactly.  M is the first power of 1.25 whose closed-form tail bound
        is below TAIL_TOL * (2 + 2T); the rule has 129 nodes per axis for
        n <= 2 and 33 above.  Raises TailBoundError for data with no
        Gaussian envelope."""
        data = _quadrature_data(data)
        if not data:
            return None
        envelopes = [d.decay_envelope() for d in data]
        n = data[0].n
        M = 1.0
        while gaussian_tail_bound(n, M, envelopes, T) > TAIL_TOL * (2.0 + 2.0 * T):
            M *= 1.25
            if M > 1e4:
                raise TailBoundError("no cutoff satisfies the tail tolerance")
        return cls.build(n, M, 129 if n <= 2 else 33)

    def tail_bound(self, *data, T: float) -> float:
        """Bound on the synthesis error past the cutoff M up to |t| = T.
        Items that for_data skips are skipped, and data without a Gaussian
        envelope have no bound (TailBoundError)."""
        return gaussian_tail_bound(self.n, self.M, [
            d.decay_envelope() for d in _quadrature_data(data)], T)

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


def _check_steps(dx: float, dt: float) -> None:
    """Refuse steps that name no model.  The three models are one family in
    the steps (dx, dt): (0, 0) is the wave equation, (dx, 0) Lagrange's
    model and (dx, dt) the scheme, so dx, dt >= 0 and dx > 0 where dt > 0."""
    if not (dx >= 0.0 and dt >= 0.0) or (dt > 0.0 and not dx > 0.0):
        raise ValueError(f"steps dx={dx!r}, dt={dt!r}: need dx, dt >= 0 "
                         "and dx > 0 where dt > 0")


def _dispersion(alpha, dx: float = 0.0, dt: float = 0.0):
    """(frequency, g-route divisor) of the model with steps (dx, dt) at the
    frequency rows alpha.

    The frequencies run beta(alpha; dx, dt) -> beta(alpha; dx, 0) -> |alpha|.
    The divisor sinc(freq dt) turns the g-route weight t sinc(freq t) into
    dt sin(freq t)/sin(freq dt); it is exactly 1 at dt = 0.
    """
    _check_steps(dx, dt)
    if dx == 0.0:
        return np.sqrt(np.sum(np.asarray(alpha, dtype=float) ** 2, axis=-1)), 1.0
    freq = beta_arrays(alpha, dx, dt)
    return freq, sinc(freq * dt)


def _derivative_factor(derivative):
    """The integrand factor of a derivative of the solution, as a function
    of (alpha, freq): "tt" (second time derivative) multiplies by
    -freq^2, ("xx", k) by -alpha_k^2; None is no factor."""
    if derivative is None:
        return None
    if derivative == "tt":
        return lambda alpha, freq: -(freq**2)
    if isinstance(derivative, tuple) and derivative[0] == "xx":
        k = derivative[1]
        return lambda alpha, freq: -(alpha[..., k] ** 2)
    raise ValueError(f"unknown derivative selector {derivative!r}")


def _coefficients(alpha: np.ndarray, t: float, *, dx: float = 0.0,
                  dt: float = 0.0, factor=None):
    """(f-coefficient, g-coefficient) of the synthesis integrand at time t,
    each times the `factor` of _derivative_factor when one is given."""
    freq, divisor = _dispersion(alpha, dx, dt)
    cos_fac = np.cos(freq * t)
    g_fac = t * sinc(freq * t) / divisor
    if factor is None:
        return cos_fac, g_fac
    fac = factor(alpha, freq)
    return cos_fac * fac, g_fac * fac


def homogeneous_solution(f: Optional[DataFunction], g: Optional[DataFunction],
                         x, t: float, *, dx: float = 0.0, dt: float = 0.0,
                         quad: Optional[FrequencyQuadrature] = None,
                         tol: Optional[float] = None, derivative=None):
    """Displacement of the homogeneous problem at (x, t) in the model with
    steps (dx, dt): the wave equation at (0, 0), Lagrange's model at
    (dx, 0) and the scheme at (dx, dt), where t must be a multiple of dt.

    Single-frequency data are synthesized exactly; Gaussian-decay data go
    through the quadrature.  `x` may be a single point or an (m, n) array.
    `derivative` takes a derivative of the solution instead: "tt" the
    second time derivative, ("xx", k) the second derivative along axis k.
    Raises TailBoundError when the reported tail bound exceeds `tol`, and
    ValueError for steps that name no model, a t off the time lattice or
    an unknown derivative, with data or without.
    """
    _check_steps(dx, dt)
    if dt > 0.0:
        step_index(t, dt)  # ValueError off the time lattice
    factor = _derivative_factor(derivative)
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim <= 1
    pts = np.atleast_2d(x)
    total = np.zeros(pts.shape[0])

    quad_parts = []  # (datum, 0 on the f-route or 1 on the g-route)
    for data, which in ((f, 0), (g, 1)):
        if data is None:
            continue
        if data.single_frequency is None:
            quad_parts.append((data, which))
            continue
        coeffs = _coefficients(np.atleast_2d(data.single_frequency), t,
                               dx=dx, dt=dt, factor=factor)
        total = total + np.atleast_1d(data(pts) * coeffs[which][0])

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
        coeffs = _coefficients(alpha, t, dx=dx, dt=dt, factor=factor)
        integrand = np.zeros(alpha.shape[0], dtype=complex)
        for data, which in quad_parts:
            integrand += data.fourier(alpha) * coeffs[which]
        total = total + synthesize(quad, integrand, pts)

    return float(total[0]) if squeeze else total


# ---------------------------------------------------------------------------
# propagator matrices


def propagator(alpha, t: float, *, dx: float = 0.0,
               dt: float = 0.0) -> np.ndarray:
    """2x2 frequency-domain evolution matrix of (displacement, velocity) in
    the model with steps (dx, dt).  t is not held to the time lattice, so
    the matrix can be differentiated in t.

    With (w, d) the frequency and divisor of _dispersion, the upper row is
    [cos wt, t sinc(wt)/d] and the lower row, its exact time derivative,
    [-w sin wt, cos wt / d].  The plane-wave factor e^{i alpha.x}/(2pi)^{n/2}
    is the caller's responsibility during synthesis.
    """
    freq, divisor = map(float, _dispersion(alpha, dx, dt))
    cos_t = math.cos(freq * t)
    upper = [cos_t, t * sinc(freq * t) / divisor]
    lower = [-freq * math.sin(freq * t), cos_t / divisor]
    return np.array([upper, lower], dtype=complex)


# ---------------------------------------------------------------------------
# forcing and Duhamel


@dataclass
class Forcing:
    """Forcing w(x, t) = sum_j space_j(x) * profile_j(t), with its x-transform.

    `terms` holds the (space, profile) pairs: a space is data that
    stencils.sample_window takes, and a solver samples it once per run.
    `fourier_x(alpha)` forms what does not depend on t at the frequency
    rows alpha once and returns the spatial Fourier transform there as a
    function of t.  Without it, duhamel_solve reads only the first term, so
    the forcing must be one term whose space is single-frequency (the
    transforms are then bypassed); anything else raises ValueError.
    """

    terms: tuple
    fourier_x: Optional[Callable] = None

    def __post_init__(self):
        if self.fourier_x is None and not (
                len(self.terms) == 1
                and getattr(self.terms[0][0], "single_frequency", None) is not None):
            raise ValueError("a forcing without fourier_x must be one term "
                             "whose space is single-frequency")


def separable_forcing(space: DataFunction, time_profile=None) -> Forcing:
    """w(x, t) = space(x) * profile(t); profile defaults to 1."""
    profile = time_profile if time_profile is not None else (lambda t: 1.0)

    def fourier_x(alpha):
        what = space.fourier(alpha)
        return lambda t: what * profile(t)

    single = space.single_frequency is not None
    return Forcing(((space, profile),), None if single else fourier_x)


def dalembert_forcing(space: DataFunction, profile, profile_dd) -> Forcing:
    """w = box(space * profile): the manufactured-solution forcing.

    For U(x, t) = space(x) * profile(t) the wave operator gives the terms
    space * profile'' and (-Lap space) * profile, the Laplacian of the
    Gaussian `space` in closed form; the x-transform is
    space^(alpha) * (profile''(t) + |alpha|^2 profile(t)).
    """
    if space.kind != "gaussian":
        raise ValueError("closed-form Laplacian only for the gaussian kind")
    w2 = space.width**2

    def minus_lap(axes):  # on the block's axes, as catalog data is sampled
        r2 = sum((c - c0) ** 2 for c, c0 in zip(_axis_coords(axes), space.center))
        return -(space.on_axes(axes) * (r2 / w2**2 - space.n / w2))

    def fourier_x(alpha):
        what = space.fourier(alpha)
        a2 = np.sum(np.atleast_2d(alpha) ** 2, axis=-1)
        return lambda t: what * (profile_dd(t) + a2 * profile(t))

    return Forcing(((space, profile_dd), (SimpleNamespace(on_axes=minus_lap), profile)),
                   fourier_x)


def _forcing_kernel(alpha, dx=0.0, dt=0.0):
    """g-route coefficient K12 of the propagator at the frequency rows alpha,
    as a function of tau; the frequencies are formed once."""
    freq, divisor = _dispersion(np.atleast_2d(alpha), dx, dt)
    return lambda tau: tau * sinc(freq * tau) / divisor


def duhamel_solve(f, g, forcing: Optional[Forcing], x, t: float,
                  quad: Optional[FrequencyQuadrature] = None, *,
                  dx: float = 0.0, dt: float = 0.0,
                  s_step: Optional[float] = None):
    """Displacement of the forced problem by variation of constants, in the
    model with steps (dx, dt) as in homogeneous_solution.

    `x` may be a single point or an (m, n) array, as in
    homogeneous_solution.

    The homogeneous part evolves (f^, g^) with the propagator; the forcing
    contributes the integral of K12(t - s) w^(alpha, s) over s in [0, t],
    one weighted sum over the (nodes, weights) of an s-rule.  At dt = 0 the
    rule is composite Simpson on an even number of intervals of at most
    `s_step` (default t / 64); at dt > 0 it is the exact discrete
    convolution of the scheme (a trapezoid-type sum on multiples of dt),
    since discrete-time variation of constants is a sum, not an integral,
    and `s_step` is refused.  Steps that name no model, a t off the time
    lattice and an `s_step` not finite and > 0 raise ValueError, as in
    homogeneous_solution.
    """
    if t < 0:
        raise ValueError("duhamel_solve integrates forward from 0: need t >= 0")
    if dt > 0.0 and s_step is not None:
        raise ValueError("at dt > 0 the forcing is summed on the time lattice: "
                         "s_step is not read")
    if s_step is not None and not (math.isfinite(s_step) and s_step > 0.0):
        raise ValueError(f"s_step must be finite and > 0, not {s_step}")
    hom = homogeneous_solution(f, g, x, t, dx=dx, dt=dt, quad=quad)
    if forcing is None or t == 0.0:
        return hom
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)

    def result(forced):
        vals = hom + forced
        return float(vals[0]) if x.ndim <= 1 else vals

    space, profile = forcing.terms[0]  # the one term when there is no transform
    single = space.single_frequency if forcing.fourier_x is None else None
    if single is None and quad is None:
        raise ValueError("forcing with Gaussian-decay profile needs a quadrature")
    kernel = _forcing_kernel(quad.nodes if single is None else single, dx, dt)
    if dt > 0.0:
        p = step_index(t, dt)
        s_nodes = np.arange(p) * dt
        s_weights = np.full(p, dt)
        s_weights[0] = dt / 2.0  # matches the bootstrap's half forcing weight
    else:  # composite Simpson: t/(3m) (1, 4, 2, ..., 2, 4, 1)
        step = s_step if s_step is not None else t / 64.0
        m = 2 * max(1, math.ceil(t / (2.0 * step)))
        s_nodes = np.linspace(0.0, t, m + 1)
        s_weights = np.full(m + 1, 2.0 * t / (3.0 * m))
        s_weights[1::2] *= 2.0
        s_weights[[0, -1]] /= 2.0

    if single is not None:
        prof = np.array([profile(s) for s in s_nodes])
        integral = float(np.sum(s_weights * kernel(t - s_nodes) * prof))
        return result(np.atleast_1d(space(pts)) * integral)

    # a running sum over s: the per-node arrays are O(K^n), and no (s, node)
    # array is held
    what = forcing.fourier_x(quad.nodes)
    per_node = sum(weight * kernel(t - s) * what(s)
                   for weight, s in zip(s_weights, s_nodes))
    return result(synthesize(quad, per_node, pts))
