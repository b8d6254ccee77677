"""Fourier synthesis: closed forms, propagators, Duhamel, tail bounds."""

import math

import numpy as np
import pytest

from wavelattice import (
    DataFunction,
    FrequencyQuadrature,
    LatticeSpec,
    TailBoundError,
    duhamel_solve,
    homogeneous_solution,
)
from wavelattice import spectral
from wavelattice.dispersion import beta_arrays, beta_semidiscrete, sinc
from wavelattice.spectral import (
    dalembert_forcing,
    gaussian_tail_bound,
    propagator,
    separable_forcing,
    upper_gamma_q,
)


def _per_node_kernel(alpha, tau, dx=0.0, dt=0.0):
    """K12(tau) of the model with steps (dx, dt), with the frequencies
    formed again at every call."""
    if dx == 0.0:
        freq = np.sqrt(np.sum(np.atleast_2d(alpha) ** 2, axis=-1))
        return tau * sinc(freq * tau)
    if dt == 0.0:
        freq = beta_semidiscrete(np.atleast_2d(alpha), dx)
        return tau * sinc(freq * tau)
    freq = beta_arrays(np.atleast_2d(alpha), dx, dt)
    return tau * sinc(freq * tau) / sinc(freq * dt)


def _per_node_dalembert_transform(space, alpha, s):
    """The x-transform of dalembert_forcing(space, cos, -cos) at time s, with
    the spatial transform and |alpha|^2 formed again at every call."""
    a2 = np.sum(np.atleast_2d(alpha) ** 2, axis=-1)
    return space.fourier(alpha) * (-math.cos(s) + a2 * math.cos(s))


class TestDataFunctionPoints:
    """Points and frequencies must have a last axis of length n."""

    def test_wrong_last_axis_refused(self):
        one = DataFunction.gaussian([0.0], 0.3)
        two = DataFunction.modulated_gaussian([0.0, 0.1], 0.3, [1.0, 2.0])
        # read as one 2-D point, this gave one value for an n = 1 Gaussian
        for data, bad in ((one, np.array([0.1, 0.2])),
                          (one, np.zeros((4, 2))),
                          (one, 0.1),
                          (two, np.zeros((3, 1))),
                          (two, np.zeros(3))):
            with pytest.raises(ValueError, match="last axis"):
                data(bad)
            with pytest.raises(ValueError, match="last axis"):
                data.fourier(bad)

    @pytest.mark.parametrize("make", [
        lambda n: DataFunction.gaussian([0.1] * n, 0.3),
        lambda n: DataFunction.plane_wave([1.0] * n),
        lambda n: DataFunction.separable_cosine([2.0] * n),
        lambda n: DataFunction.smooth_bump([0.0] * n, 0.5),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_point_is_one_row(self, make, n):
        data = make(n)
        points = np.linspace(-0.4, 0.4, 5 * n).reshape(5, n)
        values = data(points)
        assert values.shape == (5,)
        assert [data(p) for p in points] == list(values)

    @pytest.mark.parametrize("make", [
        lambda n: DataFunction.smooth_bump([0.1] * n, 0.6),
        lambda n: DataFunction.plane_wave([1.0] * n),
        lambda n: DataFunction.separable_cosine([2.0] * n),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_only_gaussian_kinds_have_a_transform(self, make, n):
        with pytest.raises(ValueError, match="no closed-form Fourier transform"):
            make(n).fourier(np.zeros((4, n)))


class TestHomogeneousClosedForms:
    def test_separable_cosine_continuum(self):
        # f = cos(x1)cos(x2) evolves to f(x) cos(sqrt(2) t)
        f = DataFunction.separable_cosine([1.0, 1.0])
        x = np.array([0.2, -0.4])
        t = 0.5
        val = homogeneous_solution(f, None, x, t)
        expected = math.cos(0.2) * math.cos(-0.4) * math.cos(math.sqrt(2.0) * t)
        assert val == pytest.approx(expected, abs=1e-12)
        assert math.cos(math.sqrt(2.0) * 0.5) == pytest.approx(0.760245, abs=1e-6)

    def test_g_route_plane_wave(self):
        # g = cos(2x) gives u = cos(2x) sin(2t)/2
        g = DataFunction.plane_wave([2.0])
        x = np.array([0.3])
        t = 0.7
        val = homogeneous_solution(None, g, x, t)
        assert val == pytest.approx(
            math.cos(0.6) * math.sin(1.4) / 2.0, abs=1e-12
        )

    def test_initial_time_consistency(self):
        f = DataFunction.gaussian([0.1], 0.2)
        quad = FrequencyQuadrature.for_data(f, T=1.0)
        for x in (np.array([0.0]), np.array([0.3])):
            assert homogeneous_solution(f, None, x, 0.0, quad=quad) == pytest.approx(
                float(f(x)), abs=1e-10
            )

    def test_models_agree_in_limit(self):
        # Lagrange's model (dx, 0) approaches the wave equation as dx -> 0
        f = DataFunction.gaussian([0.0], 0.3)
        quad = FrequencyQuadrature.for_data(f, T=0.5)
        x, t = np.array([0.2]), 0.5
        u = homogeneous_solution(f, None, x, t, quad=quad)
        errs = [
            abs(homogeneous_solution(f, None, x, t, dx=dx, quad=quad) - u)
            for dx in (0.2, 0.1, 0.05)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_discrete_closed_form_needs_lattice_time(self):
        f = DataFunction.plane_wave([1.0])
        with pytest.raises(ValueError, match="not on the lattice"):
            homogeneous_solution(f, None, np.array([0.0]), 0.05, dx=0.2, dt=0.1)


class TestPropagator:
    #: the steps (dx, dt) of the wave equation, Lagrange's model, the scheme
    STEPS = {
        "wave": {},
        "lagrange": {"dx": 0.2},
        "scheme": {"dx": 0.2, "dt": 0.1},
    }

    def test_identity_at_t0(self):
        alpha = np.array([1.3])
        for model in ("wave", "lagrange"):
            mat = propagator(alpha, 0.0, **self.STEPS[model])
            assert np.allclose(mat, np.eye(2), atol=1e-14)
        # the scheme carries the dt/sin(beta dt) weight on the g-route, so
        # its lower-right entry at t = 0 is 1/sinc(beta dt)
        mat = propagator(alpha, 0.0, **self.STEPS["scheme"])
        assert np.allclose(mat[0], [1.0, 0.0], atol=1e-14)
        assert mat[1, 0] == 0.0 and mat[1, 1].real > 1.0

    def test_lower_row_is_time_derivative(self):
        alpha = np.array([1.3])
        t, eps = 0.6, 1e-6
        # t +- eps is off the scheme's time lattice: propagator takes any t
        for kw in self.STEPS.values():
            plus = propagator(alpha, t + eps, **kw)
            minus = propagator(alpha, t - eps, **kw)
            deriv = (plus[0] - minus[0]) / (2.0 * eps)
            mat = propagator(alpha, t, **kw)
            assert np.allclose(mat[1], deriv, atol=1e-7)

    def test_semidiscrete_frequency(self):
        alpha = np.array([2.0])
        dx, t = 0.5, 0.3
        mat = propagator(alpha, t, dx=dx)
        freq = beta_semidiscrete(alpha, dx)
        assert mat[0, 0] == pytest.approx(math.cos(freq * t), rel=1e-14)


_PLANE = DataFunction.plane_wave([2.0])


class TestStepsRule:
    """The steps (dx, dt) name the model: (0, 0) the wave equation, (dx, 0)
    Lagrange's model, (dx, dt) the scheme.  Steps that name none are a
    ValueError at every entry point, with data or without; where dt > 0,
    homogeneous_solution and duhamel_solve also need t on the time
    lattice."""

    GOOD = {"wave": {}, "lagrange": dict(dx=0.2), "scheme": dict(dx=0.2, dt=0.1)}
    BAD = {
        "negative dx": dict(dx=-0.2),
        "negative dt": dict(dx=0.2, dt=-0.1),
        "dt without dx": dict(dt=0.1),
        "nan dx": dict(dx=math.nan),
        "nan dt": dict(dx=0.2, dt=math.nan),
    }
    CALLS = {
        "propagator": lambda t, kw: propagator(np.array([2.0]), t, **kw),
        "homogeneous_solution": lambda t, kw: homogeneous_solution(
            _PLANE, None, np.zeros(1), t, **kw),
        "duhamel_solve": lambda t, kw: duhamel_solve(
            None, None, separable_forcing(_PLANE), np.zeros(1), t, **kw),
        # nothing to synthesize: the steps are still checked
        "homogeneous_solution without data": lambda t, kw:
            homogeneous_solution(None, None, np.zeros(1), t, **kw),
        "duhamel_solve without data": lambda t, kw: duhamel_solve(
            None, None, None, np.zeros(1), t, **kw),
    }

    @pytest.mark.parametrize("case", BAD)
    @pytest.mark.parametrize("call", CALLS)
    def test_steps_that_name_no_model_raise(self, call, case):
        with pytest.raises(ValueError, match="steps"):
            self.CALLS[call](1.0, self.BAD[case])

    @pytest.mark.parametrize("model", GOOD)
    @pytest.mark.parametrize("call", CALLS)
    def test_steps_of_each_model_are_taken(self, call, model):
        assert np.all(np.isfinite(self.CALLS[call](1.0, self.GOOD[model])))

    @pytest.mark.parametrize("call", [c for c in CALLS if c != "propagator"])
    def test_scheme_time_off_the_lattice_raises(self, call):
        with pytest.raises(ValueError, match="not on the lattice"):
            self.CALLS[call](0.95 + 1e-3, self.GOOD["scheme"])
        # the continuous-time models take any t
        for model in ("wave", "lagrange"):
            assert math.isfinite(self.CALLS[call](0.95 + 1e-3, self.GOOD[model]))

    def test_propagator_takes_any_time(self):
        assert np.all(np.isfinite(
            propagator(np.array([2.0]), 0.95 + 1e-3, **self.GOOD["scheme"])))

    def test_scheme_refuses_s_step(self):
        # the scheme sums its forcing on the time lattice: s_step is unread
        with pytest.raises(ValueError, match="s_step"):
            duhamel_solve(None, None, separable_forcing(_PLANE), np.zeros(1),
                          1.0, s_step=0.01, **self.GOOD["scheme"])

    @pytest.mark.parametrize("s_step", [0.0, -0.5, math.inf, math.nan])
    def test_continuum_refuses_bad_s_step(self, s_step):
        # a zero step divided by zero and a negative one gave 2 intervals
        with pytest.raises(ValueError, match="s_step"):
            duhamel_solve(None, None, separable_forcing(_PLANE), np.zeros(1),
                          1.0, s_step=s_step)

    def test_unknown_derivative_raises_without_data(self):
        with pytest.raises(ValueError, match="derivative"):
            homogeneous_solution(None, None, np.zeros(1), 1.0, derivative="t")


class TestDuhamel:
    def test_single_frequency_forcing(self):
        # f = g = 0, w = cos(2x): u(0, t) = (1 - cos(2t))/4
        forcing = separable_forcing(DataFunction.plane_wave([2.0]))
        t = 1.0
        val = duhamel_solve(None, None, forcing, np.zeros(1), t,
                            s_step=t / 128.0)
        exact = (1.0 - math.cos(2.0)) / 4.0
        assert exact == pytest.approx(0.354037, abs=1e-6)
        assert val == pytest.approx(exact, abs=1e-6)

    def test_single_frequency_forcing_converges_at_order_4(self):
        # composite Simpson in s: halving s_step divides the error by 16
        forcing = separable_forcing(DataFunction.plane_wave([2.0]))
        exact = (1.0 - math.cos(2.0)) / 4.0
        errors = [abs(duhamel_solve(None, None, forcing, np.zeros(1), 1.0,
                                    s_step=1.0 / m) - exact)
                  for m in (16, 32, 64, 128)]
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert all(15.5 < r < 16.5 for r in ratios), ratios

    def test_no_forcing_reduces_to_homogeneous(self):
        f = DataFunction.plane_wave([1.0])
        x, t = np.array([0.4]), 0.8
        assert duhamel_solve(f, None, None, x, t) == (
            homogeneous_solution(f, None, x, t)
        )

    def test_negative_time_rejected(self):
        forcing = separable_forcing(DataFunction.plane_wave([1.0]))
        with pytest.raises(ValueError):
            duhamel_solve(None, None, forcing, np.zeros(1), -0.5)

    def test_dalembert_forcing_manufactures_solution(self):
        # U(x, t) = gaussian(x) cos(t) solves the equation with
        # w = d'Alembert of U; Duhamel must reproduce U
        space = DataFunction.gaussian([0.0], 0.3)
        forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
        quad = FrequencyQuadrature.for_data(space, T=0.5)
        x, t = np.array([0.1]), 0.5
        val = duhamel_solve(space, None, forcing, x, t, quad, s_step=t / 64.0)
        assert val == pytest.approx(float(space(x)) * math.cos(t), abs=1e-6)


    @pytest.mark.parametrize("t", [0.05 / 3.0, 0.125, 0.3 + 1e-7])
    def test_fully_discrete_time_off_the_lattice_raises(self, t):
        space = DataFunction.gaussian([0.0], 0.3)
        forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
        spec = LatticeSpec(1, 0.1, 0.05, 0.3)
        quad = FrequencyQuadrature.for_data(space, T=spec.T)
        with pytest.raises(ValueError, match="not on the lattice"):
            duhamel_solve(space, None, forcing, np.zeros(1), t, quad,
                          dx=spec.dx, dt=spec.dt)


class TestQuadrature:
    def test_for_data_meets_tolerance(self):
        T, tol = 1.0, spectral.TAIL_TOL
        f = DataFunction.gaussian([0.0], 0.15)
        quad = FrequencyQuadrature.for_data(f, T=T)
        assert quad.tail_bound(f, T=T) <= tol * (2.0 + 2.0 * T)
        # the first power of 1.25 that meets it
        assert gaussian_tail_bound(1, quad.M / 1.25, [f.decay_envelope()],
                                   T) > tol * (2.0 + 2.0 * T)

    def test_data_without_envelope_has_no_tail_bound(self):
        # a bump has no Gaussian envelope: no tolerance can be certified
        quad = FrequencyQuadrature.for_data(DataFunction.gaussian([0.0], 0.3),
                                            T=1.0)
        bump = DataFunction.smooth_bump([0.0], 0.5)
        x = np.zeros(1)
        with pytest.raises(TailBoundError, match="smooth_bump"):
            quad.tail_bound(bump, T=0.5)
        for call in (
            lambda tol: homogeneous_solution(bump, None, x, 0.5, quad=quad,
                                             tol=tol),
            lambda tol: homogeneous_solution(None, bump, x, 0.5, quad=quad,
                                             tol=tol),
            lambda tol: homogeneous_solution(bump, None, x, 0.5, dx=0.1,
                                             quad=quad, tol=tol),
            lambda tol: homogeneous_solution(bump, None, x, 0.5, dx=0.1,
                                             dt=0.05, quad=quad, tol=tol),
        ):
            with pytest.raises(TailBoundError):
                call(1e-30)
            with pytest.raises(TailBoundError):
                call(1e30)
            with pytest.raises(ValueError, match="no closed-form"):
                call(None)

    def test_single_frequency_data_are_skipped(self):
        quad = FrequencyQuadrature.for_data(DataFunction.gaussian([0.0], 0.3),
                                            T=1.0)
        wave = DataFunction.plane_wave([2.0])
        gauss = DataFunction.gaussian([0.0], 0.3)
        assert quad.tail_bound(wave, None, T=1.0) == 0.0
        assert quad.tail_bound(wave, gauss, T=1.0) == quad.tail_bound(gauss, T=1.0)
        x = np.zeros(1)
        assert homogeneous_solution(wave, None, x, 0.5, quad=quad,
                                    tol=1e-30) == (
            homogeneous_solution(wave, None, x, 0.5, quad=quad))
        with pytest.raises(TailBoundError):
            homogeneous_solution(wave, gauss, x, 0.5, quad=quad, tol=1e-30)

    def test_for_data_decides_which_data_need_the_quadrature(self):
        wave = DataFunction.plane_wave([2.0])
        cosine = DataFunction.separable_cosine([1.5])
        gauss = DataFunction.gaussian([0.0], 0.3)
        assert FrequencyQuadrature.for_data(T=1.0) is None
        assert FrequencyQuadrature.for_data(None, None, T=1.0) is None
        assert FrequencyQuadrature.for_data(wave, cosine, None, T=1.0) is None
        alone = FrequencyQuadrature.for_data(gauss, T=1.0)
        mixed = FrequencyQuadrature.for_data(wave, None, gauss, T=1.0)
        assert (mixed.n, mixed.M, mixed.nodes_per_axis) == (
            alone.n, alone.M, alone.nodes_per_axis)

    def test_for_data_refuses_data_without_envelope(self):
        gauss = DataFunction.gaussian([0.0], 0.3)
        bump = DataFunction.smooth_bump([0.0], 0.5)
        for data in ((bump,), (gauss, bump), (DataFunction.plane_wave([1.0]), bump)):
            with pytest.raises(TailBoundError, match="smooth_bump"):
                FrequencyQuadrature.for_data(*data, T=1.0)

    def test_gaussian_tail_bound_monotone_in_M(self):
        f = DataFunction.gaussian([0.0], 0.2)
        env = [f.decay_envelope()]
        b1 = gaussian_tail_bound(1, 10.0, env, 1.0)
        b2 = gaussian_tail_bound(1, 20.0, env, 1.0)
        assert b2 < b1


def _meshgrid_rule(axis_nodes, axis_weights):
    """Nodes and product weights of a tensor rule through meshgrid + stack."""
    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*axis_weights, indexing="ij")
    return nodes, np.prod(np.stack([m.ravel() for m in wmesh], axis=-1), axis=-1)


class TestTensorGrid:
    """The tensor rules are built with lattice.grid_points; the nodes and
    the weights equal the meshgrid construction."""

    @pytest.mark.parametrize("n,K", [(1, 129), (2, 129), (3, 33), (3, 65)])
    def test_frequency_rule_equals_meshgrid(self, n, K):
        quad = FrequencyQuadrature.build(n, 7.5, K)
        z, w = np.polynomial.legendre.leggauss(K)
        nodes, weights = _meshgrid_rule([7.5 * z] * n, [7.5 * w] * n)
        assert np.array_equal(quad.nodes, nodes)
        assert np.array_equal(quad.weights, weights)
        assert quad.nodes.shape == (K**n, n) and quad.weights.shape == (K**n,)


def _dense_synthesis(quad, spectrum, points):
    """The dense reference: one phase matrix of every point and every node."""
    phases = np.exp(1j * (np.atleast_2d(points) @ quad.nodes.T))
    return np.real(phases @ (spectrum * quad.weights)) / (2.0 * math.pi) ** (
        quad.n / 2.0)


def _dense_homogeneous(f, g, points, t, quad, **kw):
    """homogeneous_solution through the dense phase matrix."""
    cf, gf = spectral._coefficients(quad.nodes, t, **kw)
    spectrum = sum(d.fourier(quad.nodes) * c for d, c in ((f, cf), (g, gf))
                   if d is not None)
    return _dense_synthesis(quad, spectrum, points)


def _scale(quad, spectrum):
    """A bound on every synthesized value: the weighted l1 norm."""
    return float(np.sum(np.abs(spectrum * quad.weights))) / (
        2.0 * math.pi) ** (quad.n / 2.0)


class TestSeparableSynthesis:
    """synthesize contracts the tensor grid one axis at a time; it agrees
    with the dense phase matrix to roundoff of the weighted l1 norm."""

    #: the steps (dx, dt) of the wave equation, Lagrange's model, the scheme
    STEPS = {
        "wave": {},
        "lagrange": {"dx": 0.1},
        "scheme": {"dx": 0.1, "dt": 0.05},
    }

    @staticmethod
    def _case(n):
        f = DataFunction.gaussian([0.1] * n, 0.3)
        g = DataFunction.modulated_gaussian([-0.05] * n, 0.35, [1.5] * n,
                                            amplitude=0.4)
        quad = FrequencyQuadrature.build(
            n, FrequencyQuadrature.for_data(f, g, T=0.4).M, 33 if n == 3 else 65)
        points = np.random.default_rng(n).uniform(-0.6, 0.6, size=(7, n))
        return f, g, quad, points

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("model", ["wave", "lagrange", "scheme"])
    @pytest.mark.parametrize("derivative", [None, "tt", ("xx", 0)])
    def test_matches_dense_phase_matrix(self, n, model, derivative):
        f, g, quad, points = self._case(n)
        t = 0.4
        kw = self.STEPS[model]
        factor = spectral._derivative_factor(derivative)
        cf, gf = spectral._coefficients(quad.nodes, t, factor=factor, **kw)
        scale = _scale(quad, f.fourier(quad.nodes) * cf
                       + g.fourier(quad.nodes) * gf)
        dense = _dense_homogeneous(f, g, points, t, quad, factor=factor, **kw)
        many = homogeneous_solution(f, g, points, t, quad=quad,
                                    derivative=derivative, **kw)
        assert many.shape == (len(points),)
        assert np.max(np.abs(many - dense)) <= 1e-13 * scale
        one = homogeneous_solution(f, g, points[3], t, quad=quad,
                                   derivative=derivative, **kw)
        assert isinstance(one, float)
        assert abs(one - dense[3]) <= 1e-13 * scale

    def test_axis_nodes_span_the_tensor_grid(self):
        quad = FrequencyQuadrature.build(3, 2.0, 5)
        mesh = np.meshgrid(*[quad.axis_nodes] * 3, indexing="ij")
        assert np.array_equal(np.stack([m.ravel() for m in mesh], axis=-1),
                              quad.nodes)

    @pytest.mark.parametrize("n, model", [
        (1, "wave"), (2, "wave"), (1, "scheme"), (2, "scheme"), (3, "scheme"),
    ])
    def test_duhamel_takes_points(self, n, model):
        space = DataFunction.gaussian([0.0] * n, 0.3)
        forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
        spec = LatticeSpec(n, 0.1, 0.05, 0.3)
        quad = FrequencyQuadrature.build(
            n, FrequencyQuadrature.for_data(space, T=spec.T).M,
            33 if n == 3 else 65)
        points = np.random.default_rng(n).uniform(-0.3, 0.3, size=(5, n))
        kw = dict(dx=spec.dx, dt=spec.dt) if model == "scheme" else {}
        many = duhamel_solve(space, None, forcing, points, spec.T, quad, **kw)
        assert many.shape == (5,)
        for x, value in zip(points, many):
            one = duhamel_solve(space, None, forcing, x, spec.T, quad, **kw)
            assert isinstance(one, float)
            assert abs(one - value) <= 1e-13

    def test_duhamel_single_frequency_takes_points(self):
        forcing = separable_forcing(DataFunction.plane_wave([2.0, 1.0]))
        points = np.array([[0.0, 0.0], [0.3, -0.2], [0.1, 0.4]])
        many = duhamel_solve(None, None, forcing, points, 1.0,
                             s_step=1.0 / 128.0)
        assert many.shape == (3,)
        for x, value in zip(points, many):
            assert duhamel_solve(None, None, forcing, x, 1.0,
                                 s_step=1.0 / 128.0) == value

    @pytest.mark.parametrize("n", [1, 2])
    def test_discrete_duhamel_running_sum_equals_stacked_sum(self, n):
        # the fully discrete forcing sum runs over s without (s, node)
        # stacks; its additions are those of the stacked sum, in order
        space = DataFunction.gaussian([0.0] * n, 0.3)
        forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
        spec = LatticeSpec(n, 0.1, 0.05, 0.3)
        quad = FrequencyQuadrature.for_data(space, T=spec.T)
        points = np.random.default_rng(n).uniform(-0.3, 0.3, size=(4, n))
        s_nodes = np.arange(spec.steps) * spec.dt
        s_weights = np.full(spec.steps, spec.dt)
        s_weights[0] = spec.dt / 2.0
        kern = np.stack([_per_node_kernel(quad.nodes, spec.T - s, spec.dx,
                                          spec.dt)
                         for s in s_nodes])
        what = np.stack([forcing.fourier_x(quad.nodes)(s) for s in s_nodes])
        stacked = np.sum(s_weights[:, None] * kern * what, axis=0)
        expected = (homogeneous_solution(space, None, points, spec.T,
                                         dx=spec.dx, dt=spec.dt, quad=quad)
                    + spectral.synthesize(quad, stacked, points))
        values = duhamel_solve(space, None, forcing, points, spec.T, quad,
                               dx=spec.dx, dt=spec.dt)
        assert np.array_equal(values, expected)


def _simpson_weights(t, m):
    """The composite Simpson weights t/(3m) (1, 4, 2, ..., 2, 4, 1) of m
    intervals on [0, t]."""
    return np.array([1.0] + [4.0, 2.0] * (m // 2 - 1) + [4.0, 1.0]) * (
        t / (3.0 * m))


class TestHoistedDuhamel:
    """duhamel_solve forms the kernel's frequencies and the forcing's spatial
    transform once per call; the sums are those of the per-node loop."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("model", ["wave", "lagrange", "scheme"])
    def test_equals_per_node_loop(self, n, model):
        space = DataFunction.gaussian([0.05] * n, 0.3)
        forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
        spec = LatticeSpec(n, 0.1, 0.05, 0.3)
        quad = FrequencyQuadrature.build(
            n, FrequencyQuadrature.for_data(space, T=spec.T).M, 33)
        points = np.random.default_rng(n).uniform(-0.3, 0.3, size=(4, n))
        kw = {"scheme": dict(dx=spec.dx, dt=spec.dt), "lagrange": dict(dx=0.1),
              "wave": {}}[model]
        alpha = quad.nodes
        if model == "scheme":
            s_nodes = np.arange(spec.steps) * spec.dt
            weights = np.full(spec.steps, spec.dt)
            weights[0] = spec.dt / 2.0
        else:
            s_nodes = np.linspace(0.0, spec.T, 65)
            weights = _simpson_weights(spec.T, 64)
        per_node = None
        for weight, s in zip(weights, s_nodes):
            term = (weight * _per_node_kernel(alpha, spec.T - s, **kw)
                    * _per_node_dalembert_transform(space, alpha, s))
            per_node = term if per_node is None else per_node + term
        expected = (homogeneous_solution(space, None, points, spec.T, quad=quad,
                                         **kw)
                    + spectral.synthesize(quad, per_node, points))
        values = duhamel_solve(space, None, forcing, points, spec.T, quad, **kw)
        assert np.array_equal(values, expected)

    @pytest.mark.parametrize("model", ["wave", "lagrange", "scheme"])
    def test_single_frequency_equals_per_node_loop(self, model):
        # the kernel is formed on all s nodes in one call; its values are
        # those of one call per node
        steps = {"wave": {}, "lagrange": dict(dx=0.25),
                 "scheme": dict(dx=0.25, dt=0.125)}[model]
        alpha0 = np.array([2.0, 1.0])
        forcing = separable_forcing(DataFunction.plane_wave(alpha0), math.cos)
        points = np.array([[0.0, 0.0], [0.3, -0.2]])
        if model == "scheme":
            s_nodes = np.arange(8) * 0.125
            weights = np.full(8, 0.125)
            weights[0] = 0.0625
            s_step = None
        else:
            s_nodes = np.linspace(0.0, 1.0, 129)
            weights = _simpson_weights(1.0, 128)
            s_step = 1.0 / 128.0
        kern = np.array([float(_per_node_kernel(alpha0, 1.0 - s, **steps)[0])
                         for s in s_nodes])
        prof = np.array([math.cos(s) for s in s_nodes])
        integral = float(np.sum(weights * kern * prof))
        values = duhamel_solve(None, None, forcing, points, 1.0, s_step=s_step,
                               **steps)
        assert np.array_equal(values, np.cos(points @ alpha0) * integral)

    def test_odd_interval_count_rounds_up_to_even(self):
        forcing = separable_forcing(DataFunction.plane_wave([2.0]))
        x = np.zeros(1)
        assert duhamel_solve(None, None, forcing, x, 1.0,
                             s_step=1.0 / 127.0) == duhamel_solve(
            None, None, forcing, x, 1.0, s_step=1.0 / 128.0)


class TestUpperGammaQ:
    @pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5, 6])
    def test_matches_scipy(self, two_s):
        from scipy.special import gammaincc

        for x in np.geomspace(1e-6, 700.0, 400):
            ref = gammaincc(two_s / 2.0, x)
            assert abs(upper_gamma_q(two_s / 2.0, float(x)) - ref) <= 1e-12 * ref

    # every cutoff that FrequencyQuadrature.for_data picks for E1-E8 at
    # n = 1, 2, 3 (and the forced-2d benchmark config): (f, g, T) -> M, as
    # picked with scipy.special.gammaincc in the tail bound, and its fixed
    # node count
    @pytest.mark.parametrize("n, with_g, T, M", [
        (1, True, 0.4, 1.25**15), (2, True, 0.4, 1.25**15),
        (3, True, 0.4, 1.25**15),
        (1, False, 1.0, 1.25**14), (2, False, 1.0, 1.25**14),
        (3, False, 1.0, 1.25**15), (2, False, 0.5, 1.25**14),
    ])
    def test_for_data_cutoffs_unchanged(self, n, with_g, T, M):
        data = [DataFunction.gaussian([0.0] * n, 0.3)]
        if with_g:
            data.append(DataFunction.gaussian([0.1] * n, 0.25, amplitude=0.5))
        quad = FrequencyQuadrature.for_data(*data, T=T)
        assert quad.M == M
        assert quad.nodes_per_axis == (129 if n <= 2 else 33)
