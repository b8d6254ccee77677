"""Fourier synthesis: closed forms, propagators, Duhamel, tail bounds."""

import math

import numpy as np
import pytest

from wavelattice import (
    DataFunction,
    FrequencyQuadrature,
    LatticeSpec,
    continuum_solution_u,
    discrete_closed_form_v,
    duhamel_solve,
    semidiscrete_closed_form_phi,
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


def _per_node_kernel(flavor, alpha, tau, *, spec=None, dx=0.0):
    """K12(tau) with the frequencies formed again at every call."""
    if flavor == "continuum":
        freq = np.sqrt(np.sum(np.atleast_2d(alpha) ** 2, axis=-1))
        return tau * sinc(freq * tau)
    if flavor == "semidiscrete":
        freq = beta_semidiscrete(np.atleast_2d(alpha), dx)
        return tau * sinc(freq * tau)
    freq = beta_arrays(np.atleast_2d(alpha), spec.dx, spec.dt)
    return tau * sinc(freq * tau) / sinc(freq * spec.dt)


def _per_node_dalembert_transform(space, alpha, s):
    """The x-transform of dalembert_forcing(space, cos, -cos) at time s, with
    the spatial transform and |alpha|^2 formed again at every call."""
    a2 = np.sum(np.atleast_2d(alpha) ** 2, axis=-1)
    return space.fourier(alpha) * (-math.cos(s) + a2 * math.cos(s))


class TestHomogeneousClosedForms:
    def test_separable_cosine_continuum(self):
        # f = cos(x1)cos(x2) evolves to f(x) cos(sqrt(2) t)
        f = DataFunction.separable_cosine([1.0, 1.0])
        x = np.array([0.2, -0.4])
        t = 0.5
        val = continuum_solution_u(f, None, x, t)
        expected = math.cos(0.2) * math.cos(-0.4) * math.cos(math.sqrt(2.0) * t)
        assert val == pytest.approx(expected, abs=1e-12)
        assert math.cos(math.sqrt(2.0) * 0.5) == pytest.approx(0.760245, abs=1e-6)

    def test_g_route_plane_wave(self):
        # g = cos(2x) gives u = cos(2x) sin(2t)/2
        g = DataFunction.plane_wave([2.0])
        x = np.array([0.3])
        t = 0.7
        val = continuum_solution_u(None, g, x, t)
        assert val == pytest.approx(
            math.cos(0.6) * math.sin(1.4) / 2.0, abs=1e-12
        )

    def test_initial_time_consistency(self):
        f = DataFunction.gaussian([0.1], 0.2)
        quad = FrequencyQuadrature.for_data(f, T=1.0)
        for x in (np.array([0.0]), np.array([0.3])):
            assert continuum_solution_u(f, None, x, 0.0, quad) == pytest.approx(
                float(f(x)), abs=1e-10
            )

    def test_flavors_agree_in_limit(self):
        # semidiscrete closed form approaches the continuum one as dx -> 0
        f = DataFunction.gaussian([0.0], 0.3)
        quad = FrequencyQuadrature.for_data(f, T=0.5)
        x, t = np.array([0.2]), 0.5
        u = continuum_solution_u(f, None, x, t, quad)
        errs = [
            abs(semidiscrete_closed_form_phi(f, None, dx, x, t, quad) - u)
            for dx in (0.2, 0.1, 0.05)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)

    def test_discrete_closed_form_needs_lattice_time(self):
        f = DataFunction.plane_wave([1.0])
        spec = LatticeSpec(1, 0.2, 0.1, 1.0)
        with pytest.raises(ValueError):
            discrete_closed_form_v(f, None, spec, np.array([0.0]), 0.05)


class TestPropagator:
    SPECS = {
        "continuum": {},
        "semidiscrete": {"dx": 0.2},
        "fully_discrete": {"spec": LatticeSpec(1, 0.2, 0.1, 1.0)},
    }

    def test_identity_at_t0(self):
        alpha = np.array([1.3])
        for flavor in ("continuum", "semidiscrete"):
            mat = propagator(flavor, alpha, 0.0, **self.SPECS[flavor])
            assert np.allclose(mat, np.eye(2), atol=1e-14)
        # the fully discrete flavor carries the dt/sin(beta dt) weight on
        # the g-route, so its lower-right entry at t = 0 is 1/sinc(beta dt)
        spec = self.SPECS["fully_discrete"]["spec"]
        mat = propagator("fully_discrete", alpha, 0.0, spec=spec)
        assert np.allclose(mat[0], [1.0, 0.0], atol=1e-14)
        assert mat[1, 0] == 0.0 and mat[1, 1].real > 1.0

    def test_lower_row_is_time_derivative(self):
        alpha = np.array([1.3])
        t, eps = 0.6, 1e-6
        for flavor, kw in self.SPECS.items():
            plus = propagator(flavor, alpha, t + eps, **kw)
            minus = propagator(flavor, alpha, t - eps, **kw)
            deriv = (plus[0] - minus[0]) / (2.0 * eps)
            mat = propagator(flavor, alpha, t, **kw)
            assert np.allclose(mat[1], deriv, atol=1e-7)

    def test_semidiscrete_frequency(self):
        alpha = np.array([2.0])
        dx, t = 0.5, 0.3
        mat = propagator("semidiscrete", alpha, t, dx=dx)
        freq = beta_semidiscrete(alpha, dx)
        assert mat[0, 0] == pytest.approx(math.cos(freq * t), rel=1e-14)


_PLANE = DataFunction.plane_wave([2.0])
_SPEC = LatticeSpec(1, 0.2, 0.1, 1.0)


class TestFlavorErrors:
    """Each flavor reads its own step: the scheme a LatticeSpec, Lagrange's
    model a spacing dx > 0, the continuum neither.  Any other flavor, step
    or missing step is a ValueError at every entry point."""

    BAD = {
        "unknown flavor": ("bogus", dict(spec=_SPEC)),
        "scheme without spec": ("fully_discrete", {}),
        "scheme with dx": ("fully_discrete", dict(spec=_SPEC, dx=0.2)),
        "semidiscrete without dx": ("semidiscrete", {}),
        "continuum with spec": ("continuum", dict(spec=_SPEC)),
    }
    CALLS = {
        "propagator": lambda flavor, kw: propagator(
            flavor, np.array([2.0]), 1.0, **kw),
        "homogeneous_solution": lambda flavor, kw: spectral.homogeneous_solution(
            _PLANE, None, flavor, np.zeros(1), 1.0, **kw),
        "duhamel_solve": lambda flavor, kw: duhamel_solve(
            None, None, separable_forcing(_PLANE), flavor, np.zeros(1), 1.0,
            **kw),
        # nothing to synthesize: the flavor is still checked
        "homogeneous_solution without data": lambda flavor, kw:
            spectral.homogeneous_solution(None, None, flavor, np.zeros(1), 1.0,
                                          **kw),
        "duhamel_solve without data": lambda flavor, kw: duhamel_solve(
            None, None, None, flavor, np.zeros(1), 1.0, **kw),
    }

    @pytest.mark.parametrize("case", BAD)
    @pytest.mark.parametrize("call", CALLS)
    def test_raises_value_error(self, call, case):
        flavor, kw = self.BAD[case]
        with pytest.raises(ValueError):
            self.CALLS[call](flavor, kw)


class TestDuhamel:
    def test_single_frequency_forcing(self):
        # f = g = 0, w = cos(2x): u(0, t) = (1 - cos(2t))/4
        forcing = separable_forcing(DataFunction.plane_wave([2.0]))
        t = 1.0
        val = duhamel_solve(None, None, forcing, "continuum",
                            np.zeros(1), t, s_step=t / 128.0)
        exact = (1.0 - math.cos(2.0)) / 4.0
        assert exact == pytest.approx(0.354037, abs=1e-6)
        assert val == pytest.approx(exact, abs=1e-6)

    def test_no_forcing_reduces_to_homogeneous(self):
        f = DataFunction.plane_wave([1.0])
        x, t = np.array([0.4]), 0.8
        assert duhamel_solve(f, None, None, "continuum", x, t) == (
            continuum_solution_u(f, None, x, t)
        )

    def test_negative_time_rejected(self):
        forcing = separable_forcing(DataFunction.plane_wave([1.0]))
        with pytest.raises(ValueError):
            duhamel_solve(None, None, forcing, "continuum",
                          np.zeros(1), -0.5)

    def test_dalembert_forcing_manufactures_solution(self):
        # U(x, t) = gaussian(x) cos(t) solves the equation with
        # w = d'Alembert of U; Duhamel must reproduce U
        space = DataFunction.gaussian([0.0], 0.3)
        forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
        quad = FrequencyQuadrature.for_data(space, T=0.5)
        x, t = np.array([0.1]), 0.5
        val = duhamel_solve(space, None, forcing, "continuum", x, t, quad,
                            s_step=t / 64.0)
        assert val == pytest.approx(float(space(x)) * math.cos(t), abs=1e-6)


class TestQuadrature:
    def test_doubled_refines_nodes_keeps_cutoff(self):
        f = DataFunction.gaussian([0.0], 0.2)
        quad = FrequencyQuadrature.for_data(f, T=1.0)
        fine = quad.doubled()
        assert fine.nodes_per_axis == 2 * quad.nodes_per_axis
        assert fine.M == quad.M

    def test_for_data_meets_tolerance(self):
        T, tol = 1.0, 1e-10
        f = DataFunction.gaussian([0.0], 0.15)
        quad = FrequencyQuadrature.for_data(f, T=T, tol=tol)
        assert quad.tail_bound(f, T=T) <= tol * (2.0 + 2.0 * T)

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
    """The tensor rules are built with lattice.grid_points; the nodes, the
    weights and the bump transform equal the meshgrid construction."""

    @pytest.mark.parametrize("n,K", [(1, 129), (2, 129), (3, 33), (3, 65)])
    def test_frequency_rule_equals_meshgrid(self, n, K):
        quad = FrequencyQuadrature.build(n, 7.5, K)
        z, w = np.polynomial.legendre.leggauss(K)
        nodes, weights = _meshgrid_rule([7.5 * z] * n, [7.5 * w] * n)
        assert np.array_equal(quad.nodes, nodes)
        assert np.array_equal(quad.weights, weights)
        assert quad.nodes.shape == (K**n, n) and quad.weights.shape == (K**n,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bump_transform_equals_meshgrid(self, n):
        bump = DataFunction.smooth_bump([0.1 * (k + 1) for k in range(n)], 0.6,
                                        amplitude=0.7)
        alpha = np.random.default_rng(n).uniform(-6.0, 6.0, size=(50, n))
        z, w = np.polynomial.legendre.leggauss(64)
        pts, weight = _meshgrid_rule(
            [c + bump.radius * z for c in bump.center], [bump.radius * w] * n)
        expected = (np.exp(-1j * (alpha @ pts.T)) @ (bump(pts) * weight)) / (
            2.0 * math.pi) ** (n / 2.0)
        assert np.array_equal(bump.fourier(alpha), expected)


def _dense_synthesis(quad, spectrum, points):
    """The dense reference: one phase matrix of every point and every node."""
    phases = np.exp(1j * (np.atleast_2d(points) @ quad.nodes.T))
    return np.real(phases @ (spectrum * quad.weights)) / (2.0 * math.pi) ** (
        quad.n / 2.0)


def _dense_homogeneous(f, g, flavor, points, t, quad, **kw):
    """homogeneous_solution through the dense phase matrix."""
    cf, gf = spectral._coefficients(flavor, quad.nodes, t, **kw)
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

    FLAVORS = {
        "continuum": {},
        "semidiscrete": {"dx": 0.1},
        "fully_discrete": {"spec": None},
    }

    @staticmethod
    def _case(n):
        f = DataFunction.gaussian([0.1] * n, 0.3)
        g = DataFunction.modulated_gaussian([-0.05] * n, 0.35, [1.5] * n,
                                            amplitude=0.4)
        quad = FrequencyQuadrature.for_data(f, g, T=0.4,
                                            nodes_per_axis=33 if n == 3 else 65)
        points = np.random.default_rng(n).uniform(-0.6, 0.6, size=(7, n))
        return f, g, quad, points

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("flavor", ["continuum", "semidiscrete",
                                        "fully_discrete"])
    @pytest.mark.parametrize("derivative", [None, "tt", ("xx", 0)])
    def test_matches_dense_phase_matrix(self, n, flavor, derivative):
        f, g, quad, points = self._case(n)
        t = 0.4
        kw = dict(self.FLAVORS[flavor])
        if flavor == "fully_discrete":
            kw["spec"] = LatticeSpec(n, 0.1, 0.05, 0.4)
        factor = spectral._derivative_factor(derivative)
        cf, gf = spectral._coefficients(flavor, quad.nodes, t,
                                        freq_factor=factor, **kw)
        scale = _scale(quad, f.fourier(quad.nodes) * cf
                       + g.fourier(quad.nodes) * gf)
        dense = _dense_homogeneous(f, g, flavor, points, t, quad,
                                   freq_factor=factor, **kw)
        many = spectral.homogeneous_solution(f, g, flavor, points, t,
                                             quad=quad, freq_factor=factor, **kw)
        assert many.shape == (len(points),)
        assert np.max(np.abs(many - dense)) <= 1e-13 * scale
        one = spectral.homogeneous_solution(f, g, flavor, points[3], t,
                                            quad=quad, freq_factor=factor, **kw)
        assert isinstance(one, float)
        assert abs(one - dense[3]) <= 1e-13 * scale

    def test_axis_nodes_span_the_tensor_grid(self):
        quad = FrequencyQuadrature.build(3, 2.0, 5)
        mesh = np.meshgrid(*[quad.axis_nodes] * 3, indexing="ij")
        assert np.array_equal(np.stack([m.ravel() for m in mesh], axis=-1),
                              quad.nodes)

    @pytest.mark.parametrize("n, flavor", [
        (1, "continuum"), (2, "continuum"),
        (1, "fully_discrete"), (2, "fully_discrete"), (3, "fully_discrete"),
    ])
    def test_duhamel_takes_points(self, n, flavor):
        space = DataFunction.gaussian([0.0] * n, 0.3)
        forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
        spec = LatticeSpec(n, 0.1, 0.05, 0.3)
        quad = FrequencyQuadrature.for_data(space, T=spec.T,
                                            nodes_per_axis=33 if n == 3 else 65)
        points = np.random.default_rng(n).uniform(-0.3, 0.3, size=(5, n))
        kw = dict(spec=spec) if flavor == "fully_discrete" else {}
        many = duhamel_solve(space, None, forcing, flavor, points, spec.T,
                             quad, **kw)
        assert many.shape == (5,)
        for x, value in zip(points, many):
            one = duhamel_solve(space, None, forcing, flavor, x, spec.T, quad, **kw)
            assert isinstance(one, float)
            assert abs(one - value) <= 1e-13

    def test_duhamel_single_frequency_takes_points(self):
        forcing = separable_forcing(DataFunction.plane_wave([2.0, 1.0]))
        points = np.array([[0.0, 0.0], [0.3, -0.2], [0.1, 0.4]])
        many = duhamel_solve(None, None, forcing, "continuum", points, 1.0,
                             s_step=1.0 / 128.0)
        assert many.shape == (3,)
        for x, value in zip(points, many):
            assert duhamel_solve(None, None, forcing, "continuum", x, 1.0,
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
        kern = np.stack([_per_node_kernel("fully_discrete", quad.nodes,
                                          spec.T - s, spec=spec)
                         for s in s_nodes])
        what = np.stack([forcing.fourier_x(quad.nodes)(s) for s in s_nodes])
        stacked = np.sum(s_weights[:, None] * kern * what, axis=0)
        expected = (spectral.homogeneous_solution(space, None, "fully_discrete",
                                                  points, spec.T, spec=spec,
                                                  quad=quad)
                    + spectral.synthesize(quad, stacked, points))
        values = duhamel_solve(space, None, forcing, "fully_discrete", points,
                               spec.T, quad, spec=spec)
        assert np.array_equal(values, expected)


class TestHoistedDuhamel:
    """duhamel_solve forms the kernel's frequencies and the forcing's spatial
    transform once per call; the sums are those of the per-node loop."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("flavor", ["continuum", "semidiscrete",
                                        "fully_discrete"])
    def test_equals_per_node_loop(self, n, flavor):
        from scipy.integrate import simpson

        space = DataFunction.gaussian([0.05] * n, 0.3)
        forcing = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
        spec = LatticeSpec(n, 0.1, 0.05, 0.3)
        quad = FrequencyQuadrature.for_data(space, T=spec.T, nodes_per_axis=33)
        points = np.random.default_rng(n).uniform(-0.3, 0.3, size=(4, n))
        kw = {"fully_discrete": dict(spec=spec), "semidiscrete": dict(dx=0.1),
              "continuum": {}}[flavor]
        alpha = quad.nodes
        if flavor == "fully_discrete":
            per_node = None
            for p in range(spec.steps):
                s = p * spec.dt
                weight = spec.dt / 2.0 if p == 0 else spec.dt
                term = (weight * _per_node_kernel(flavor, alpha, spec.T - s, **kw)
                        * _per_node_dalembert_transform(space, alpha, s))
                per_node = term if per_node is None else per_node + term
        else:
            s_nodes = np.linspace(0.0, spec.T, 65)
            kern = np.stack([_per_node_kernel(flavor, alpha, spec.T - s, **kw)
                             for s in s_nodes])
            what = np.stack([_per_node_dalembert_transform(space, alpha, s)
                             for s in s_nodes])
            per_node = simpson(kern * what, x=s_nodes, axis=0)
        expected = (spectral.homogeneous_solution(space, None, flavor, points,
                                                  spec.T, quad=quad, **kw)
                    + spectral.synthesize(quad, per_node, points))
        values = duhamel_solve(space, None, forcing, flavor, points, spec.T,
                               quad, **kw)
        assert np.array_equal(values, expected)

    def test_single_frequency_equals_per_node_loop(self):
        from scipy.integrate import simpson

        alpha0 = np.array([2.0, 1.0])
        forcing = separable_forcing(DataFunction.plane_wave(alpha0), math.cos)
        points = np.array([[0.0, 0.0], [0.3, -0.2]])
        s_nodes = np.linspace(0.0, 1.0, 129)
        kern = np.array([float(_per_node_kernel("continuum", alpha0, 1.0 - s)[0])
                         for s in s_nodes])
        prof = np.array([math.cos(s) for s in s_nodes])
        integral = float(simpson(kern * prof, x=s_nodes))
        values = duhamel_solve(None, None, forcing, "continuum", points, 1.0,
                               s_step=1.0 / 128.0)
        assert np.array_equal(values, np.cos(points @ alpha0) * integral)

    def test_odd_interval_count_rounds_up_to_even(self):
        forcing = separable_forcing(DataFunction.plane_wave([2.0]))
        x = np.zeros(1)
        assert duhamel_solve(None, None, forcing, "continuum", x, 1.0,
                             s_step=1.0 / 127.0) == duhamel_solve(
            None, None, forcing, "continuum", x, 1.0, s_step=1.0 / 128.0)


class TestSimpson:
    """The in-house composite Simpson rule does scipy's arithmetic for the
    odd node counts that duhamel_solve produces."""

    @pytest.mark.parametrize("t, nodes", [(1.0, 129), (0.5, 65), (0.3, 7),
                                          (0.7, 3), (1.3, 41)])
    def test_equals_scipy(self, t, nodes):
        from scipy.integrate import simpson

        rng = np.random.default_rng(nodes)
        x = np.linspace(0.0, t, nodes)
        one = rng.normal(size=nodes)
        real = rng.normal(size=(nodes, 17))
        cplx = real + 1j * rng.normal(size=(nodes, 17))
        assert spectral._simpson(one, x) == simpson(one, x=x)
        assert np.array_equal(spectral._simpson(real, x),
                              simpson(real, x=x, axis=0))
        assert np.array_equal(spectral._simpson(cplx, x),
                              simpson(cplx, x=x, axis=0))


class TestUpperGammaQ:
    @pytest.mark.parametrize("two_s", [1, 2, 3, 4, 5, 6])
    def test_matches_scipy(self, two_s):
        from scipy.special import gammaincc

        for x in np.geomspace(1e-6, 700.0, 400):
            ref = gammaincc(two_s / 2.0, x)
            assert abs(upper_gamma_q(two_s / 2.0, float(x)) - ref) <= 1e-12 * ref

    # every cutoff that FrequencyQuadrature.for_data picks for E1-E8 at
    # n = 1, 2, 3 (and the forced-2d benchmark config): (f, g, T) -> M, as
    # picked with scipy.special.gammaincc in the tail bound
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
        quad = FrequencyQuadrature.for_data(*data, T=T, tol=1e-10)
        assert quad.M == M
