"""One sampler for data on lattice points, and the forcing's array contract."""

import math

import numpy as np
import pytest

from wavelattice import (
    DataFunction,
    DiscreteProblem,
    Domain,
    Forcing,
    LatticeSpec,
    integrate,
    solve,
)
from wavelattice import elliptic, stencils
from wavelattice.harness import default_config, run_experiment
from wavelattice.lagrange import set_initial_data, system_for_domain
from wavelattice.lattice import classify
from wavelattice.spectral import dalembert_forcing, sample, separable_forcing
from wavelattice.stencils import (
    field_from_classification,
    lattice_points,
    sample_window,
)


def _points(n, seed=0):
    """A (5, 7, n) stack of points in [-1, 1]^n."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(5, 7, n))


def _catalog(n):
    center = [0.1 * (k + 1) for k in range(n)]
    carrier = [2.0 - k for k in range(n)]
    return [
        DataFunction.gaussian(center, 0.3, amplitude=1.5),
        DataFunction.modulated_gaussian(center, 0.4, carrier, amplitude=0.7),
        DataFunction.plane_wave(carrier),
        DataFunction.separable_cosine(carrier),
        DataFunction.smooth_bump(center, 0.8, amplitude=0.2),
    ]


@pytest.fixture
def call_shapes(monkeypatch):
    """The shape of the points handed to each DataFunction call."""
    shapes = []
    original = DataFunction.__call__

    def counting(self, x):
        shapes.append(np.shape(x))
        return original(self, x)

    monkeypatch.setattr(DataFunction, "__call__", counting)
    return shapes


def _per_point(func, points, *args):
    flat = points.reshape(-1, points.shape[-1])
    return np.array([float(func(p, *args)) for p in flat]).reshape(points.shape[:-1])


class TestSample:
    def test_none_is_zero(self):
        vals = sample(None, _points(2))
        assert vals.shape == (5, 7)
        assert np.all(vals == 0.0)

    def test_number_is_constant(self):
        vals = sample(2.5, _points(3))
        assert vals.shape == (5, 7)
        assert np.all(vals == 2.5)

    def test_array_is_copied_as_float(self):
        data = np.arange(35).reshape(5, 7)
        vals = sample(data, _points(2))
        assert vals.dtype == float
        assert np.array_equal(vals, data)
        data[0, 0] = 99
        assert vals[0, 0] == 0.0

    @pytest.mark.parametrize("shape", [(7, 5), (35,), (5, 7, 1)])
    def test_array_of_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="does not match"):
            sample(np.zeros(shape), _points(2))

    def test_data_function_evaluated_once_on_flat_points(self, call_shapes):
        sample(DataFunction.gaussian([0.0, 0.0], 0.3), _points(2))
        assert call_shapes == [(35, 2)]

    def test_plain_callable_reads_one_point(self):
        # x[0] is the first coordinate of one point, not the first point
        points = _points(2)
        vals = sample(lambda x: 1.0 + x[0], points)
        assert np.array_equal(vals, 1.0 + points[..., 0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_catalog_matches_per_point_values(self, n):
        points = _points(n, seed=n)
        for data in _catalog(n):
            assert np.array_equal(sample(data, points), _per_point(data, points)), data.kind


class TestForcingContract:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constructors_match_per_point_values(self, n):
        points = _points(n, seed=10 + n)
        flat = points.reshape(-1, n)
        space = DataFunction.gaussian([0.1] * n, 0.3)
        forcings = [
            separable_forcing(space, math.sin),
            separable_forcing(DataFunction.plane_wave([2.0] * n)),
            dalembert_forcing(space, math.cos, lambda s: -math.cos(s)),
        ]
        for forcing in forcings:
            for t in (0.0, 0.35):
                vals = forcing.func(flat, t)
                assert vals.shape == (flat.shape[0],)
                assert np.array_equal(vals, _per_point(forcing.func, flat, t))


def _counting_forcing(n):
    """A manufactured-solution forcing that records each call's (shape, t)."""
    base = dalembert_forcing(DataFunction.gaussian([0.0] * n, 0.3),
                             math.cos, lambda s: -math.cos(s))
    calls = []

    def func(points, t):
        calls.append((np.shape(points), t))
        return base.func(points, t)

    return Forcing(func, fourier_x=base.fourier_x), calls


class TestCallCounts:
    """Sampling is one call per level or per coefficient, never per point."""

    def test_forced_solve_calls_forcing_once_per_level(self):
        spec = LatticeSpec(2, 0.1, 0.05, 0.3)
        forcing, calls = _counting_forcing(2)
        problem = DiscreteProblem(
            spec=spec, domain=Domain.full_space([(-0.5, 0.5)] * 2),
            f=DataFunction.gaussian([0.0, 0.0], 0.3), forcing=forcing,
        )
        fld = solve(problem, t_range=(0.0, spec.T))
        assert [t for _, t in calls] == [k * spec.dt for k in range(spec.steps)]
        # each step on the points of the level it makes, level 0's one ring
        # in from the bootstrap window: level k + 1 reaches steps - k - 1
        # rings out
        rings = [spec.steps - k - 1 for k in range(spec.steps)]
        assert [shape for shape, _ in calls] == [
            (math.prod(w + 2 * r for w in fld.shape), 2) for r in rings]

    def test_split_pipeline_samples_by_blocks(self, monkeypatch, call_shapes):
        # the assembly samples b, sigma and h, and the shift samples a
        # gridded f, one block of window rows at a time: no (m, n) array of
        # the whole window's points is built
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 40)
        spec = LatticeSpec(2, 0.1, 0.05, 0.2)
        domain = Domain.box([(0.0, 1.0)] * 2)
        classification = classify(domain, spec)
        f = np.full(classification.shape, 0.3)
        bump = DataFunction.smooth_bump([0.5, 0.5], 0.45, amplitude=0.1)
        split = elliptic.split_pipeline(elliptic.VariableCoefficientProblem(
            spec=spec, domain=domain, f=f, h=0.2, classification=classification,
            b=bump, sigma=bump,
        ))
        assert classification.shape == (11, 11)
        # b, then sigma: blocks of 3, 3, 3 and 2 rows of 11 points
        assert call_shapes == ([(33, 2)] * 3 + [(22, 2)]) * 2
        support = classification.support
        assert np.array_equal(split.shifted_f[support],
                              (f - split.elliptic.values)[support])
        assert np.all(split.shifted_f[~support] == 0.0)

    def test_forced_verlet_calls_forcing_once_per_level(self):
        forcing, calls = _counting_forcing(2)
        system = system_for_domain(Domain.box([(0.0, 1.0)] * 2), 0.1,
                                   forcing=forcing)
        integrate(system, 0.0, 0.3, 0.05)
        window = (int(np.prod(system.fieldobj.shape)), 2)
        assert len(calls) == 6
        assert all(shape == window for shape, _ in calls)

    def test_lagrange_setup_samples_each_coefficient_once(self, call_shapes):
        bump = DataFunction.smooth_bump([0.5, 0.5], 0.4, amplitude=0.1)
        system = system_for_domain(Domain.box([(0.0, 1.0)] * 2), 0.1,
                                   a=bump, sigma=bump)
        window = (int(np.prod(system.fieldobj.shape)), 2)
        assert call_shapes == [window] * 2
        call_shapes.clear()
        set_initial_data(system, bump, bump)
        assert call_shapes == [window] * 2

    def test_e7_samples_f_once_per_level(self, monkeypatch):
        # f = 0.2 + gauss is sampled in one call per level on the split's
        # window; the direct integration reuses the finest level's values
        calls = []
        original = DataFunction.__call__

        def counting(self, x):
            if self.kind == "gaussian":
                calls.append(np.shape(x))
            return original(self, x)

        monkeypatch.setattr(DataFunction, "__call__", counting)
        config = default_config("E7", n=2, levels=3)
        assert run_experiment(config).passed
        assert len(calls) == config.levels
        assert all(len(shape) == 2 and shape[0] > 1 for shape in calls)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constant_plus_catalog_matches_per_point_values(self, n):
        # what E7 samples in one call equals its former per-point callable
        points = _points(n, seed=20 + n)
        gauss = DataFunction.gaussian([0.5] * n, 0.08)
        per_point = _per_point(
            lambda x: 0.2 + float(np.atleast_1d(gauss(np.atleast_1d(x)))[0]),
            points)
        assert np.array_equal(0.2 + sample(gauss, points), per_point)


class TestBlockSampling:
    """The bootstrap and the split pipeline sample f and g one block of
    window rows at a time; the values equal those of the whole window's
    points."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("block_points", [1, 37, 1 << 16])
    def test_blocks_equal_whole_window(self, n, block_points, monkeypatch):
        monkeypatch.setattr(stencils, "BLOCK_POINTS", block_points)
        spec = LatticeSpec(n, 0.05, 0.025, 0.2)
        classification = classify(Domain.full_space([(-0.45, 0.6)] * n), spec)
        fld = field_from_classification(classification, pad=3)
        points = lattice_points(fld)
        gridded = np.arange(math.prod(fld.shape), dtype=float).reshape(fld.shape)
        plain = lambda x: 1.0 + x[0] * x[-1]
        for data in _catalog(n) + [None, 1.5, plain, gridded]:
            blocks = sample_window(data, fld)
            assert blocks.shape == fld.shape
            assert np.array_equal(blocks, sample(data, points)), data
        assert sample_window(gridded, fld) is not gridded

    def test_gridded_data_must_match_the_window(self):
        spec = LatticeSpec(2, 0.05, 0.025, 0.2)
        fld = field_from_classification(
            classify(Domain.full_space([(-0.2, 0.2)] * 2), spec), pad=2)
        with pytest.raises(ValueError, match="does not match"):
            sample_window(np.zeros((3, 3)), fld)
