"""One sampler for data on lattice points, and the forcing's terms contract."""

import math
import threading

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


#: the kinds whose formula dots a vector with the points
_DOT_KINDS = ("modulated_gaussian", "plane_wave")


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


@pytest.fixture
def axes_shapes(monkeypatch):
    """The shape of the grid of the axes handed to each DataFunction.on_axes
    call, the samplers' entry point for catalog data on a window."""
    shapes = []
    original = DataFunction.on_axes

    def counting(self, axes):
        shapes.append(tuple(len(a) for a in axes))
        return original(self, axes)

    monkeypatch.setattr(DataFunction, "on_axes", counting)
    return shapes


def _array_formula(data, points):
    """The catalog formula on the flat points in whole-array form, each sum
    or product over axes taken by np.sum or np.prod along the last axis: the
    reference for the order of the per-axis evaluator."""
    x = points.reshape(-1, points.shape[-1])
    if data.kind == "plane_wave":
        vals = np.cos(x @ np.asarray(data.alpha0))
    elif data.kind == "separable_cosine":
        vals = np.prod(np.cos(x * np.asarray(data.alpha0)), axis=-1)
    else:
        offset = x - np.asarray(data.center)
        r2 = np.sum(offset**2, axis=-1)
        if data.kind == "smooth_bump":
            s2 = r2 / data.radius**2
            inside = s2 < 1.0
            vals = np.where(inside, data.amplitude * np.exp(
                1.0 - 1.0 / (1.0 - np.where(inside, s2, 0.0))), 0.0)
        else:
            vals = data.amplitude * np.exp(-r2 / (2.0 * data.width**2))
            if data.kind == "modulated_gaussian":
                vals = vals * np.cos(offset @ np.asarray(data.carrier))
    return vals.reshape(points.shape[:-1])


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_catalog_matches_per_point_values(self, n):
        points = _points(n, seed=n)
        for data in _catalog(n):
            if n == 4 and data.kind in _DOT_KINDS:
                continue  # see test_dot_kinds_match_per_point_values_at_n4
            assert np.array_equal(sample(data, points), _per_point(data, points)), data.kind

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_catalog_sums_axes_in_array_order(self, n):
        # the per-axis terms are summed (multiplied) from axis 0 on, as
        # np.sum (np.prod) does along the last axis, so the values are those
        # of the whole-array formula bit for bit
        points = _points(n, seed=40 + n)
        for data in _catalog(n):
            assert np.array_equal(sample(data, points),
                                  _array_formula(data, points)), data.kind

    def test_on_axes_needs_one_axis_per_dimension(self):
        with pytest.raises(ValueError, match="3 axes need 2"):
            DataFunction.gaussian([0.0, 0.0], 0.3).on_axes([np.zeros(2)] * 3)

    @pytest.mark.xfail(reason=(
        "numpy hands one point's `pts @ vector` to BLAS ddot and more points' "
        "to dgemv, whose sums may take different orders; whether they do "
        "depends on the BLAS kernel of the host"))
    @pytest.mark.parametrize("kind", _DOT_KINDS)
    def test_dot_kinds_match_per_point_values_at_n4(self, kind):
        points = _points(4, seed=4)
        data = next(d for d in _catalog(4) if d.kind == kind)
        assert np.array_equal(sample(data, points), _per_point(data, points))


class TestForcingContract:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_terms_match_per_point_values(self, n):
        # each space takes (m, n) points and returns (m,) values, and each
        # profile takes t
        points = _points(n, seed=10 + n)
        flat = points.reshape(-1, n)
        space = DataFunction.gaussian([0.1] * n, 0.3)
        forcings = [
            separable_forcing(space, math.sin),
            separable_forcing(DataFunction.plane_wave([2.0] * n)),
            dalembert_forcing(space, math.cos, lambda s: -math.cos(s)),
        ]
        for forcing in forcings:
            for term, profile in forcing.terms:
                vals = term(flat)
                assert vals.shape == (flat.shape[0],)
                assert np.array_equal(vals, _per_point(term, flat))
                assert isinstance(profile(0.35), float)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dalembert_terms_are_space_and_minus_its_laplacian(self, n):
        space = DataFunction.gaussian([0.1] * n, 0.3, amplitude=1.5)
        (term, profile_dd), (minus_lap, profile) = dalembert_forcing(
            space, math.cos, lambda s: -math.cos(s)).terms
        assert term is space and profile is math.cos
        assert profile_dd(0.35) == -math.cos(0.35)
        x = _points(n, seed=30 + n).reshape(-1, n)
        h = 1e-4
        lap = sum((space(x + h * e) - 2.0 * space(x) + space(x - h * e)) / h**2
                  for e in np.eye(n))
        assert np.allclose(minus_lap(x), -lap, rtol=0.0, atol=1e-5)


def _recording_forcing(n):
    """A manufactured-solution forcing whose spaces record the thread and
    the points of each call, as (term index, thread, points)."""
    base = dalembert_forcing(DataFunction.gaussian([0.0] * n, 0.3),
                             math.cos, lambda s: -math.cos(s))
    calls = []

    def recording(j, space):
        def call(points):
            calls.append((j, threading.get_ident(), np.array(points)))
            return space(points)
        return call

    terms = tuple((recording(j, space), profile)
                  for j, (space, profile) in enumerate(base.terms))
    return Forcing(terms, base.fourier_x), calls


def _assert_sampled_once(calls, fieldobj):
    """Each of the two spaces was called on this thread only, on more than
    one block, and its calls cover the window's points once, in order."""
    points = lattice_points(fieldobj).reshape(-1, fieldobj.spec.n)
    for j in range(2):
        mine = [(thread, pts) for k, thread, pts in calls if k == j]
        assert len(mine) > 1
        assert {thread for thread, _ in mine} == {threading.get_ident()}
        assert np.array_equal(np.concatenate([pts for _, pts in mine]), points)


class TestCallCounts:
    """Sampling is once per run or per coefficient, never per level or per
    point."""

    @pytest.fixture
    def multi_block(self, monkeypatch):
        """Blocks of at most 40 points, stepped on two threads."""
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 40)
        monkeypatch.setattr(stencils, "_WORKERS", 2)

    def test_forced_solve_samples_each_space_once(self, multi_block):
        # both runs read the one sampling of the bootstrap window, the window
        # grown by the longer run's steps
        spec = LatticeSpec(2, 0.1, 0.05, 0.3)
        forcing, calls = _recording_forcing(2)
        problem = DiscreteProblem(
            spec=spec, domain=Domain.full_space([(-0.5, 0.5)] * 2),
            f=DataFunction.gaussian([0.0, 0.0], 0.3), forcing=forcing,
        )
        fld = solve(problem, t_range=(-0.1, spec.T))
        assert sorted(fld.levels)[0] == -2 and spec.steps in fld.levels
        _assert_sampled_once(calls, field_from_classification(
            problem.classification, pad=spec.steps))

    def test_forced_verlet_samples_each_space_once(self, multi_block):
        # the system samples its forcing when it is built; integrating it
        # calls no space
        forcing, calls = _recording_forcing(2)
        system = system_for_domain(Domain.box([(0.0, 1.0)] * 2), 0.1,
                                   forcing=forcing)
        _assert_sampled_once(calls, system.fieldobj)
        calls.clear()
        integrate(system, 0.0, 0.3, 0.05)
        assert calls == []

    def test_split_pipeline_samples_by_blocks(self, monkeypatch, axes_shapes):
        # the assembly samples b, sigma and h, and the shift samples a
        # gridded f, one block of window rows at a time: no (m, n) array of
        # the window's points is built
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
        assert axes_shapes == ([(3, 11)] * 3 + [(2, 11)]) * 2
        support = classification.support
        assert np.array_equal(split.shifted_f[support],
                              (f - split.elliptic.values)[support])
        assert np.all(split.shifted_f[~support] == 0.0)

    def test_lagrange_setup_samples_each_coefficient_once(self, axes_shapes):
        # the window is one block, so each coefficient is one call on its axes
        bump = DataFunction.smooth_bump([0.5, 0.5], 0.4, amplitude=0.1)
        system = system_for_domain(Domain.box([(0.0, 1.0)] * 2), 0.1,
                                   a=bump, sigma=bump)
        window = system.fieldobj.shape
        assert axes_shapes == [window] * 2
        axes_shapes.clear()
        set_initial_data(system, bump, bump)
        assert axes_shapes == [window] * 2

    def test_e7_samples_f_once_per_level(self, monkeypatch):
        # f = 0.2 + gauss is sampled in one call per level on the axes of the
        # split's window (one block); the direct integration reuses the
        # finest level's values
        calls = []
        original = DataFunction.on_axes

        def counting(self, axes):
            if self.kind == "gaussian":
                calls.append(tuple(len(a) for a in axes))
            return original(self, axes)

        monkeypatch.setattr(DataFunction, "on_axes", counting)
        config = default_config("E7", n=2, levels=3)
        assert run_experiment(config).passed
        assert len(calls) == config.levels
        assert all(len(shape) == 2 and min(shape) > 1 for shape in calls)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
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
