"""One sampler for data on lattice points, `stencils.sample_window`, and
the forcing's terms contract."""

import math
import threading
from types import SimpleNamespace

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
from wavelattice.lattice import classify, grid_points
from wavelattice.spectral import dalembert_forcing, separable_forcing
from wavelattice.stencils import (
    field_from_classification,
    lattice_points,
    sample_window,
    window_axes,
)


def _points(n, seed=0):
    """A (5, 7, n) stack of points in [-1, 1]^n."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(5, 7, n))


def _field(n, pad=0):
    """An empty field on a small full-space window, a different number of
    points along each axis, at a step that makes every coordinate inexact."""
    spec = LatticeSpec(n, 0.0731, 0.0731 / 4, 0.2)
    domain = Domain.full_space([(-0.2 - 0.07 * k, 0.2) for k in range(n)])
    return field_from_classification(classify(domain, spec), pad=pad)


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
def axes_shapes(monkeypatch):
    """The shape of the grid of the axes handed to each DataFunction.on_axes
    call, the sampler's entry point for catalog data on a window."""
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
        vals = np.cos(np.sum(x * np.asarray(data.alpha0), axis=-1))
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
                vals = vals * np.cos(
                    np.sum(offset * np.asarray(data.carrier), axis=-1))
    return vals.reshape(points.shape[:-1])


def _per_point(func, points, *args):
    flat = points.reshape(-1, points.shape[-1])
    return np.array([float(func(p, *args)) for p in flat]).reshape(points.shape[:-1])


class TestSampleWindow:
    def test_none_is_zero(self):
        fld = _field(2)
        vals = sample_window(None, fld)
        assert vals.shape == fld.shape
        assert np.all(vals == 0.0)

    def test_number_is_constant(self):
        fld = _field(3)
        vals = sample_window(2.5, fld)
        assert vals.shape == fld.shape
        assert np.all(vals == 2.5)

    def test_none_and_numbers_build_no_points(self, monkeypatch):
        # zeros and a constant are filled in one call each: the window's
        # axes and points are never formed
        def refuse(*args):
            raise AssertionError("points built")

        monkeypatch.setattr(stencils, "window_axes", refuse)
        monkeypatch.setattr(stencils, "grid_points", refuse)
        fld = _field(3)
        for data, value in ((None, 0.0), (2.5, 2.5), (3, 3.0), (np.float64(-1.0), -1.0)):
            vals = sample_window(data, fld)
            assert vals.shape == fld.shape and vals.dtype == float
            assert np.all(vals == value)

    def test_array_is_copied_as_float(self):
        fld = _field(2)
        data = np.arange(math.prod(fld.shape)).reshape(fld.shape)
        vals = sample_window(data, fld)
        assert vals.dtype == float
        assert np.array_equal(vals, data)
        data[0, 0] = 99
        assert vals[0, 0] == 0.0

    @pytest.mark.parametrize("change", ["transposed", "flat", "trailing axis"])
    def test_array_of_wrong_shape_rejected(self, change):
        fld = _field(2)
        rows, cols = fld.shape
        shape = {"transposed": (cols, rows), "flat": (rows * cols,),
                 "trailing axis": (rows, cols, 1)}[change]
        with pytest.raises(ValueError, match="does not match"):
            sample_window(np.zeros(shape), fld)

    def test_data_function_evaluated_once_per_block(self, monkeypatch,
                                                    axes_shapes):
        monkeypatch.setattr(stencils, "BLOCK_POINTS", 20)
        fld = _field(2)
        sample_window(DataFunction.gaussian([0.0, 0.0], 0.3), fld)
        blocks = stencils.row_blocks(fld.shape)
        assert len(blocks) > 1
        assert axes_shapes == [(len(range(*rows.indices(fld.shape[0]))),
                                fld.shape[1]) for rows in blocks]

    def test_plain_callable_reads_one_point(self):
        # x[0] is the first coordinate of one point, not the first point
        fld = _field(2)
        vals = sample_window(lambda x: 1.0 + x[0], fld)
        assert np.array_equal(vals, 1.0 + lattice_points(fld)[..., 0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_catalog_matches_per_point_values(self, n):
        fld = _field(n)
        points = lattice_points(fld)
        for data in _catalog(n):
            assert np.array_equal(sample_window(data, fld),
                                  _per_point(data, points)), data.kind

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_catalog_sums_axes_in_array_order(self, n):
        # the per-axis terms are summed (multiplied) from axis 0 on, as
        # np.sum (np.prod) does along the last axis, so the values are those
        # of the whole-array formula bit for bit, on a batch of points and
        # on a window
        points = _points(n, seed=40 + n)
        fld = _field(n)
        for data in _catalog(n):
            assert np.array_equal(data(points),
                                  _array_formula(data, points)), data.kind
            assert np.array_equal(sample_window(data, fld), _array_formula(
                data, lattice_points(fld))), data.kind

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("amplitude", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["gaussian", "modulated_gaussian"])
    def test_gaussian_kinds_equal_the_negated_sum_formula(self, n, amplitude,
                                                          kind):
        # the formula the Gaussian kinds had, amplitude * exp(-r2 / (2 w^2))
        # with r2 summed from axis 0 on, bit for bit, signbits included; the
        # centre is a lattice point, so r2 holds zeros there, and the axes
        # hold -0.0
        center = [0.1 * (k - 1) for k in range(n)]
        data = (DataFunction.gaussian(center, 0.3, amplitude=amplitude)
                if kind == "gaussian" else DataFunction.modulated_gaussian(
                    center, 0.3, [2.0 - k for k in range(n)], amplitude=amplitude))
        axes = [np.arange(-3, 4 + k) * 0.1 for k in range(n)]
        for axis in axes:
            axis[axis == 0.0] = -0.0
        grid = grid_points(axes)
        r2 = sum((grid[..., k] - c) ** 2 for k, c in enumerate(center))
        expected = amplitude * np.exp(-r2 / (2.0 * 0.3**2))
        if kind == "modulated_gaussian":
            expected = expected * np.cos(sum(
                (grid[..., k] - c) * (2.0 - k) for k, c in enumerate(center)))
        for values in (data.on_axes(axes), data(grid)):
            assert np.array_equal(values, expected)
            assert np.array_equal(np.signbit(values), np.signbit(expected))

    def test_on_axes_needs_one_axis_per_dimension(self):
        with pytest.raises(ValueError, match="3 axes need 2"):
            DataFunction.gaussian([0.0, 0.0], 0.3).on_axes([np.zeros(2)] * 3)

    @pytest.mark.parametrize("kind", _DOT_KINDS)
    def test_dot_kinds_match_per_point_values_at_n4(self, kind):
        points = _points(4, seed=4)
        data = next(d for d in _catalog(4) if d.kind == kind)
        assert np.array_equal(data(points), _per_point(data, points))
        fld = _field(4)
        assert np.array_equal(sample_window(data, fld),
                              _per_point(data, lattice_points(fld)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dot_kinds_give_one_point_its_batch_value(self, n):
        # no BLAS dot: one point alone and the same point in a batch sum the
        # same products in the same order
        rng = np.random.default_rng(50 + n)
        for _ in range(200):
            vector, center = rng.uniform(-30.0, 30.0, size=(2, n))
            points = rng.uniform(-1.0, 1.0, size=(3, n))
            for data in (DataFunction.plane_wave(vector),
                         DataFunction.modulated_gaussian(center, 0.4, vector)):
                assert np.array_equal(data(points), _per_point(data, points))


def _minus_laplacian_points_formula(space, x):
    """-Lap of the Gaussian `space` on the (..., n) points x in whole-array
    form: the reference for the per-axis term of dalembert_forcing."""
    r2 = np.sum((x - np.asarray(space.center)) ** 2, axis=-1)
    w2 = space.width**2
    return -(space(x) * (r2 / w2**2 - space.n / w2))


class TestForcingContract:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_terms_are_sampled_on_a_window(self, n):
        # each space is data sample_window takes, and each profile takes t
        fld = _field(n)
        points = lattice_points(fld)
        space = DataFunction.gaussian([0.1] * n, 0.3)
        forcings = [
            separable_forcing(space, math.sin),
            separable_forcing(DataFunction.plane_wave([2.0] * n)),
            dalembert_forcing(space, math.cos, lambda s: -math.cos(s)),
        ]
        for forcing in forcings:
            for term, profile in forcing.terms:
                vals = sample_window(term, fld)
                assert vals.shape == fld.shape
                expected = (_per_point(term, points) if callable(term)
                            else _minus_laplacian_points_formula(space, points))
                assert np.array_equal(vals, expected)
                assert isinstance(profile(0.35), float)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_minus_laplacian_equals_points_formula(self, n):
        # the -Lap term formed on axes equals its former formula on the
        # grid's points bit for bit
        rng = np.random.default_rng(60 + n)
        space = DataFunction.gaussian(rng.uniform(-0.5, 0.5, size=n), 0.3,
                                      amplitude=1.5)
        minus_lap = dalembert_forcing(space, math.cos, math.cos).terms[1][0]
        axes = [np.sort(rng.uniform(-1.0, 1.0, size=size))
                for size in (5, 6, 7, 3)[:n]]
        assert np.array_equal(minus_lap.on_axes(axes),
                              _minus_laplacian_points_formula(space, grid_points(axes)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dalembert_terms_are_space_and_minus_its_laplacian(self, n):
        space = DataFunction.gaussian([0.1] * n, 0.3, amplitude=1.5)
        (term, profile_dd), (minus_lap, profile) = dalembert_forcing(
            space, math.cos, lambda s: -math.cos(s)).terms
        assert term is space and profile is math.cos
        assert profile_dd(0.35) == -math.cos(0.35)
        fld = _field(n)
        x = lattice_points(fld)
        h = 1e-4
        lap = sum((space(x + h * e) - 2.0 * space(x) + space(x - h * e)) / h**2
                  for e in np.eye(n))
        assert np.allclose(sample_window(minus_lap, fld), -lap, rtol=0.0, atol=1e-5)

    def test_forcing_without_transform_is_one_single_frequency_term(self):
        # duhamel_solve reads only the first term when there is no
        # x-transform, so any other such forcing is refused
        wave = DataFunction.plane_wave([2.0, 0.0])
        gauss = DataFunction.gaussian([0.0, 0.0], 0.3)
        one = lambda t: 1.0
        for terms in (((wave, one), (wave, one)), ((gauss, one),), ()):
            with pytest.raises(ValueError, match="single-frequency"):
                Forcing(terms)
        assert Forcing(((wave, one),)).fourier_x is None
        two = separable_forcing(gauss, one)
        assert len(Forcing(two.terms * 2, two.fourier_x).terms) == 2


def _recording_forcing(n):
    """A manufactured-solution forcing whose spaces record the thread and
    the axes of each call, as (term index, thread, axes)."""
    base = dalembert_forcing(DataFunction.gaussian([0.0] * n, 0.3),
                             math.cos, lambda s: -math.cos(s))
    calls = []

    def recording(j, space):
        def on_axes(axes):
            calls.append((j, threading.get_ident(), [np.array(a) for a in axes]))
            return space.on_axes(axes)
        return SimpleNamespace(on_axes=on_axes)

    terms = tuple((recording(j, space), profile)
                  for j, (space, profile) in enumerate(base.terms))
    return Forcing(terms, base.fourier_x), calls


def _assert_sampled_once(calls, fieldobj):
    """Each of the two spaces was called on this thread only, on more than
    one block, and its calls cover the window's axis-0 rows once, in order,
    each with the window's other axes."""
    axes = window_axes(fieldobj)
    for j in range(2):
        mine = [(thread, block) for k, thread, block in calls if k == j]
        assert len(mine) > 1
        assert {thread for thread, _ in mine} == {threading.get_ident()}
        assert np.array_equal(np.concatenate([block[0] for _, block in mine]),
                              axes[0])
        for _, block in mine:
            assert all(np.array_equal(a, b) for a, b in zip(block[1:], axes[1:]))


class TestCallCounts:
    """Sampling is once per run or per coefficient, never per level or per
    point."""

    @pytest.fixture
    def multi_block(self, monkeypatch):
        """Blocks of at most 40 points and two workers; the windows lie
        below FORK_POINTS, so every block is stepped in this process, where
        the recording sees any call."""
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
        solution, shifted = elliptic.split_pipeline(elliptic.EllipticProblem(
            domain=domain, dx=spec.dx, h=0.2, classification=classification,
            b=bump, sigma=bump,
        ), f)
        assert classification.shape == (11, 11)
        # b, then sigma: blocks of 3, 3, 3 and 2 rows of 11 points
        assert axes_shapes == ([(3, 11)] * 3 + [(2, 11)]) * 2
        support = classification.support
        assert np.array_equal(shifted[support],
                              (f - solution.values)[support])
        assert np.all(shifted[~support] == 0.0)

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
        fld = _field(n)
        gauss = DataFunction.gaussian([0.5] * n, 0.08)
        per_point = sample_window(
            lambda x: 0.2 + float(np.atleast_1d(gauss(np.atleast_1d(x)))[0]),
            fld)
        assert np.array_equal(0.2 + sample_window(gauss, fld), per_point)


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
        whole = [(data, data(points)) for data in _catalog(n)] + [
            (None, np.zeros(fld.shape)), (1.5, np.full(fld.shape, 1.5)),
            (plain, _per_point(plain, points)), (gridded, gridded)]
        for data, expected in whole:
            blocks = sample_window(data, fld)
            assert blocks.shape == fld.shape
            assert np.array_equal(blocks, expected), data
        assert sample_window(gridded, fld) is not gridded

    def test_gridded_data_must_match_the_window(self):
        spec = LatticeSpec(2, 0.05, 0.025, 0.2)
        fld = field_from_classification(
            classify(Domain.full_space([(-0.2, 0.2)] * 2), spec), pad=2)
        with pytest.raises(ValueError, match="does not match"):
            sample_window(np.zeros((3, 3)), fld)
