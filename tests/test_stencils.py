"""Difference-operator exactness and field bookkeeping."""

import math
import tracemalloc

import numpy as np
import pytest

from kernel_reference import leapfrog_advance, leapfrog_first_level
from wavelattice import (
    BlowupError,
    DataFunction,
    DiscreteProblem,
    Domain,
    LatticeSpec,
    solve,
)
from wavelattice import stencils
from wavelattice.stencils import (
    crop_centre,
    dump_level,
    field_from_classification,
    laplacian_array,
    lattice_points,
    load_level,
)
from wavelattice.lattice import classify


# The difference quotients applied to a callable u(x, t): the plane-wave
# oracle tests need them, since e^{i(a.x + b.t)} never lives on a finite grid.


def fn_delta_t_second(u, x, t, dt) -> float:
    return (u(x, t + dt) - 2.0 * u(x, t) + u(x, t - dt)) / dt**2


def fn_delta_x_second(u, x, t, dx, axis) -> float:
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[axis] = dx
    return (u(x + e, t) - 2.0 * u(x, t) + u(x - e, t)) / dx**2


def fn_discrete_laplacian(u, x, t, dx, n) -> float:
    return sum(fn_delta_x_second(u, x, t, dx, k) for k in range(n))


def fn_discrete_dalembert(u, x, t, dx, dt, n) -> float:
    return fn_delta_t_second(u, x, t, dt) - fn_discrete_laplacian(u, x, t, dx, n)


class TestQuotients:
    def test_delta_t_second_exact_on_quadratic(self):
        u = lambda x, t: 3.0 * t**2 + 2.0 * t + 1.0
        for dt in (0.5, 0.1, 0.01):
            val = fn_delta_t_second(u, np.array([0.3]), 0.7, dt)
            assert val == pytest.approx(6.0, abs=1e-9)

    def test_delta_t_second_sine_eigenvalue(self):
        # delta_t^2 sin(t) = -sinc^2(dt/2) sin(t); at t = pi/2, dt = 0.1
        # the factor is -0.99916701...
        dt = 0.1
        u = lambda x, t: math.sin(t)
        val = fn_delta_t_second(u, np.array([0.0]), math.pi / 2.0, dt)
        factor = -((math.sin(dt / 2.0) / (dt / 2.0)) ** 2)
        assert val == pytest.approx(factor, rel=1e-13)
        assert factor == pytest.approx(-0.999167, abs=1e-6)

    def test_delta_x_second_cosine_eigenvalue(self):
        # delta_x^2 cos(ax) = -(2/dx)^2 sin^2(a dx/2) cos(ax)
        a, dx = 2.0, 0.5
        u = lambda x, t: math.cos(a * x[0])
        x = np.array([0.3])
        val = fn_delta_x_second(u, x, 0.0, dx, axis=0)
        factor = -((2.0 / dx) ** 2) * math.sin(a * dx / 2.0) ** 2
        assert val == pytest.approx(factor * math.cos(a * x[0]), rel=1e-12)

    def test_laplacian_exact_on_quadratic(self):
        u = lambda x, t: x[0] ** 2 + 2.0 * x[1] ** 2
        val = fn_discrete_laplacian(u, np.array([0.4, -0.2]), 0.0, 0.25, 2)
        assert val == pytest.approx(6.0, abs=1e-10)

    def test_laplacian_matches_manual_five_point(self):
        rng = np.random.default_rng(3)
        table = {}
        u = lambda x, t: float(np.sin(x[0]) * np.cos(2 * x[1]) + x[0] * x[1])
        x = np.array([0.37, -0.81])
        dx = 0.2
        manual = 0.0
        for k in range(2):
            e = np.zeros(2)
            e[k] = dx
            manual += (u(x + e, 0) - 2 * u(x, 0) + u(x - e, 0)) / dx**2
        assert fn_discrete_laplacian(u, x, 0.0, dx, 2) == pytest.approx(
            manual, rel=1e-13
        )

    def test_dalembert_annihilates_discrete_plane_wave(self):
        from wavelattice.dispersion import beta_arrays

        dx, n = 0.2, 2
        dt = 0.6 / math.sqrt(n) * dx
        alpha = np.array([4.0, -7.0])
        b = float(beta_arrays(alpha, dx, dt))
        u = lambda x, t: math.cos(float(np.dot(alpha, x)) + b * t)
        resid = fn_discrete_dalembert(u, np.array([0.11, 0.43]), 0.29, dx, dt, n)
        assert abs(resid) < 1e-11


class TestKernels:
    def test_leapfrog_advance_formula(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(5, 5))
        v_prev = rng.normal(size=(5, 5))
        accel = rng.normal(size=(5, 5))
        h = 0.125
        out = leapfrog_advance(v, v_prev, accel, h)
        assert np.array_equal(out, 2.0 * v - v_prev + h * h * accel)

    def test_first_level_formula(self):
        rng = np.random.default_rng(8)
        v0 = rng.normal(size=7)
        vel = rng.normal(size=7)
        accel = rng.normal(size=7)
        h = 0.1
        out = leapfrog_first_level(v0, vel, accel, h)
        assert np.array_equal(out, v0 + h * vel + 0.5 * h * h * accel)

    @pytest.mark.parametrize("shrink", [None, (3, 3)])
    def test_three_level_steps_yields_each_levels_max(self, shrink):
        # levels near -1, so max |v| is not max v
        rng = np.random.default_rng(9)
        v0 = -1.0 + rng.uniform(0.0, 0.1, size=(13, 13))
        velocity = rng.uniform(0.0, 0.1, size=(13, 13))
        run = stencils.three_level_steps(v0, velocity, 0.05, 0.1, 5,
                                         shrink=shrink)
        for level, level_max in run:
            assert level_max == float(np.max(np.abs(level)))
            assert level_max > float(np.max(level))

    @pytest.mark.parametrize("shrink", [None, (3, 3)])
    def test_three_level_steps_forms_level_one(self, shrink):
        # level 1 is the first-level combination over the velocity, one
        # ring in from v0 when the run shrinks to the centre 3 rings in
        rng = np.random.default_rng(10)
        v0, velocity = rng.normal(size=(2, 9, 9))
        expected = leapfrog_first_level(
            v0, velocity, laplacian_array(v0, 0.1), -0.05)
        if shrink:
            expected = crop_centre(expected, (7, 7))
        run = stencils.three_level_steps(v0.copy(), velocity, -0.05, 0.1, 3,
                                         shrink=shrink)
        level, _ = next(run)
        assert np.array_equal(level, expected)
        assert np.shares_memory(level, velocity)

    @pytest.mark.parametrize("h", [0.05, -0.05])
    def test_blowup_guard_covers_level_one(self, h):
        v0 = np.zeros((5, 5))
        velocity = np.full((5, 5), 1e15)
        with pytest.raises(BlowupError) as exc:
            list(stencils.three_level_steps(v0, velocity, h, 0.1, 3))
        assert exc.value.level == (1 if h > 0 else -1)


class TestGridField:
    def _small_field(self):
        spec = LatticeSpec(1, 0.25, 0.125, 0.5)
        domain = Domain.box([(0.0, 1.0)])
        return field_from_classification(classify(domain, spec))

    def test_lattice_points(self):
        fld = self._small_field()
        pts = lattice_points(fld)
        assert pts.shape == (5, 1)
        assert np.allclose(pts[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_holds(self):
        fld = self._small_field()
        assert fld.holds([(2,), (9,)]).tolist() == [True, False]

    def test_box_window_and_masks(self):
        spec = LatticeSpec(2, 0.25, 0.125, 0.5)
        fld = field_from_classification(
            classify(Domain.box([(0.0, 1.0), (0.0, 0.5)]), spec)
        )
        assert fld.origin == (0, 0) and fld.shape == (5, 3)
        expected = np.zeros((5, 3), dtype=bool)
        expected[1:4, 1] = True
        assert np.array_equal(fld.interior, expected)
        assert np.array_equal(fld.boundary, ~expected)

    def test_full_space_pad_grows_interior(self):
        spec = LatticeSpec(2, 0.25, 0.125, 0.5)
        cls = classify(Domain.full_space([(-0.25, 0.25), (0.0, 0.25)]), spec)
        assert cls.origin == (-1, 0) and cls.shape == (3, 2)
        fld = field_from_classification(cls, pad=2)
        assert fld.origin == (-3, -2) and fld.shape == (7, 6)
        assert fld.interior.shape == fld.boundary.shape == (7, 6)
        assert fld.interior.all() and not fld.boundary.any()

    def test_empty_classification_rejected(self):
        spec = LatticeSpec(1, 0.25, 0.125, 0.5)
        with pytest.raises(ValueError):
            field_from_classification(classify(Domain.box([(0.3, 0.4)]), spec))

    def test_dump_load_round_trip(self, tmp_path):
        spec = LatticeSpec(1, 0.1, 0.05, 0.2)
        problem = DiscreteProblem(
            spec=spec,
            domain=Domain.full_space([(-0.5, 0.5)]),
            f=DataFunction.gaussian([0.0], 0.1),
        )
        fld = solve(problem, t_range=(0.0, spec.T))
        path = tmp_path / "level.bin"
        dump_level(fld, spec.steps, path)
        n, dx, dt, level, arr = load_level(path)
        assert (n, dx, dt, level) == (1, 0.1, 0.05, spec.steps)
        assert np.array_equal(arr, fld.level_array(spec.steps).ravel())


def _plain_laplacian(values, dx):
    """The whole-array expression the blocked kernel reproduces."""
    out = np.zeros_like(values)
    core = tuple(slice(1, -1) for _ in range(values.ndim))
    for k in range(values.ndim):
        plus = tuple(slice(2, None) if j == k else slice(1, -1)
                     for j in range(values.ndim))
        minus = tuple(slice(0, -2) if j == k else slice(1, -1)
                      for j in range(values.ndim))
        out[core] += (values[plus] - 2.0 * values[core] + values[minus]) / dx**2
    return out


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _window_copies(*arrays):
    """Copies of `arrays` in arrays of window_zeros, in shared memory with
    more than one worker and FORK_POINTS at 0, where the kernel forks."""
    copies = [stencils.window_zeros(a.shape) for a in arrays]
    for copy, a in zip(copies, arrays):
        copy[...] = a
    return copies


SHAPES = [(1,), (2,), (3,), (40,), (2, 9), (9, 1), (5, 7), (13, 17, 19),
          (3, 3, 3), (6, 2, 5), (3, 5, 41), (4, 5, 3, 6)]

#: (shape of level 0, steps) of dependence-cone runs: the window they reach
#: is `steps` rings inside level 0's
CONES = [((9,), 3), ((9, 11), 3), ((13, 9, 11), 4), ((3, 5, 41), 1),
         ((7, 9, 5, 11), 2)]


class TestBlockedKernels:
    """The array kernels work block by block with ufunc out=, and give the
    whole-array expressions bit for bit, signed zeros included."""

    @pytest.fixture(params=[1 << 16, 7], ids=["one-block", "many-blocks"])
    def block_points(self, request, monkeypatch):
        monkeypatch.setattr(stencils, "BLOCK_POINTS", request.param)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_laplacian(self, shape, block_points):
        values = np.random.default_rng(len(shape)).normal(size=shape)
        values.flat[0] = -0.0
        expected = _plain_laplacian(values, 0.0125)
        assert _same_bits(stencils.laplacian_array(values, 0.0125), expected)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_laplacian_of_signed_zeros(self, shape, block_points):
        # zero rows between rows of -0.0: each first second difference is -0.0
        values = np.zeros(shape)
        values[::2] = -0.0
        expected = _plain_laplacian(values, 0.0125)
        assert _same_bits(stencils.laplacian_array(values, 0.0125), expected)

    @pytest.fixture(params=[1, 2, 3], ids=lambda w: f"{w}-workers")
    def workers(self, request, monkeypatch):
        """Up to this many processes, on window arrays of any size in shared
        memory from two on."""
        monkeypatch.setattr(stencils, "_WORKERS", request.param)
        monkeypatch.setattr(stencils, "FORK_POINTS", 0)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("h", [0.05, -0.05])
    def test_first_level_in_place_of_velocity(self, shape, h, block_points,
                                              workers):
        v0, velocity = _window_copies(*np.random.default_rng(4).normal(
            size=(2,) + shape))
        v0.flat[0] = -0.0
        expected = leapfrog_first_level(v0, velocity, _plain_laplacian(v0, 0.1), h)
        run = stencils.three_level_steps(v0, velocity, h, 0.1, 1)
        level, level_max = next(run)
        assert _same_bits(level, expected)
        assert np.shares_memory(level, velocity)
        assert level_max == float(np.max(np.abs(expected)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_advance_in_place_of_previous_level(self, shape, block_points,
                                                workers):
        v0, velocity = np.random.default_rng(3).normal(size=(2,) + shape)
        h = 0.00625
        first = leapfrog_first_level(v0, velocity, _plain_laplacian(v0, 0.1), h)
        expected = leapfrog_advance(first, v0, _plain_laplacian(first, 0.1), h)
        start, velocity = _window_copies(v0, velocity)
        run = stencils.three_level_steps(start, velocity, h, 0.1, 2)
        next(run)
        level, level_max = next(run)
        assert _same_bits(level, expected)
        assert np.shares_memory(level, start)
        assert level_max == float(np.max(np.abs(expected)))

    @pytest.mark.parametrize("shape, steps", CONES)
    @pytest.mark.parametrize("h", [0.05, -0.05])
    def test_cone_equals_whole_window_run(self, shape, steps, h, block_points,
                                          workers):
        # level k of the cone is the whole-window run's on the window grown
        # by steps - k rings, bit for bit, and so is its maximum
        window = tuple(s - 2 * steps for s in shape)
        v0, velocity = np.random.default_rng(5).normal(size=(2,) + shape)
        v0.flat[v0.size // 2] = -0.0
        # the two runs are live at once, each with its own workers
        whole = stencils.three_level_steps(*_window_copies(v0, velocity), h,
                                           0.1, steps)
        cone = stencils.three_level_steps(*_window_copies(v0, velocity), h,
                                          0.1, steps, shrink=window)
        for k, ((full, _), (level, level_max)) in enumerate(zip(whole, cone), 1):
            expected = crop_centre(full, tuple(w + 2 * (steps - k) for w in window))
            assert _same_bits(level, expected), k
            assert level_max == float(np.max(np.abs(expected))), k

    @pytest.mark.parametrize("shape, steps", CONES)
    def test_cone_reads_no_edge_of_its_outer_ring(self, shape, steps,
                                                  block_points, workers):
        # no region point reads the cells of level 0's outer ring that lie
        # on two of its faces or more (its edges and corners): NaN there
        # gives the levels and maxima of zeros there, and no blowup
        ring = sum(np.isin(np.arange(s), (0, s - 1)).reshape(
            (-1,) + (1,) * (len(shape) - 1 - a)) for a, s in enumerate(shape))
        edges = np.broadcast_to(ring, shape) >= 2
        window = tuple(s - 2 * steps for s in shape)
        runs = []
        for fill in (0.0, math.nan):
            v0, velocity = np.random.default_rng(6).normal(size=(2,) + shape)
            v0[edges] = velocity[edges] = fill
            runs.append([(level.copy(), level_max) for level, level_max in
                         stencils.three_level_steps(*_window_copies(v0, velocity),
                                                    0.05, 0.1, steps,
                                                    shrink=window)])
        assert len(runs[1]) == steps
        for (zeros, zeros_max), (nans, nans_max) in zip(*runs):
            assert _same_bits(nans, zeros) and nans_max == zeros_max

    @pytest.mark.parametrize("points", [1, 4, 100])
    def test_row_blocks_cover_axis_zero_once(self, points, monkeypatch):
        monkeypatch.setattr(stencils, "BLOCK_POINTS", points)
        for shape in [(10, 3), (1, 4), (7,), (0, 5)]:
            rows = np.zeros(shape[0], dtype=int)
            for block in stencils.row_blocks(shape):
                rows[block] += 1
            assert np.all(rows == 1)


class TestWindowTerms:
    """window_terms sums the forcing a few rows at a time, and gives the
    whole-array expression accel + (S_1 p_1(t) + S_2 p_2(t) + ...) bit for
    bit on a block of any window."""

    @pytest.fixture(params=[1 << 14, 7, 1],
                    ids=["one-chunk", "7-point-chunks", "one-row-chunks"])
    def term_points(self, request, monkeypatch):
        monkeypatch.setattr(stencils, "TERM_POINTS", request.param)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_forcing_sum_equals_whole_array_expression(self, shape, count,
                                                       term_points):
        rng = np.random.default_rng(count)
        # the block is planes 1.. of a window one point wider on each side
        # of every axis, times the span of its plane view one point in from
        # either end (the whole plane of a 1-D window)
        window = tuple(s + 2 for s in shape)
        plane = math.prod(window[1:])
        at = (slice(1, 1 + shape[0]),
              slice(0, 1) if len(shape) == 1 else slice(1, plane - 1))
        spaces = rng.normal(size=(count,) + window)
        flat = spaces.reshape(count, window[0], plane)
        profiles = [math.cos, math.sin, lambda s: -3.0 * s][:count]
        accel = rng.normal(size=flat[0][at].shape)
        w = flat[0][at] * profiles[0](0.3)
        for space, profile in zip(flat[1:], profiles[1:]):
            w = w + space[at] * profile(0.3)
        terms = stencils.window_terms(forcing=list(zip(spaces, profiles)))
        assert _same_bits(terms(accel.copy(), accel, 0.3, at), accel + w)

    @pytest.mark.parametrize("shape", [(1 << 16,), (256, 256), (16, 64, 64)],
                             ids=["1d", "2d", "3d"])
    def test_forcing_temporaries_stay_below_a_chunk(self, shape):
        # a block of BLOCK_POINTS points and two terms: the sum and one term
        # take a chunk of planes each, so workers that overlap add no block
        spaces = np.ones((2,) + shape)
        terms = stencils.window_terms(
            forcing=[(spaces[0], math.cos), (spaces[1], math.sin)])
        accel = np.zeros(shape).reshape(shape[0], -1)
        tracemalloc.start()
        try:
            terms(accel, accel, 0.3, (slice(None), slice(None)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk = max(stencils.TERM_POINTS, math.prod(shape[1:]))
        assert 8 * chunk < 8 * stencils.BLOCK_POINTS // 2
        assert peak <= 2 * 8 * chunk + 8 * 1024
        assert np.all(accel == math.cos(0.3) + math.sin(0.3))
