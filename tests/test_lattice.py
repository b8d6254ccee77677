import math

import numpy as np
import pytest
from boundary_reference import reference_compatibility, reference_double_points
from classify_reference import index_set, reference_classify
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelattice import (
    AmbiguousBoundaryError,
    DataFunction,
    Domain,
    LatticeSpec,
    MissingNeighborError,
    UnsupportedShapeError,
    check_compatibility,
    classify,
    detect_double_points,
    is_admissible,
    refine_halving,
)
from wavelattice.lattice import point_indices, window_indices


class TestAdmissibility:
    def test_admissible_2d(self):
        assert is_admissible(LatticeSpec(2, 0.2, 0.1, 1.0))

    def test_cfl_violated(self):
        assert not is_admissible(LatticeSpec(4, 0.1, 0.1, 1.0))

    def test_integrality_violated(self):
        assert not is_admissible(LatticeSpec(1, 0.2, 0.15, 1.0))

    def test_boundary_ratio_allowed(self):
        assert is_admissible(LatticeSpec(1, 0.1, 0.1, 1.0))

    def test_steps(self):
        assert LatticeSpec(1, 0.2, 0.1, 1.0).steps == 10


class TestRefineHalving:
    def test_two_levels(self):
        fam = refine_halving(LatticeSpec(1, 0.2, 0.1, 1.0), 3)
        assert [(s.dx, s.dt) for s in fam] == [(0.2, 0.1), (0.1, 0.05), (0.05, 0.025)]
        assert all(s.admissible() for s in fam)

    def test_zero_levels_rejected(self):
        with pytest.raises(ValueError):
            refine_halving(LatticeSpec(1, 0.2, 0.1, 1.0), 0)

    def test_non_admissible_rejected(self):
        with pytest.raises(ValueError):
            refine_halving(LatticeSpec(1, 0.2, 0.15, 1.0), 2)

    def test_nested_points(self):
        coarse, fine = refine_halving(LatticeSpec(1, 0.25, 0.125, 1.0), 2)
        # coarse lattice coordinates reproduce bit-identically on the fine one
        for i in range(-4, 5):
            assert i * coarse.dx == (2 * i) * fine.dx


class TestClassify:
    def test_interval(self):
        cls = classify(Domain.box([(0, 1)]), LatticeSpec(1, 0.25, 0.1, 1.0))
        assert index_set(cls.interior, cls.origin) == {(1,), (2,), (3,)}
        assert index_set(cls.boundary, cls.origin) == {(0,), (4,)}

    def test_unit_box_2d(self):
        cls = classify(Domain.box([(0, 1), (0, 1)]), LatticeSpec(2, 0.5, 0.2, 1.0))
        assert index_set(cls.interior, cls.origin) == {(1, 1)}
        assert np.count_nonzero(cls.boundary) == 8
        assert not np.any(cls.interior & cls.boundary)

    def test_ball_brute_force(self):
        dom = Domain.ball((0.0, 0.0), 1.0)
        spec = LatticeSpec(2, 0.4, 0.1, 1.0)
        cls = classify(dom, spec)
        dx = spec.dx

        def inside(i, j):
            return (i * dx) ** 2 + (j * dx) ** 2 < 1.0

        def closure(i, j):
            r = math.hypot(i * dx, j * dx)
            return inside(i, j) or r == 1.0

        interior, boundary = set(), set()
        for i in range(-4, 5):
            for j in range(-4, 5):
                if not closure(i, j):
                    continue
                nbs = [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
                if inside(i, j) and all(closure(*nb) for nb in nbs):
                    interior.add((i, j))
                elif not all(closure(*nb) for nb in nbs):
                    boundary.add((i, j))
        assert index_set(cls.interior, cls.origin) == interior
        assert index_set(cls.boundary, cls.origin) == boundary

    def test_full_space_window(self):
        cls = classify(Domain.full_space([(-0.5, 0.5)]), LatticeSpec(1, 0.25, 0.1, 1.0))
        assert not cls.boundary.any()
        interior = index_set(cls.interior, cls.origin)
        assert (0,) in interior and (2,) in interior

    def test_ambiguous_boundary(self):
        # the lattice point at 0.3 sits within 1e-12*dx of the boundary
        # without lying on it (0.1 * 3 = 0.30000000000000004 in binary)
        dom = Domain.box([(-1.0, 0.3 + 1e-14)])
        with pytest.raises(AmbiguousBoundaryError):
            classify(dom, LatticeSpec(1, 0.1, 0.05, 1.0))


@st.composite
def lattice_domains(draw):
    """A random box, ball or two-part union in n = 1, 2, 3 with a lattice
    step.  Coordinates are lattice-aligned or free; in about one domain in
    four they may also sit 1e-14 off a lattice point (the ambiguous case)."""
    n = draw(st.integers(1, 3))
    dx = draw(st.sampled_from([0.2, 0.25] if n == 3 else [0.1, 0.125, 0.2, 0.25]))
    kinds = ["lattice", "free"] + (["near"] if draw(st.integers(0, 3)) == 0 else [])

    def coord(k_lo, k_hi):
        kind = draw(st.sampled_from(kinds))
        if kind == "free":
            return draw(st.floats(k_lo * dx, k_hi * dx))
        k = draw(st.integers(k_lo, k_hi))
        if kind == "lattice":
            return k * dx
        return k * dx + draw(st.sampled_from([-1e-14, 1e-14]))

    def part():
        if draw(st.booleans()):
            return Domain.box([(coord(-4, -1), coord(1, 4)) for _ in range(n)])
        radius = draw(st.one_of(
            st.integers(1, 3).map(lambda k: k * dx), st.floats(0.05, 0.7)
        ))
        return Domain.ball([coord(-2, 2) for _ in range(n)], radius)

    domain = Domain.union(part(), part()) if draw(st.booleans()) else part()
    return domain, LatticeSpec(n, dx, dx / (2.0 * math.sqrt(n)), 1.0)


class TestClassifyOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=lattice_domains())
    def test_masks_match_scalar_reference(self, case):
        domain, spec = case
        try:
            expected = reference_classify(domain, spec)
        except AmbiguousBoundaryError:
            with pytest.raises(AmbiguousBoundaryError):
                classify(domain, spec)
            return
        cls = classify(domain, spec)
        assert index_set(cls.interior, cls.origin) == expected[0]
        assert index_set(cls.boundary, cls.origin) == expected[1]
        # the window is the bounding box of the support
        support = np.array(sorted(expected[0] | expected[1])).reshape(-1, spec.n)
        if len(support):
            assert cls.origin == tuple(support.min(axis=0))
            assert cls.shape == tuple(support.max(axis=0) - support.min(axis=0) + 1)
        assert cls.interior.shape == cls.boundary.shape == cls.shape


class TestPredicateArrays:
    @pytest.mark.parametrize("domain", [
        Domain.box([(-0.5, 0.5), (0.0, 1.0)]),
        Domain.ball((0.25, 0.0), 0.75),
        Domain.union(Domain.box([(-1.0, 0.0), (-1.0, 0.0)]),
                     Domain.ball((0.5, 0.5), 0.5)),
        Domain.full_space([(-1.0, 1.0), (-1.0, 1.0)]),
        Domain.box([(0.0, 1.0)] * 3),
    ], ids=["box", "ball", "union", "full_space", "box_3d"])
    def test_array_equals_per_point(self, domain):
        n = domain.n
        rng = np.random.default_rng(3)
        # random points plus lattice points, some of them on the boundary
        lattice = np.stack(np.meshgrid(*[np.arange(-4, 5) * 0.25] * n,
                                       indexing="ij"), axis=-1).reshape(-1, n)
        pts = np.concatenate([rng.uniform(-1.2, 1.2, size=(100, n)), lattice])
        inside = domain.contains(pts)
        dist = domain.boundary_distance(pts)
        assert inside.shape == dist.shape == (len(pts),)
        assert np.array_equal(inside, [domain.contains(p) for p in pts])
        assert np.array_equal(dist, [domain.boundary_distance(p) for p in pts])
        stacked = pts[:100].reshape(4, 25, n)
        assert np.array_equal(domain.contains(stacked), inside[:100].reshape(4, 25))
        assert np.array_equal(domain.boundary_distance(stacked),
                              dist[:100].reshape(4, 25))


def _unions(n):
    """Two-part unions in n dimensions that touch at points or along an edge,
    or nearly touch."""
    return [
        Domain.union(Domain.box([(-1.0, 0.0)] * n), Domain.box([(0.0, 1.0)] * n)),
        Domain.union(Domain.ball([0.0] * n, 0.5),
                     Domain.ball([1.0] + [0.0] * (n - 1), 0.5)),
        Domain.union(Domain.box([(-1.0, 0.0)] * n),
                     Domain.ball([0.5] * n, 0.5 * math.sqrt(n))),
        # in 3-D the boxes meet along an edge, in 2-D at a corner
        Domain.union(Domain.box([(-0.5, 0.0), (-0.5, 0.0)] + [(-0.5, 0.5)] * (n - 2)),
                     Domain.box([(0.0, 0.5), (0.0, 0.5)] + [(-0.5, 0.5)] * (n - 2))),
        # a gap narrower than a sub-cell: the inside cells meet only
        # diagonally, which axis adjacency keeps apart
        Domain.union(Domain.box([(-1.0, -0.01)] * n), Domain.box([(-0.005, 1.0)] * n)),
    ]


class TestDoublePoints:
    @pytest.mark.parametrize("domain", [
        Domain.box([(0, 1), (0, 1)]), Domain.ball((0.0, 0.0), 1.0),
        Domain.box([(0, 1)] * 3), Domain.ball((0.0, 0.0, 0.0), 1.0),
    ], ids=["box", "ball", "box_3d", "ball_3d"])
    def test_convex_domains_have_none(self, domain):
        flagged = detect_double_points(domain, LatticeSpec(domain.n, 0.25, 0.1, 1.0))
        assert flagged.shape == (0, domain.n)
        assert flagged.dtype.kind == "i"

    def test_touching_corner_flagged(self):
        dom = Domain.union(
            Domain.box([(-1.0, 0.0), (-1.0, 0.0)]),
            Domain.box([(0.0, 1.0), (0.0, 1.0)]),
        )
        flagged = detect_double_points(dom, LatticeSpec(2, 0.25, 0.1, 1.0))
        assert flagged.tolist() == [[0, 0]]

    def test_full_space_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            detect_double_points(Domain.full_space([(-1.0, 1.0)]),
                                 LatticeSpec(1, 0.25, 0.1, 1.0))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dx", [0.25, 0.125])
    def test_equals_flood_fill_reference(self, n, dx):
        spec = LatticeSpec(n, dx, dx / (2.0 * math.sqrt(n)), 1.0)
        total = 0
        for domain in _unions(n):
            flagged = detect_double_points(domain, spec)
            assert flagged.dtype.kind == "i" and flagged.shape[1:] == (n,)
            # C order, as np.argwhere gives it
            assert flagged.tolist() == sorted(flagged.tolist())
            expected = reference_double_points(domain, spec)
            assert {tuple((k * dx).tolist()) for k in flagged} == expected
            assert len(flagged) == len(expected)
            total += len(flagged)
        assert total > 0


def _compatibility_cases():
    """(domain, (f, g, h)): boxes and balls in n = 1, 2, 3 with no data,
    constants, per-point functions, Gaussians and bumps."""
    for n in (1, 2, 3):
        c = [0.5] * n
        for domain in (Domain.box([(0.0, 1.0)] * n), Domain.ball(c, 0.45)):
            yield domain, (None, None, None)
            yield domain, (0.3, 0.0, 0.3)
            yield domain, (lambda x: 0.2 + x[0] * x[-1], None,
                           lambda x: x[0] ** 2 - x[-1] ** 2 + 0.2)
            yield domain, (DataFunction.gaussian(c, 0.2),
                           DataFunction.gaussian(c, 0.1, amplitude=0.5),
                           DataFunction.gaussian([0.3] * n, 0.25))
            yield domain, (DataFunction.smooth_bump(c, 0.4), None,
                           DataFunction.smooth_bump([0.6] * n, 0.5, amplitude=0.3))


class TestCompatibility:
    def test_zero_data_pass(self):
        rep = check_compatibility(None, None, None, Domain.box([(0, 1)]), tol=1e-12)
        assert rep.passed
        assert rep.max_f_mismatch == 0.0

    def test_constant_mismatch(self):
        rep = check_compatibility(
            lambda x: 1.0, None, None, Domain.box([(0, 1)]), tol=1e-10
        )
        assert not rep.passed
        assert abs(rep.max_f_mismatch - 1.0) < 1e-14

    def test_vanishing_gaussian_passes(self):
        f = DataFunction.gaussian([0.5, 0.5], 0.05)
        g = DataFunction.gaussian([0.5, 0.5], 0.04, amplitude=0.5)
        rep = check_compatibility(
            f, g, None, Domain.box([(0, 1), (0, 1)]), tol=1e-10
        )
        assert rep.passed

    def test_nan_data_fails(self):
        # a NaN sample is a defect, not a value the running maximum skips
        f = lambda x: math.nan if x[0] > 0.9 else 0.0
        rep = check_compatibility(f, None, None, Domain.box([(0, 1)] * 2), tol=1e-10)
        assert math.isnan(rep.max_f_mismatch)
        assert not rep.passed

    def test_union_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            check_compatibility(None, None, None, _unions(2)[0], tol=1e-10)

    @pytest.mark.parametrize("dx", [0.1, 0.05])
    @pytest.mark.parametrize("case", list(_compatibility_cases()))
    def test_equals_per_point_reference(self, case, dx):
        domain, (f, g, h) = case
        rep = check_compatibility(f, g, h, domain, tol=1e-8, dx=dx)
        maxima = (rep.max_f_mismatch, rep.max_g, rep.max_surface_laplacian)
        expected = reference_compatibility(f, g, h, domain, dx=dx)
        assert maxima == expected
        assert all(type(v) is float for v in maxima)
        assert rep.passed == all(v <= 1e-8 for v in expected)


class TestLatticeLookup:
    """One lookup reads every lattice field: multi-indices from a window or
    from points, positions and support membership from a classification."""

    @staticmethod
    def _loop_holds(cls, index):
        off = [i - o for i, o in zip(index, cls.origin)]
        if any(o < 0 or o >= s for o, s in zip(off, cls.shape)):
            return False
        return bool(cls.interior[tuple(off)] or cls.boundary[tuple(off)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["box", "ball"])
    def test_positions_and_holds_equal_per_index_loop(self, n, shape):
        spec = LatticeSpec(n, 0.1, 0.05, 0.4)
        domain = (Domain.box([(-0.35, 0.25)] * n) if shape == "box"
                  else Domain.ball([0.03] * n, 0.3617))
        cls = classify(domain, spec)
        # on the support, in the window off the support, and past the window
        indices = window_indices([(-0.6, 0.6)] * n, spec.dx)
        held = cls.holds(indices)
        expected = [self._loop_holds(cls, tuple(i)) for i in indices.tolist()]
        assert held.tolist() == expected
        assert held.any() and not held.all()
        in_window = np.all((indices >= cls.origin)
                           & (indices < np.add(cls.origin, cls.shape)), axis=1)
        assert (in_window & ~held).any() == (shape == "ball" and n > 1)
        assert (~in_window).any()
        values = np.arange(cls.interior.size, dtype=float).reshape(cls.shape)
        got = values[cls.positions(indices[held])]
        for index, value in zip(indices[held].tolist(), got):
            off = tuple(i - o for i, o in zip(index, cls.origin))
            assert value == values[off]
        for index in indices[~held][[0, -1]]:
            with pytest.raises(MissingNeighborError, match="outside the support"):
                cls.positions(np.vstack([indices[held][:3], index]))

    def test_window_indices_c_order(self):
        indices = window_indices([(-0.1, 0.1), (0.0, 0.25)], 0.1)
        assert indices.tolist() == [[-1, 0], [-1, 1], [-1, 2], [0, 0], [0, 1],
                                    [0, 2], [1, 0], [1, 1], [1, 2]]
        assert window_indices([(0.05, 0.09)], 0.1).shape == (0, 1)

    def test_point_indices(self):
        assert point_indices([0.3, -0.2], 0.1).tolist() == [[3, -2]]
        points = window_indices([(-0.5, 0.5)] * 2, 0.05) * 0.05
        assert np.array_equal(point_indices(points, 0.05) * 0.05, points)

    @pytest.mark.parametrize("point", [[0.05], [0.3, 0.149]])
    def test_off_lattice_point_raises(self, point):
        with pytest.raises(ValueError, match="not on the lattice"):
            point_indices(point, 0.1)
