"""Harness: configs, tables, norms, CLI exit codes, experiment plumbing."""

import io
import itertools
import math
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from wavelattice import (
    DataFunction,
    DiscreteProblem,
    Domain,
    FrequencyQuadrature,
    LatticeSpec,
    solve,
)
from wavelattice import stencils
from wavelattice.errors import (
    MissingLevelError,
    MissingNeighborError,
    NoCommonPointsError,
)
from wavelattice.harness import (
    ConfigError,
    ErrorTable,
    ExperimentConfig,
    Gate,
    compare_on_common_lattice,
    default_config,
    format_data_function,
    parse_data_function,
    run_experiment,
    scaled_norms,
)
from wavelattice.harness import experiments
from wavelattice.harness.cli import main
from wavelattice.harness.table import TableRow
from wavelattice.lattice import point_indices, refine_halving, step_index, window_indices
from wavelattice.spectral import CATALOG


class TestDataCatalog:
    CASES = [
        "gaussian center=0.5 width=0.08 amplitude=1.0",
        "modulated_gaussian center=0.0 width=0.2 carrier=3.0 amplitude=0.5",
        "plane_wave alpha=2.0",
        "separable_cosine alpha=1.0",
        "smooth_bump center=0.0 radius=0.45 amplitude=0.2",
    ]

    def test_every_item_parses(self):
        for text in self.CASES:
            data = parse_data_function(text, 1)
            assert data is not None and data.n == 1

    def test_round_trip(self):
        for text in ("gaussian center=0.5 width=0.08 amplitude=1.0",
                     "plane_wave alpha=2.0"):
            data = parse_data_function(text, 1)
            again = parse_data_function(format_data_function(data), 1)
            x = np.array([0.37])
            assert float(data(x)) == float(again(x))

    def test_unknown_key_rejected(self):
        for text in ("gaussian centre=0.7", "plane_wave alpha0=2.0",
                     "smooth_bump center=0.0 width=0.3"):
            with pytest.raises(ConfigError):
                parse_data_function(text, 1)

    def test_none_is_none(self):
        assert parse_data_function("none", 2) is None
        assert parse_data_function("", 2) is None

    def test_vector_broadcast(self):
        data = parse_data_function("gaussian center=0.1 width=0.2", 3)
        assert data.n == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_data_function("sawtooth period=1", 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(CATALOG))
    def test_every_key_subset_round_trips(self, kind, n):
        # each kind with and without each of its keys, a vector given with
        # one and with n components, and the centre shifted as perfbench's
        # seeded configs shift it
        rng = np.random.default_rng(n)
        points = rng.uniform(-0.6, 0.6, size=(7, n))
        freqs = rng.uniform(-4.0, 4.0, size=(5, n))
        values = {"vector": ("0.15", ",".join(["-0.35", "0.2", "1.25"][:n])),
                  "scalar": ("-0.7",), "positive": ("0.27",)}
        params = CATALOG[kind]
        for r in range(len(params) + 1):
            for chosen in itertools.combinations(params, r):
                for picks in itertools.product(
                        *[values[form] for _, _, form, _ in chosen]):
                    text = " ".join([kind] + [
                        f"{key}={v}" for (key, *_), v in zip(chosen, picks)])
                    data = parse_data_function(text, n)
                    assert data.n == n
                    variants = [data]
                    if data.center is not None:
                        variants.append(replace(data, center=tuple(
                            c + rng.uniform(-0.05, 0.05) for c in data.center)))
                    for item in variants:
                        again = parse_data_function(format_data_function(item), n)
                        assert again == item
                        assert np.array_equal(again(points), item(points))
                        if item.decay_envelope() is not None:  # Gaussians
                            assert np.array_equal(again.fourier(freqs),
                                                  item.fourier(freqs))

    def test_omitted_keys_take_the_catalog_defaults(self):
        assert parse_data_function("gaussian", 2) == DataFunction.gaussian(
            [0.0, 0.0], 0.3, amplitude=1.0)
        assert parse_data_function("smooth_bump amplitude=2", 1) == \
            DataFunction.smooth_bump([0.0], 0.5, amplitude=2.0)
        assert parse_data_function("plane_wave", 3) == \
            DataFunction.plane_wave([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("text", [
        "gaussian width=abc", "gaussian center=0.1,x", "plane_wave alpha=two",
        "gaussian width=-0.3", "gaussian width=0", "modulated_gaussian width=-1",
        "smooth_bump radius=0", "smooth_bump radius=-0.5", "gaussian width=nan",
        "gaussian width=0.2 width=0.3",
    ])
    def test_bad_value_is_a_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_data_function(text, 1)
        with pytest.raises(ConfigError):
            ExperimentConfig().with_overrides(f=text)

    def test_nonpositive_width_and_radius_refused(self):
        # w**n in the transform would flip the oracle's sign at odd n
        for make in (lambda: DataFunction.gaussian([0.0], -0.3),
                     lambda: DataFunction.modulated_gaussian([0.0], 0.0, [1.0]),
                     lambda: DataFunction.smooth_bump([0.0, 0.0], 0.0),
                     lambda: DataFunction.smooth_bump([0.0], -0.45)):
            with pytest.raises(ValueError, match="> 0"):
                make()

    def test_mismatched_vectors_refused(self):
        with pytest.raises(ValueError):
            DataFunction.modulated_gaussian([0.0, 0.0], 0.2, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            DataFunction.gaussian([], 0.3)
        with pytest.raises(ValueError, match="unknown data kind"):
            DataFunction("sawtooth", center=(0.0,))
        with pytest.raises(ValueError, match="needs width"):
            DataFunction("gaussian", center=(0.0,))


class TestExperimentConfig:
    def test_text_round_trip(self):
        cfg = default_config("E1", n=2, levels=4)
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = default_config("E3", n=1)
        path = tmp_path / "cfg.ini"
        cfg.write(path)
        assert ExperimentConfig.read(path) == cfg

    def test_bad_experiment_rejected(self):
        with pytest.raises(ConfigError):
            default_config("E9", n=1)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ConfigError):
            default_config("E1", n=4)

    def test_base_spec_admissible(self):
        for eid in ("E1", "E3", "E5", "E7"):
            for n in (1, 2):
                assert default_config(eid, n=n).base_spec().admissible()

    def test_omitted_keys_take_the_dataclass_defaults(self):
        assert ExperimentConfig.from_text("[experiment]\nid = E3\n") == \
            ExperimentConfig(experiment="E3")
        assert ExperimentConfig.from_text("[data]\ng = none\n") == ExperimentConfig()
        assert ExperimentConfig.from_text("") == ExperimentConfig()

    def test_unknown_default_section_rejected(self):
        with pytest.raises(ConfigError, match="DEFAULT"):
            ExperimentConfig.from_text("[DEFAULT]\nn = 2\n[experiment]\nid = E3\n")

    @pytest.mark.parametrize("name", ["w", "a", "sigma"])
    def test_unread_data_keys_take_only_none(self, name):
        # no experiment reads w, a or sigma: a value there would be ignored
        config = ExperimentConfig().with_overrides(**{name: "none"})
        assert getattr(config, name) == "none"
        with pytest.raises(ConfigError, match="takes only none"):
            ExperimentConfig().with_overrides(**{name: "gaussian width=0.2"})
        with pytest.raises(ConfigError, match="takes only none"):
            ExperimentConfig.from_text(f"[data]\n{name} = smooth_bump\n")

    @pytest.mark.parametrize("experiment", [f"E{i}" for i in range(1, 9)])
    def test_default_config_sets_only_the_data_read(self, experiment):
        # E1-E4 read f and g, E5-E7 f, E8 none
        reads = {"E5": "f", "E6": "f", "E7": "f", "E8": ""}.get(experiment, "fg")
        config = default_config(experiment, n=1)
        assert {name for name in ("f", "g", "h", "w", "a", "sigma")
                if config.data(name) is not None} == set(reads)

    def test_ball_needs_bounds_of_equal_extents(self):
        ball = dict(domain_kind="ball", domain_lo=(0.0, 0.0))
        config = default_config("E7", n=2).with_overrides(domain_hi=(1.0, 1.0),
                                                          **ball)
        domain = config.domain()
        assert list(domain.center) == [0.5, 0.5] and domain.radius == 0.5
        # built from axis 0 alone, this gave centre (0.5, 1.0) and radius 0.5
        with pytest.raises(ConfigError, match="equal extents"):
            config.with_overrides(domain_hi=(1.0, 2.0)).domain()

    @pytest.mark.parametrize("n", [2, 3])
    def test_default_data_broadcast_to_n(self, n):
        # default_config writes one-component centres; the parser holds
        # them on every axis
        assert default_config("E7", n=n).data("f").center == (0.5,) * n
        assert default_config("E1", n=n).data("f").center == (0.0,) * n
        assert default_config("E1", n=n).data("g").center == (0.1,) * n

    def test_bad_lattice_rejected(self):
        cfg = default_config("E1", n=1)
        for bad in (dict(dt=0.4), dict(T=0.45), dict(dx=-0.2), dict(dt=0.0)):
            with pytest.raises(ConfigError):
                cfg.with_overrides(**bad)
        # dt/dx = 2/3 is within the CFL bound in n = 2, outside it in n = 3
        default_config("E1", n=2).with_overrides(dt=0.4 / 3)
        with pytest.raises(ConfigError):
            default_config("E1", n=3).with_overrides(dt=0.4 / 3)


class TestErrorTable:
    def _table(self):
        t = ErrorTable()
        t.add(0, 0.2, 0.1, 1e-2, 5e-3)
        t.add(1, 0.1, 0.05, 2.6e-3, 1.3e-3)
        t.add(2, 0.05, 0.025, 6.4e-4, 3.2e-4)
        return t

    def test_csv_round_trip_bit_exact(self):
        t = self._table()
        # 17 significant digits read back to the same doubles
        again = np.loadtxt(io.StringIO(t.to_csv_text()), delimiter=",",
                           skiprows=1)
        assert [TableRow(int(r[0]), *r[1:5]) for r in again] == t.rows

    def test_empty_table_is_header_only(self):
        assert ErrorTable().to_csv_text().strip() == (
            "level,dx,dt,sup_error,l2_error,observed_order"
        )

    def test_three_rows_four_lines(self):
        assert len(self._table().to_csv_text().strip().splitlines()) == 4

    def test_observed_orders(self):
        orders = self._table().observed_orders
        assert math.isnan(orders[0])
        assert orders[1] == pytest.approx(math.log2(1e-2 / 2.6e-3))

    def test_monotone_and_final_order(self):
        t = self._table()
        assert t.monotone_decreasing()
        assert t.final_order() == pytest.approx(math.log2(2.6e-3 / 6.4e-4))

    def test_gnuplot_script(self, tmp_path):
        t = self._table()
        csv = tmp_path / "t.csv"
        t.write_csv(csv)
        script = t.gnuplot_script(csv.name)
        assert "logscale" in script and csv.name in script


class TestNorms:
    def test_scaled_norms_reference(self):
        sup, l2 = scaled_norms(np.ones(100), dx=0.1, n=1, dt=0.1)
        assert sup == 1.0 and l2 == pytest.approx(1.0, rel=1e-15)

    def test_empty_sample_raises(self):
        with pytest.raises(NoCommonPointsError):
            scaled_norms(np.array([]), 0.1, 1, 0.1)

    def _solved_field(self):
        spec = LatticeSpec(1, 0.1, 0.05, 0.4)
        problem = DiscreteProblem(
            spec=spec, domain=Domain.full_space([(-0.5, 0.5)]),
            f=DataFunction.gaussian([0.0], 0.1),
        )
        return solve(problem, t_range=(0.0, spec.T)), spec

    def test_field_against_itself_is_zero(self):
        fld, spec = self._solved_field()
        window = [(-0.4, 0.4)]
        own = fld.level_array(spec.steps)[
            fld.positions(window_indices(window, spec.dx))]
        assert compare_on_common_lattice(fld, own, window, spec.T) == (0.0, 0.0)

    def test_reference_of_the_wrong_shape_raises(self):
        fld, spec = self._solved_field()
        window = [(-0.4, 0.4)]
        m = len(window_indices(window, spec.dx))
        for reference in (np.zeros(m - 1), np.zeros((m, 1)), np.zeros(m + 1),
                          0.0):
            with pytest.raises(ValueError, match="reference of shape"):
                compare_on_common_lattice(fld, reference, window, spec.T)
        # on the base lattice's points, not on the field's
        with pytest.raises(ValueError, match="reference of shape"):
            compare_on_common_lattice(fld, np.zeros(m), window, spec.T,
                                      base_spec=LatticeSpec(1, 0.2, 0.1, 0.4))

    def test_empty_window_raises(self):
        fld, spec = self._solved_field()
        with pytest.raises(NoCommonPointsError):
            compare_on_common_lattice(fld, np.zeros(0), [(0.01, 0.02)], spec.T)

    @pytest.mark.parametrize("window", [[(-3.0, 3.0)], [(0.0, 0.6)]])
    def test_window_past_a_full_space_field_raises(self, window):
        # the field has values on all of Z, but stores only [-0.5, 0.5]
        fld, spec = self._solved_field()
        reference = np.zeros(len(window_indices(window, spec.dx)))
        with pytest.raises(MissingNeighborError):
            compare_on_common_lattice(fld, reference, window, spec.T)

    def test_disjoint_times_raise(self):
        fld, spec = self._solved_field()
        with pytest.raises(ValueError, match="not on the lattice"):
            compare_on_common_lattice(fld, np.zeros(9), [(-0.4, 0.4)],
                                      spec.dt / 3.0)

    def test_grids_that_do_not_nest_raise(self):
        fld, spec = self._solved_field()
        fine = solve(DiscreteProblem(
            spec=LatticeSpec(1, 0.04, 0.02, 0.4),
            domain=Domain.full_space([(-0.5, 0.5)]),
            f=DataFunction.gaussian([0.0], 0.1),
        ), t_range=(0.0, 0.4))
        for field, base in ((fine, spec), (fld, LatticeSpec(1, 0.15, 0.05, 0.4)),
                            (fld, LatticeSpec(1, 0.05, 0.025, 0.4))):
            reference = np.zeros(len(window_indices([(-0.4, 0.4)], base.dx)))
            with pytest.raises(ValueError, match="not on the lattice"):
                compare_on_common_lattice(field, reference, [(-0.4, 0.4)],
                                          spec.T, base_spec=base)


def _value_one(field, index, level):
    return float(field.level_array(level)[field.positions([index])][0])


def _loop_compare(field, reference, window, t, base_spec=None):
    """Per-point reference of `compare_on_common_lattice`: one lookup of
    one multi-index per comparison point."""
    coarse = base_spec if base_spec is not None else field.spec
    ratio = step_index(coarse.dx, field.spec.dx)
    level = step_index(t, field.spec.dt)
    axes = [
        range(math.ceil((w[0] - 1e-12) / coarse.dx),
              math.floor((w[1] + 1e-12) / coarse.dx) + 1)
        for w in window
    ]
    values = np.array([_value_one(field, tuple(j * ratio for j in idx), level)
                       for idx in itertools.product(*axes)])
    return scaled_norms(values - reference, coarse.dx, coarse.n, coarse.dt)


class TestCompareOnBoundedDomain:
    """The vectorized compare equals the per-point loop on a ball, and a
    comparison point off the ball's support raises instead of being
    skipped."""

    WINDOW = [(-0.5, 0.5), (-0.5, 0.5)]
    INSIDE = [(-0.2, 0.2), (-0.2, 0.2)]

    def _ball_field(self, dx):
        spec = LatticeSpec(2, dx, dx / 2.0, 0.3)
        problem = DiscreteProblem(
            spec=spec, domain=Domain.ball([0.03, 0.0], 0.3617),
            f=DataFunction.gaussian([0.03, 0.0], 0.15),
        )
        return solve(problem, t_range=(0.0, spec.T))

    @staticmethod
    def _reference(window, dx, t):
        points = window_indices(window, dx) * dx
        return 1.0 + points[:, 0] - 0.5 * points[:, 1] ** 2 + t

    def test_window_is_not_covered(self):
        fld = self._ball_field(0.1)
        grid = [(i, j) for i in range(-5, 6) for j in range(-5, 6)]
        held = fld.holds(grid)
        assert held.any() and not held.all()

    @pytest.mark.parametrize("dx", [0.1, 0.05])
    def test_field_vs_reference(self, dx):
        fld = self._ball_field(dx)
        for base in (None, LatticeSpec(2, 0.2, 0.1, 0.3)):
            coarse = base or fld.spec
            reference = self._reference(self.INSIDE, coarse.dx, 0.3)
            got = compare_on_common_lattice(fld, reference, self.INSIDE, 0.3,
                                            base_spec=base)
            assert got == _loop_compare(fld, reference, self.INSIDE, 0.3,
                                        base_spec=base)
            assert got[0] > 0.0

    def test_window_outside_support_raises(self):
        fld = self._ball_field(0.1)
        for window in (self.WINDOW, [(0.6, 1.0), (-0.2, 0.2)]):
            with pytest.raises(MissingNeighborError, match="outside the support"):
                compare_on_common_lattice(
                    fld, self._reference(window, 0.1, 0.3), window, 0.3)

    def test_unstored_level_raises(self):
        fld = self._ball_field(0.1)
        t = 2 * fld.spec.dt
        assert 2 not in fld.levels
        with pytest.raises(MissingLevelError):
            compare_on_common_lattice(fld, self._reference(self.INSIDE, 0.1, t),
                                      self.INSIDE, t)


class TestE1Cache:
    """E1 solves each distinct lattice once and synthesizes its reference once."""

    CONFIG = default_config("E1", n=2, levels=3)

    def _families(self):
        base = self.CONFIG.base_spec()
        return {
            "fixed_ratio": refine_halving(base, self.CONFIG.levels),
            "varying_ratio": experiments._varying_ratio_specs(
                base, self.CONFIG.levels),
        }

    def test_one_solve_per_lattice_and_one_synthesis(self, monkeypatch):
        solved, synthesized = [], []
        real_solve = experiments.solve
        real_synthesis = experiments.homogeneous_solution

        def counting_solve(problem, *args, **kwargs):
            solved.append(problem.spec)
            return real_solve(problem, *args, **kwargs)

        def counting_synthesis(*args, **kwargs):
            synthesized.append(args)
            return real_synthesis(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve", counting_solve)
        monkeypatch.setattr(experiments, "homogeneous_solution",
                            counting_synthesis)
        run_experiment(self.CONFIG)
        specs = [s for family in self._families().values() for s in family]
        assert len(set(specs)) < len(specs)
        assert sorted(solved, key=repr) == sorted(set(specs), key=repr)
        assert len(synthesized) == 1

    def test_rows_equal_direct_solves(self):
        result = run_experiment(self.CONFIG)
        f, g = self.CONFIG.data("f"), self.CONFIG.data("g")
        window = self.CONFIG.window()
        base = self.CONFIG.base_spec()
        quad = FrequencyQuadrature.for_data(f, g, T=base.T)
        points = window_indices(window, base.dx) * base.dx
        reference = experiments.homogeneous_solution(f, g, points, base.T,
                                                     quad=quad)

        for name, specs in self._families().items():
            expected = []
            for k, spec in enumerate(specs):
                problem = DiscreteProblem(
                    spec=spec, domain=Domain.full_space(window), f=f, g=g)
                sup, l2 = _loop_compare(solve(problem, t_range=(0.0, spec.T)),
                                        reference, window, spec.T, base)
                expected.append(TableRow(k, spec.dx, spec.dt, sup, l2))
            assert result.tables[name].rows == expected



class TestComparisonHull:
    """E1 and E2 solve each lattice on the hull of the base lattice's points
    in the window, the only points they read (E2 one fine ring wider, for its
    x-quotients), and answer as a config whose window is that hull."""

    @pytest.mark.parametrize("experiment, rings", [("E1", 0), ("E2", 1)])
    def test_every_solve_is_on_the_hull(self, experiment, rings, monkeypatch):
        config = default_config(experiment, n=2, levels=3)
        base = config.base_spec()
        points = window_indices(config.window(), base.dx) * base.dx
        hull = list(zip(points.min(axis=0), points.max(axis=0)))
        assert hull == [(-0.4, 0.4)] * 2  # the window is +-0.5, dx 0.2
        solved = []
        real_solve = experiments.solve

        def recording_solve(problem, *args, **kwargs):
            solved.append(problem)
            return real_solve(problem, *args, **kwargs)

        monkeypatch.setattr(experiments, "solve", recording_solve)
        run_experiment(config)
        assert solved
        for problem in solved:
            ring = rings * problem.spec.dx
            assert list(problem.domain.bounds) == [
                (lo - ring, hi + ring) for lo, hi in hull]

    @pytest.mark.parametrize("experiment", ["E1", "E2"])
    def test_results_equal_the_snapped_window(self, experiment):
        config = default_config(experiment, n=2, levels=3)
        snapped = config.with_overrides(window_lo=(-0.4,), window_hi=(0.4,))
        result, expected = run_experiment(config), run_experiment(snapped)
        assert result.passed
        assert result.notes == expected.notes
        assert ({name: table.rows for name, table in result.tables.items()}
                == {name: table.rows for name, table in expected.tables.items()})


class TestVaryingRatioSpecs:
    # steps per level of the E1 default base lattice (dx = 0.2, T = 0.4);
    # dx halves from level to level
    STEPS = {1: [2, 14, 16, 32, 64, 128], 2: [3, 14, 16, 32, 64, 128],
             3: [4, 14, 16, 32, 64, 128]}

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("levels", [4, 5, 6])
    def test_lists_pinned(self, n, levels):
        base = default_config("E1", n=n).base_spec()
        specs = experiments._varying_ratio_specs(base, levels)
        assert [s.steps for s in specs] == self.STEPS[n][:levels]
        assert [s.dx for s in specs] == [0.2 / 2**k for k in range(levels)]
        assert all(s.dt == s.T / s.steps for s in specs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("levels", [2, 3, 4, 5, 6])
    def test_final_two_ratios_equal(self, n, levels):
        base = default_config("E1", n=n).base_spec()
        last, final = experiments._varying_ratio_specs(base, levels)[-2:]
        assert last.dt / last.dx == final.dt / final.dx == 0.5

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_e1_passes_with_few_levels(self, n, levels):
        assert run_experiment(default_config("E1", n=n, levels=levels)).passed


class TestVerdictGates:
    """Every verdict is `all` of its gates, and run_experiment notes each
    failed gate with its bounds."""

    def test_gate_bounds_are_closed_and_nan_fails(self):
        assert Gate("g", 1.0, lo=1.0, hi=1.0).ok
        assert not Gate("g", math.nextafter(1.0, 2.0), hi=1.0).ok
        assert not Gate("g", math.nan).ok
        assert Gate("g", 2.5e-6, hi=1e-6).failure() == \
            "failed gate g: 2.5e-06 outside [-inf, 1e-06]"

    @pytest.mark.parametrize("experiment", [f"E{k}" for k in range(1, 9)])
    def test_verdict_is_all_gates(self, experiment):
        result = run_experiment(default_config(experiment, n=1))
        assert result.gates
        assert result.passed == all(gate.ok for gate in result.gates)
        assert not any(note.startswith("failed gate") for note in result.notes)

    @pytest.mark.parametrize("experiment", ["E1", "E2", "E5", "E6"])
    def test_wrong_laplacian_weight_notes_every_failed_gate(self, experiment,
                                                            monkeypatch, tmp_path):
        real = stencils._laplacian_block

        def heavier(values, shifts, dx, at, twov, acc):
            real(values, shifts, dx, at, twov, acc)
            acc *= 1.01

        monkeypatch.setattr(stencils, "_laplacian_block", heavier)
        result = run_experiment(default_config(experiment, n=2), tmp_path)
        failed = [gate for gate in result.gates if not gate.ok]
        assert not result.passed and failed
        lines = [note for note in result.notes if note.startswith("failed gate")]
        assert lines == [
            f"failed gate {gate.name}: {gate.value:.6g} outside "
            f"[{gate.lo:g}, {gate.hi:g}]" for gate in failed]
        text = (tmp_path / "notes.txt").read_text(encoding="ascii")
        assert all(f"{line}\n" in text for line in lines)
        assert text.endswith("verdict: FAIL\n")

    @pytest.mark.parametrize("amplitude, gated", [(1e-3, 4), (1e-6, 2)])
    def test_e3_floor_scales_with_the_data(self, amplitude, gated):
        # the errors scale with the data (4.3e-9 at level 4 for 1e-3), and
        # the floor with them, down to the reference's cutoff bound (3.6e-11
        # for 1e-6, where levels 3 and 4 err by 2.2e-11 and 1.2e-11)
        config = default_config("E3", n=1).with_overrides(
            f=f"gaussian amplitude={amplitude}", g="none")
        result = run_experiment(config)
        ratios = [gate for gate in result.gates if gate.name.endswith("error ratio")]
        assert [gate.name for gate in ratios] == [
            f"level {k}: error ratio" for k in range(1, gated + 1)]
        assert all(3.9 < gate.value < 4.2 for gate in ratios)
        assert result.gates[-1] == Gate("levels above the quadrature floor",
                                        gated, lo=1)
        assert result.passed

    def test_e3_with_every_level_at_the_quadrature_floor_fails(self, tmp_path):
        # data of amplitude 1e-9 put every level's error near 6.4e-11, under
        # the floor, here the reference's cutoff bound 2.1e-10, so no error
        # ratio is checked
        config = default_config("E3", n=1).with_overrides(
            f="gaussian amplitude=1e-9", g="none")
        result = run_experiment(config)
        assert all("at the quadrature floor" in note for note in result.notes[:-1])
        assert result.gates == [
            Gate("levels above the quadrature floor", 0, lo=1)]
        assert not result.passed
        path = tmp_path / "e3.ini"
        config.write(path)
        out = tmp_path / "out"
        assert main(["experiment", "E3", "--config", str(path),
                     "--out", str(out)]) == 1
        assert ("failed gate levels above the quadrature floor: 0 outside [1, inf]\n"
                in (out / "notes.txt").read_text(encoding="ascii"))

    def test_e4_with_one_level_fails(self, tmp_path):
        # one level has no observed order to check
        result = run_experiment(default_config("E4", n=1, levels=1))
        assert result.notes[0] == "failed gate observed orders checked: 0 outside [1, inf]"
        assert result.gates == [Gate("observed orders checked", 0, lo=1)]
        assert not result.passed
        out = tmp_path / "out"
        assert main(["experiment", "E4", "--n", "1", "--levels", "1",
                     "--out", str(out)]) == 1
        assert ("failed gate observed orders checked: 0 outside [1, inf]\n"
                in (out / "notes.txt").read_text(encoding="ascii"))


class TestExperiments:
    def test_zero_data_is_exact(self, tmp_path):
        cfg = default_config("E1", n=1, levels=3).with_overrides(
            f="none", g="none"
        )
        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.passed
        assert (tmp_path / "notes.txt").exists()
        assert (tmp_path / "config.ini").exists()


def _e5_ratios(n, dt):
    """dx at dt/dx = 1/sqrt(n) (admissible), a 5% and a twofold violation,
    and 1/(1.05 sqrt(n))."""
    root = math.sqrt(n)
    return (dt * root, dt * root / 1.05, dt * root / 2, 1.05 * dt / root)


def _corner_levels(n, dx, dt, steps):
    """|c_0|, |c_1|, ... of E5's corner seed by its recurrence, up to level
    `steps` or the first |c_p| above the kernel's blowup threshold."""
    q = 2.0 * n * (dt / dx) ** 2
    c = [1.0, 1.0 - q]
    while len(c) <= steps and abs(c[-1]) <= stencils.BLOWUP_THRESHOLD:
        c.append((2.0 - 2.0 * q) * c[-1] - c[-2])
    return np.abs(c)


class TestE5RawRun:
    """E5 reads the maxima and blowup levels of its corner-seed runs from the
    recurrence c_p, and steps the seed only on the origin's dependence cone,
    to check the kernel against it."""

    @pytest.mark.parametrize("n, steps", [(1, 60), (2, 50), (3, 45)])
    @pytest.mark.parametrize("block_points", [7, 1 << 16])
    def test_kernel_equals_closed_form_on_the_cone(self, n, steps,
                                                   block_points, monkeypatch):
        # every level before the blowup, or all `steps` levels, one block
        # of rows at a time or the whole level at once; a stable run's |c_p|
        # comes near 0 (0.0138 at level 38 for n = 1, r = 1/1.05), where
        # its rounding, about 1e-14, is judged against the seed's amplitude 1
        monkeypatch.setattr(stencils, "BLOCK_POINTS", block_points)
        dt = 0.05
        for dx in _e5_ratios(n, dt):
            growth = _corner_levels(n, dx, dt, steps)
            blow = len(growth) - 1 if growth[-1] > stencils.BLOWUP_THRESHOLD else None
            levels = len(growth) - 1 - (blow is not None)
            seed = np.cos(math.pi * np.indices((2 * levels + 1,) * n).sum(axis=0))
            maxima = experiments._level_maxima(seed, np.zeros_like(seed), dt,
                                               dx, levels)
            np.testing.assert_allclose(maxima, growth[:levels + 1],
                                       rtol=1e-12, atol=1e-12)
            max_abs, blow_level, gap = experiments._corner_run(n, dx, dt, steps)
            assert (max_abs, blow_level) == (max(growth), blow)
            assert gap <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wrong_laplacian_weight_fails(self, n, monkeypatch):
        # a kernel with the weight 1.01 still blows up from the corner seed
        # (at level 43, not 45), so only the check against the closed form
        # sees it
        real = stencils._laplacian_block

        def heavier(values, shifts, dx, at, twov, acc):
            real(values, shifts, dx, at, twov, acc)
            acc *= 1.01

        monkeypatch.setattr(stencils, "_laplacian_block", heavier)
        result = run_experiment(default_config("E5", n=n))
        assert not result.passed
        assert [gate.name for gate in result.gates if not gate.ok] == [
            "corner runs: largest relative gap"]
        assert result.gates[-1].value > 0.1

    @pytest.mark.parametrize("n", [1, 2])
    def test_control_run_equals_the_padded_window_run(self, n):
        # the reference steps the whole window padded by steps + 2 rings;
        # the Gaussian's maximum never reaches its inexact outer rings
        config = default_config("E5", n=n)
        steps = round(config.T / config.dx) if n == 1 else 50
        dt = config.T / steps
        dx = dt * math.sqrt(n)
        problem = DiscreteProblem(spec=LatticeSpec(n, dx, dt, config.T),
                                  domain=Domain.full_space(config.window()))
        fld = stencils.field_from_classification(problem.classification,
                                                 pad=steps + 2)
        v0 = stencils.sample_window(config.data("f"), fld)
        control = float(np.max(np.abs(v0)))
        for level, _ in stencils.three_level_steps(v0, np.zeros_like(v0), dt,
                                                   dx, steps):
            control = max(control, float(np.max(np.abs(level))))
        result = run_experiment(config)
        gate = next(g for g in result.gates if g.name == "control run: max |v|")
        assert gate.value == control

    # the maxima of E5's runs are the values of its gates; the violating
    # run's maximum is one number at every n, since r sqrt(n) = 1.05
    PINNED = {
        1: {
            "reversed": 1757602506271.0,
            "blowup": "blowup detected at level 45 (t = 0.9450 < T = 1.0), "
                      "max |v| = 1.019e+12",
            "min_g": "min |G| over real beta at the seed: 9.297e+02",
            "dx_r": ["0.05", "0.025", "0.0125"],
            "gap": "1.037e-15",
        },
        2: {
            "reversed": 1757602506270.997,
            "blowup": "blowup detected at level 45 (t = 0.6682 < T = 1.0), "
                      "max |v| = 1.019e+12",
            "min_g": "min |G| over real beta at the seed: 1.859e+03",
            "dx_r": ["0.07071", "0.03536", "0.01768"],
            "gap": "7.105e-15",
        },
        3: {
            "reversed": 1757602506271.003,
            "blowup": "blowup detected at level 45 (t = 0.5456 < T = 1.0), "
                      "max |v| = 1.019e+12",
            "min_g": "min |G| over real beta at the seed: 2.789e+03",
            "dx_r": ["0.0866", "0.0433", "0.02165"],
            "gap": "3.132e-15",
        },
    }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_and_notes_pinned(self, n):
        pinned = self.PINNED[n]
        result = run_experiment(default_config("E5", n=n))
        assert result.passed
        assert result.tables == {}
        values = {gate.name: gate.value for gate in result.gates}
        assert list(values) == [
            "violating run: arcsin argument",
            "beta flags the CFL violation at the seed",
            "violating run: max |v|", "control run: max |v|",
            "reversed-order finest run: max |v|",
            "corner runs: largest relative gap"]
        assert values["violating run: max |v|"] == 1019242595318.9471
        assert values["control run: max |v|"] == 1.0
        assert values["reversed-order finest run: max |v|"] == pinned["reversed"]
        dx_r = pinned["dx_r"]
        assert result.notes == [
            "violating run: arcsin argument 1.050000 (> 1 expected)",
            "beta raises cfl-violation at the seeded frequency",
            pinned["min_g"],
            pinned["blowup"],
            "control run: max |v| = 1.000000, initial sup = 1.000000",
            f"reversed-order level 0: dx = {dx_r[0]}, max |v| = 1.000e+00",
            f"reversed-order level 1: dx = {dx_r[1]}, max |v| = 1.913e+12, "
            "blowup at level 11",
            f"reversed-order level 2: dx = {dx_r[2]}, max |v| = 1.758e+12, "
            "blowup at level 7",
            "corner runs: kernel vs closed form on the origin's cone, "
            f"largest relative gap {pinned['gap']} (tol 1e-12)",
        ]


def _loop_quotients(field, index, level):
    """(delta_t^2 v, delta_x^2 v along axis 0) at one lattice index, point
    by point."""
    value = partial(_value_one, field)
    plus = (index[0] + 1,) + tuple(index[1:])
    minus = (index[0] - 1,) + tuple(index[1:])
    dtt = (value(index, level + 1) - 2.0 * value(index, level)
           + value(index, level - 1)) / field.spec.dt**2
    dxx = (value(plus, level) - 2.0 * value(index, level)
           + value(minus, level)) / field.spec.dx**2
    return dtt, dxx


class TestE2Quotients:
    @pytest.mark.parametrize("n", [1, 2])
    def test_array_quotients_equal_per_probe_loop(self, n, monkeypatch):
        fields, diffs = [], []
        real_solve, real_norms = experiments.solve, experiments.scaled_norms

        def recording_solve(*args, **kwargs):
            fields.append(real_solve(*args, **kwargs))
            return fields[-1]

        def recording_norms(diff, *args):
            diffs.append(np.array(diff))
            return real_norms(diff, *args)

        monkeypatch.setattr(experiments, "solve", recording_solve)
        monkeypatch.setattr(experiments, "scaled_norms", recording_norms)
        config = default_config("E2", n=n, levels=3)
        assert run_experiment(config).passed
        base = config.base_spec()
        f, g = config.data("f"), config.data("g")
        quad = FrequencyQuadrature.for_data(f, g, T=base.T)
        probes = window_indices(config.window(), base.dx)
        points = probes.astype(float) * base.dx
        t_mid = base.T / 2.0
        ref_tt, ref_xx = (
            np.atleast_1d(experiments.homogeneous_solution(
                f, g, points, t_mid, quad=quad, derivative=d))
            for d in ("tt", ("xx", 0))
        )
        assert len(fields) == len(diffs) == 3
        for k, (field, diff) in enumerate(zip(fields, diffs)):
            p_mid = round(t_mid / field.spec.dt)
            expected = []
            for row, idx in enumerate(probes):
                dtt, dxx = _loop_quotients(field, tuple(idx * 2**k), p_mid)
                expected += [dtt - ref_tt[row], dxx - ref_xx[row]]
            assert np.array_equal(diff, np.array(expected))


    #: the rows on [-0.4, 0.4]^n, where the window's index range at the
    #: coarsest dx is one wider than its probes' on each side
    NARROW_ROWS = {
        1: [(0.300112330421167, 0.11669591177079441),
            (0.0932846612691316, 0.01732748867989145),
            (0.024574723841440438, 0.002252110600068431),
            (0.006221488222167615, 0.0002842045980858527)],
        2: [(0.9450210662207246, 0.12875734168470185),
            (0.2728702083164505, 0.012980295528455641),
            (0.0704524741523107, 0.0011827973560147584),
            (0.017751876716793014, 0.00010532937716451573)],
    }

    @pytest.mark.parametrize("n", [1, 2])
    def test_narrow_window_rows_pinned(self, n):
        config = default_config("E2", n=n).with_overrides(
            window_lo=(-0.4,), window_hi=(0.4,))
        result = run_experiment(config)
        assert result.passed
        rows = [(row.sup_error, row.l2_error)
                for row in result.tables["quotients"].rows]
        assert rows == self.NARROW_ROWS[n]

    def test_neighbour_outside_the_solved_window_raises(self, monkeypatch):
        # solved on the window itself, the edge probes' axis-0 neighbours
        # are missing; they must not wrap around or raise a bare IndexError
        config = default_config("E2", n=2, levels=2).with_overrides(
            window_lo=(-0.4,), window_hi=(0.4,))
        real_solve = experiments.solve

        def ungrown_solve(problem, t_range):
            inner = DiscreteProblem(
                spec=problem.spec, domain=Domain.full_space(config.window()),
                f=problem.f, g=problem.g)
            return real_solve(inner, t_range=t_range)

        monkeypatch.setattr(experiments, "solve", ungrown_solve)
        with pytest.raises(MissingNeighborError, match="outside the support"):
            run_experiment(config)

    def test_midpoint_off_the_base_lattice_refused(self, tmp_path):
        # T = 0.3, dt = 0.1: the quotients would sit at t = 0.2 and the
        # reference at t = 0.15
        config = default_config("E2", n=1).with_overrides(T=0.3)
        with pytest.raises(ConfigError, match="T/2"):
            run_experiment(config)
        path = tmp_path / "e2.ini"
        config.write(path)
        assert main(["experiment", "E2", "--config", str(path)]) == 2


class TestSingleFrequencyData:
    """E3 and E4 synthesize single-frequency data exactly, as E1 and E2 do."""

    @pytest.mark.parametrize("experiment, n", [
        ("E3", 1), ("E3", 2), ("E4", 1), ("E4", 2), ("E4", 3)])
    @pytest.mark.parametrize("data", [
        dict(f="plane_wave alpha=2.0"), dict(g="plane_wave"),
        dict(f="separable_cosine alpha=1.5"),
    ])
    def test_passes(self, experiment, n, data):
        result = run_experiment(default_config(experiment, n=n).with_overrides(
            **data))
        assert result.passed, result.notes


class TestCli:
    def test_bad_experiment_id_exits_2(self):
        assert main(["experiment", "E99"]) == 2

    @pytest.mark.parametrize("experiment, lo, hi", [
        ("E1", 0.05, 0.15), ("E2", 0.05, 0.15), ("E4", 0.05, 0.15),
        ("E6", 0.01, 0.04)])
    def test_window_without_compare_points_exits_2(self, tmp_path, capsys,
                                                   experiment, lo, hi):
        # no point of the base lattice (dx 0.2; E6 0.05) lies in the window
        config = default_config(experiment, n=2).with_overrides(
            window_lo=(lo,), window_hi=(hi,))
        path = tmp_path / "empty.ini"
        config.write(path)
        assert main(["experiment", experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "holds no point" in err

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["experiment", "E1", "--config",
                     str(tmp_path / "missing.ini")])
        assert code == 2

    def test_e7_full_space_config_exits_2(self, tmp_path, capsys):
        # E7 needs a bounded domain; a full-space config is refused, not
        # swapped for the default box
        config = ExperimentConfig(experiment="E7", n=1, dx=0.05, dt=0.025,
                                  levels=3)
        with pytest.raises(ConfigError, match="bounded domain"):
            run_experiment(config, tmp_path / "run")
        path = tmp_path / "e7.ini"
        config.write(path)
        assert main(["experiment", "E7", "--config", str(path)]) == 2
        assert "bounded domain" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["audit-bounds", "--out", "{out}"],
        ["audit-bounds", "--levels", "3"],
        ["solve", "--n", "1", "--levels", "3", "--out", "{out}"],
        ["dispersion", "--n", "1", "--levels", "3", "--out", "{out}"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys,
                                                    argv):
        out = tmp_path / "out"
        assert main([a.format(out=out) for a in argv]) == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [1, 3])
    def test_audit_bounds_are_e8s_audits(self, capsys, n):
        config = default_config("E8", n=n)
        seno = experiments.audit_seno_bound(n, config.T, 10_000, config.seed)
        roots = experiments.audit_dispersion_roots(n, 10_000, config.seed + 1)
        assert main(["audit-bounds", "--n", str(n)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"audit-bounds: seno-bound slack {seno:.3e} "
            f"(tol {1e-12 * config.T:.1e})",
            f"audit-bounds: dispersion-root slack {roots:.3e} (tol 0)",
            "audit-bounds: PASS",
        ]
        assert run_experiment(config).notes[:2] == [
            f"seno bound: max |dt sin(beta t)/sin(beta dt)| - T = {seno:.3e} "
            f"over 10000 samples (tol {1e-12 * config.T:.1e})",
            f"dispersion roots: max |G| slack {roots:.3e}",
        ]

    @pytest.mark.parametrize("audit", ["audit_seno_bound",
                                       "audit_dispersion_roots"])
    def test_failed_audit_fails_both_commands(self, monkeypatch, capsys, audit):
        monkeypatch.setattr(experiments, audit, lambda *args: 1.0)
        assert main(["audit-bounds", "--n", "1"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "audit-bounds: FAIL"
        assert not run_experiment(default_config("E8", n=1)).passed

    def test_dispersion_writes_csv(self, tmp_path):
        out = tmp_path / "disp"
        code = main(["dispersion", "--n", "2", "--out", str(out)])
        assert code == 0
        files = list(out.glob("*.csv")) or list(tmp_path.glob("**/*.csv"))
        assert files

    def _bad_config(self, tmp_path, old, new):
        text = default_config("E1", n=1).to_text()
        assert old in text
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(old, new), encoding="ascii")
        return str(path)

    def test_inadmissible_lattice_exits_2(self, tmp_path, capsys):
        path = self._bad_config(tmp_path, "dt = 0.1", "dt = 0.4")
        assert main(["solve", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, code", [("full_space", 2), ("box", 0)])
    def test_solve_reads_h_only_on_a_bounded_domain(self, tmp_path, capsys,
                                                    kind, code):
        # h is the boundary value: full space has none to read it on
        config = default_config("E1", n=2).with_overrides(
            h="gaussian amplitude=5.0", domain_kind=kind,
            domain_lo=(0.0, 0.0), domain_hi=(1.0, 1.0))
        path = tmp_path / "h.ini"
        config.write(path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "configuration error: h is the boundary value" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("new", ["width=-0.3", "width=abc"])
    def test_bad_catalog_value_exits_2(self, tmp_path, capsys, new):
        path = self._bad_config(tmp_path, "width=0.3", new)
        assert main(["experiment", "E1", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key, data", [
        ("E1", "f", "smooth_bump"), ("E2", "g", "smooth_bump radius=0.4"),
        ("E3", "f", "smooth_bump"), ("E4", "g", "smooth_bump radius=0.4"),
    ])
    def test_data_without_gaussian_envelope_exits_2(self, tmp_path, capsys,
                                                    experiment, key, data):
        # the reference solutions bound their quadrature tail by the data's
        # Gaussian envelope
        config = default_config(experiment, n=1).with_overrides(**{key: data})
        path = tmp_path / "bad.ini"
        config.write(path)
        assert main(["experiment", experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and data.split()[0] in err

    @pytest.mark.parametrize("experiment", ["E3", "E4"])
    def test_no_data_exits_2(self, tmp_path, capsys, experiment):
        config = default_config(experiment, n=1).with_overrides(f="none",
                                                                g="none")
        path = tmp_path / "bad.ini"
        config.write(path)
        assert main(["experiment", experiment, "--config", str(path)]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, data, kind", [
        ("E5", "none", "needs data"),
        ("E6", "modulated_gaussian", "modulated_gaussian"),
        ("E6", "smooth_bump", "smooth_bump"),
        ("E6", "plane_wave", "plane_wave"),
        ("E7", "none", "none"),
        ("E7", "plane_wave", "plane_wave"),
        ("E7", "separable_cosine alpha=2.0", "separable_cosine"),
    ])
    def test_data_the_experiment_cannot_use_exits_2(self, tmp_path, capsys,
                                                    experiment, data, kind):
        # E5's control run steps f (at f = none its gate would read
        # 0 <= 2 * 0), E6 takes the Laplacian of a gaussian f, E7 centres its
        # coefficients on f
        config = default_config(experiment, n=1).with_overrides(f=data)
        with pytest.raises(ConfigError, match=kind):
            run_experiment(config)
        path = tmp_path / "bad.ini"
        config.write(path)
        assert main(["experiment", experiment, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and kind in err

    @pytest.mark.parametrize("experiment, key, data", [
        ("E5", "g", "gaussian"), ("E6", "g", "gaussian"),
        ("E7", "g", "gaussian width=0.1"), ("E8", "f", "gaussian"),
        ("E8", "g", "plane_wave"), ("E1", "h", "gaussian"),
        ("E4", "h", "gaussian"),
    ])
    def test_data_the_experiment_does_not_read_exits_2(self, tmp_path, capsys,
                                                       experiment, key, data):
        # a value the experiment would ignore is refused before it runs
        config = default_config(experiment, n=1).with_overrides(**{key: data})
        with pytest.raises(ConfigError, match=f"{experiment} does not read {key}"):
            run_experiment(config)
        path = tmp_path / "bad.ini"
        config.write(path)
        out = tmp_path / "out"
        assert main(["experiment", experiment, "--config", str(path),
                     "--out", str(out)]) == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not (out / "notes.txt").exists()

    @pytest.mark.parametrize("experiment, kind", [
        ("E1", "box"), ("E2", "ball"), ("E3", "box"), ("E4", "box"),
        ("E5", "box"), ("E6", "ball"), ("E8", "box"),
    ])
    def test_domain_kind_not_its_own_exits_2(self, tmp_path, capsys,
                                             experiment, kind):
        # every experiment but E7 runs on full space; E1 on a box ran on
        # full space and said nothing
        config = default_config(experiment, n=1).with_overrides(domain_kind=kind)
        with pytest.raises(ConfigError, match="full space"):
            run_experiment(config)
        path = tmp_path / "bad.ini"
        config.write(path)
        assert main(["experiment", experiment, "--config", str(path)]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_e7_ball_on_unequal_bounds_exits_2(self, tmp_path, capsys):
        config = default_config("E7", n=2).with_overrides(
            domain_kind="ball", domain_lo=(0.0, 0.0), domain_hi=(1.0, 2.0))
        path = tmp_path / "bad.ini"
        config.write(path)
        assert main(["experiment", "E7", "--config", str(path)]) == 2
        assert "equal extents" in capsys.readouterr().err

    @pytest.mark.parametrize("lo, hi", [
        ((0.0, 0.5), (1.0, 1.5)),  # through (0.2, 0.6) at level 0
        ((-0.15, 0.35), (1.15, 1.65)),  # through (-0.1, 0.75) at level 1 only
    ])
    def test_e7_ball_through_a_lattice_point_exits_2(self, tmp_path, capsys,
                                                     monkeypatch, lo, hi):
        # a circle within 1e-13 of a point of any level's lattice is refused
        # as configuration before the first level runs
        runs = []
        monkeypatch.setattr(experiments, "split_pipeline", runs.append)
        config = default_config("E7", n=2).with_overrides(
            domain_kind="ball", domain_lo=lo, domain_hi=hi)
        with pytest.raises(ConfigError, match="of the boundary"):
            run_experiment(config)
        assert runs == []
        path = tmp_path / "bad.ini"
        config.write(path)
        assert main(["experiment", "E7", "--config", str(path)]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_e6_window_without_its_duhamel_probes_exits_2(self, tmp_path,
                                                          capsys, monkeypatch):
        # the window holds compare points of step 0.05 but not part (c)'s
        # probes on the lattice of step 0.2; refused before anything is solved
        solved = []
        monkeypatch.setattr(experiments, "solve", solved.append)
        config = default_config("E6", n=2).with_overrides(
            window_lo=(0.05,), window_hi=(0.15,))
        with pytest.raises(ConfigError, match="must hold them"):
            run_experiment(config)
        assert solved == []
        path = tmp_path / "e6.ini"
        config.write(path)
        out = tmp_path / "out"
        assert main(["experiment", "E6", "--config", str(path),
                     "--out", str(out)]) == 2
        assert "configuration error: E6 compares" in capsys.readouterr().err
        assert not out.exists()

    def test_e6_levels_flag_exits_2(self, tmp_path, capsys):
        # E6 reads no levels: the flag changed nothing but the written config
        out = tmp_path / "out"
        assert main(["experiment", "E6", "--n", "1", "--levels", "4",
                     "--out", str(out)]) == 2
        assert "reads no levels" in capsys.readouterr().err
        assert not out.exists()

    def test_e6_levels_in_config_file_exits_2(self, tmp_path, capsys):
        # a config file always carries levels: one other than the default is
        # refused before anything is written, as the flag is
        config = default_config("E6", n=1).with_overrides(levels=7)
        with pytest.raises(ConfigError, match="reads no levels"):
            run_experiment(config)
        path = tmp_path / "e6.ini"
        config.write(path)
        out = tmp_path / "out"
        assert main(["experiment", "E6", "--config", str(path),
                     "--out", str(out)]) == 2
        assert "reads no levels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("omit_levels", [False, True])
    def test_e6_config_file_with_default_levels_runs(self, tmp_path,
                                                     monkeypatch, omit_levels):
        # the file written for the default config, and one without levels
        monkeypatch.setitem(experiments._RUNNERS, "E6", lambda config:
                            experiments.ExperimentResult("E6", [Gate("stub", 0.0)]))
        text = default_config("E6", n=1).to_text()
        if omit_levels:
            text = "".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith("levels"))
        path = tmp_path / "e6.ini"
        path.write_text(text, encoding="ascii")
        out = tmp_path / "out"
        assert main(["experiment", "E6", "--config", str(path),
                     "--out", str(out)]) == 0
        assert "levels = 5" in (out / "config.ini").read_text(encoding="ascii")

    def test_unknown_catalog_key_exits_2(self, tmp_path, capsys):
        path = self._bad_config(tmp_path, "center=0.0", "centre=0.7")
        assert main(["experiment", "E1", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("dt = 0.1", "dt = 0.1\ndtt = 0.05"),
        ("[tolerances]", "[outptu]\nout = out\n\n[tolerances]"),
        ("order_lo", "sup_tol = 1e-06\norder_lo"),
    ])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, old, new):
        path = self._bad_config(tmp_path, old, new)
        assert main(["experiment", "E1", "--config", path]) == 2
        assert "configuration error: unknown" in capsys.readouterr().err

    def test_csv_header_and_first_row_pinned(self, tmp_path):
        assert main(["solve", "--n", "2", "--out", str(tmp_path / "s")]) == 0
        assert main(["dispersion", "--n", "3", "--out", str(tmp_path / "d")]) == 0
        solved = (tmp_path / "s" / "final_level.csv").read_text().splitlines()
        assert solved[:2] == [
            "x1,x2,value",
            "-0.60000000000000009,-0.60000000000000009,0.11496839827397781",
        ]
        dispersion = (tmp_path / "d" / "dispersion.csv").read_text().splitlines()
        assert dispersion[:2] == [
            "alpha1,alpha2,alpha3,beta,beta0,alpha_abs,phase_error",
            "0.045344984105855447,0.045344984105855447,0.045344984105855447,"
            "0.078539749051420249,0.078539547188314268,0.078539816339744842,"
            "-8.5674155770523123e-07",
        ]
        assert len(dispersion) == 201

    def test_solve_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--n", "1", "--out", str(out)])
        assert code == 0
        assert (out / "final_level.csv").exists()

    @pytest.mark.parametrize("n", [1, 2])
    def test_solve_writes_only_the_exact_window(self, tmp_path, n):
        # every written point is a point of the problem's window, and its
        # value is the scheme's: that of a solve on a much wider window
        out = tmp_path / "run"
        assert main(["solve", "--n", str(n), "--out", str(out)]) == 0
        table = np.loadtxt(out / "final_level.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        config = default_config("E1", n=n)
        spec = config.base_spec()
        window = DiscreteProblem(spec=spec, domain=config.domain())
        expected = stencils.lattice_points(
            stencils.field_from_classification(window.classification))
        assert np.array_equal(table[:, :n], expected.reshape(-1, n))
        wide = DiscreteProblem(
            spec=spec, f=config.data("f"), g=config.data("g"),
            domain=Domain.full_space([(lo - 2.0, hi + 2.0)
                                      for lo, hi in config.window()]),
        )
        reference = solve(wide, t_range=(0.0, spec.T))
        at = reference.positions(point_indices(table[:, :n], spec.dx))
        assert np.array_equal(table[:, n], reference.level_array(spec.steps)[at])
