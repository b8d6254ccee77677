"""Harness: configs, tables, norms, CLI exit codes, experiment plumbing."""

import math
import os

import numpy as np
import pytest

from wavelattice import (
    DataFunction,
    DiscreteProblem,
    Domain,
    LatticeSpec,
    solve,
)
from wavelattice.errors import NoCommonPointsError
from wavelattice.harness import (
    ConfigError,
    ErrorTable,
    ExperimentConfig,
    compare_on_common_lattice,
    default_config,
    format_data_function,
    parse_data_function,
    run_experiment,
    scaled_norms,
)
from wavelattice.harness.cli import main


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
        again = ErrorTable.from_csv_text(t.to_csv_text())
        assert again.rows == t.rows

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
        sup, l2 = compare_on_common_lattice(
            fld, fld, [(-0.4, 0.4)], times=[spec.T]
        )
        assert sup == 0.0 and l2 == 0.0

    def test_oracle_callable_path(self):
        fld, spec = self._solved_field()

        def oracle(points, t):
            idx = np.round(points[:, 0] / spec.dx).astype(int)
            level = round(t / spec.dt)
            return np.array([fld.value((i,), level) for i in idx])

        sup, _ = compare_on_common_lattice(
            fld, oracle, [(-0.4, 0.4)], times=[spec.T]
        )
        assert sup == 0.0

    def test_disjoint_times_raise(self):
        fld, spec = self._solved_field()
        with pytest.raises((NoCommonPointsError, ValueError)):
            compare_on_common_lattice(fld, fld, [(-0.4, 0.4)],
                                      times=[spec.dt / 3.0])


class TestExperiments:
    def test_zero_data_is_exact(self, tmp_path):
        cfg = default_config("E1", n=1, levels=3).with_overrides(
            f="none", g="none"
        )
        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.passed
        assert (tmp_path / "notes.txt").exists()
        assert (tmp_path / "config.ini").exists()


class TestCli:
    def test_bad_experiment_id_exits_2(self):
        assert main(["experiment", "E99"]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["experiment", "E1", "--config",
                     str(tmp_path / "missing.ini")])
        assert code == 2

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

    def test_unknown_catalog_key_exits_2(self, tmp_path, capsys):
        path = self._bad_config(tmp_path, "center=0.0", "centre=0.7")
        assert main(["experiment", "E1", "--config", path]) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_solve_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--n", "1", "--out", str(out)])
        assert code == 0
        assert (out / "final_level.csv").exists()
