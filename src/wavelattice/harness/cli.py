"""Command-line interface.

Subcommands: `solve` (one discrete problem from a config), `dispersion`
(dispersion-relation CSV sweep), `experiment <id>` (named experiments
E1-E8), `audit-bounds` (the E8 bound audits alone).  Exit codes: 0 all
checks passed, 1 a tolerance was exceeded, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from ..dispersion import beta_arrays, beta_semidiscrete
from ..errors import WaveLatticeError
from ..leapfrog import DiscreteProblem, solve
from ..stencils import dump_level, lattice_points
from .config import ConfigError, ExperimentConfig
from .experiments import audit_bounds, default_config, run_experiment

__all__ = ["main"]


def _load_config(args, experiment=None) -> ExperimentConfig:
    overrides = {"n": args.n, "levels": getattr(args, "levels", None)}
    if args.config is None:
        return default_config(experiment or "E1", **overrides)
    cfg = ExperimentConfig.read(args.config)
    if experiment is not None and cfg.experiment != experiment:
        cfg = cfg.with_overrides(experiment=experiment)
    return cfg.with_overrides(**overrides)


def _out_dir(args, default_name: str) -> Path:
    out = Path(args.out) if args.out else Path(default_name)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    domain, h = cfg.domain(), cfg.data("h")
    if h is not None and not domain.bounded:
        raise ConfigError("h is the boundary value: a full-space domain has "
                          "no boundary to read it on")
    out = _out_dir(args, "solve-out")
    spec = cfg.base_spec()
    problem = DiscreteProblem(
        spec=spec,
        domain=domain,
        f=cfg.data("f"),
        g=cfg.data("g"),
        boundary_value=h or 0.0,
    )
    fieldobj = solve(problem, t_range=(0.0, spec.T))
    dump_level(fieldobj, spec.steps, out / "final_level.bin")
    mask = fieldobj.support
    rows = np.column_stack([lattice_points(fieldobj)[mask],
                            fieldobj.level_array(spec.steps)[mask]])
    cols = "".join(f"x{k + 1}," for k in range(spec.n))
    np.savetxt(out / "final_level.csv", rows, fmt="%.17g", delimiter=",",
               header=f"{cols}value", comments="")
    print(f"solve: wrote {out / 'final_level.csv'}")
    return 0


def _cmd_dispersion(args) -> int:
    cfg = _load_config(args)
    spec = cfg.base_spec()
    out = _out_dir(args, "dispersion-out")
    samples = 200
    direction = np.ones(spec.n) / math.sqrt(spec.n)
    scales = np.linspace(0.0, math.pi / spec.dx, samples + 1)[1:]
    alphas = scales[:, None] * direction[None, :]
    beta = beta_arrays(alphas, spec.dx, spec.dt)
    beta0 = beta_semidiscrete(alphas, spec.dx)
    mags = np.linalg.norm(alphas, axis=-1)
    phase = (beta - mags) / mags
    path = out / "dispersion.csv"
    cols = "".join(f"alpha{k + 1}," for k in range(spec.n))
    np.savetxt(path, np.column_stack([alphas, beta, beta0, mags, phase]),
               fmt="%.17g", delimiter=",", comments="",
               header=f"{cols}beta,beta0,alpha_abs,phase_error")
    print(f"dispersion: wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args, experiment=args.id)
    out = Path(args.out or f"{args.id.lower()}-out")
    result = run_experiment(cfg, out_dir=out)
    for line in result.notes:
        print(f"{args.id}: {line}")
    print(f"{args.id}: {'PASS' if result.passed else 'FAIL'} (artifacts in {out})")
    return 0 if result.passed else 1


def _cmd_audit_bounds(args) -> int:
    cfg = _load_config(args, experiment="E8")
    gates = audit_bounds(cfg.n, cfg.T, cfg.seed)
    seno, roots = gates
    print(f"audit-bounds: {seno.name} {seno.value:.3e} (tol {seno.hi:.1e})")
    print(f"audit-bounds: {roots.name} {roots.value:.3e} (tol {roots.hi:g})")
    ok = all(gate.ok for gate in gates)
    print(f"audit-bounds: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


#: the flags of the subcommands; each subcommand takes only those it reads
_FLAGS = {
    "config": dict(type=str, default=None,
                   help="experiment config file (key=value sections)"),
    "out": dict(type=str, default=None, help="output directory"),
    "levels": dict(type=int, default=None, help="number of refinement levels"),
    "n": dict(type=int, default=None, choices=(1, 2, 3), help="spatial dimension"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelattice",
        description="Discrete wave-equation lattice experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        return p

    command("solve", "run one discrete problem", "config", "out", "n")
    command("dispersion", "emit the dispersion CSV", "config", "out", "n")
    experiment = command("experiment", "run a named experiment",
                         "config", "out", "levels", "n")
    experiment.add_argument("id", choices=[f"E{i}" for i in range(1, 9)])
    command("audit-bounds", "run the randomized bound audits", "config", "n")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage already; re-raise others
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "dispersion":
            return _cmd_dispersion(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "audit-bounds":
            return _cmd_audit_bounds(args)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except WaveLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
