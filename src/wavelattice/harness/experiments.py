"""The named experiments E1-E8 and the bound audits behind `audit-bounds`.

Each experiment is a pure function of its ExperimentConfig returning an
ExperimentResult: its convergence tables, free-text notes, and the gates
its verdict is made of; it passes when every gate holds.  run_experiment
adds a note per failed gate and writes the artifacts (CSV tables, gnuplot
scripts, the resolved config, notes) into the output directory.
Randomized sweeps draw from a generator seeded by config.seed, which is
recorded with the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dispersion import beta_arrays, symbol_G_arrays
from ..elliptic import EllipticProblem, split_pipeline
from ..errors import AmbiguousBoundaryError, CflViolationError, TailBoundError
from ..lagrange import (
    LagrangeSystem,
    integrate,
    phi_reference_error,
    set_initial_data,
)
from ..lattice import (Domain, LatticeSpec, classify, point_indices, refine_halving,
                       window_indices)
from ..leapfrog import DiscreteProblem, solve
from ..spectral import (
    DataFunction,
    FrequencyQuadrature,
    dalembert_forcing,
    duhamel_solve,
    homogeneous_solution,
    propagator,
    separable_forcing,
)
from ..stencils import (
    BLOWUP_THRESHOLD,
    field_from_classification,
    sample_window,
    three_level_steps,
    window_zeros,
)
from .config import ConfigError, ExperimentConfig
from .norms import compare_on_common_lattice, scaled_norms
from .table import ErrorTable

__all__ = [
    "Gate",
    "ExperimentResult",
    "default_config",
    "run_experiment",
    "audit_bounds",
    "audit_seno_bound",
    "audit_dispersion_roots",
    "propagator_degeneration",
]


@dataclass(frozen=True)
class Gate:
    """One check of a verdict: it holds when lo <= value <= hi, so a NaN
    value fails it."""
    name: str
    value: float
    lo: float = -math.inf
    hi: float = math.inf

    @property
    def ok(self) -> bool:
        return self.lo <= self.value <= self.hi

    def failure(self) -> str:
        return (f"failed gate {self.name}: {self.value:.6g} outside "
                f"[{self.lo:g}, {self.hi:g}]")


@dataclass
class ExperimentResult:
    experiment: str
    gates: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(gate.ok for gate in self.gates)


# ---------------------------------------------------------------------------
# defaults


#: experiment -> the data keys it reads; run_experiment refuses any other
#: data key that is not none
_READS = {"E1": ("f", "g"), "E2": ("f", "g"), "E3": ("f", "g"), "E4": ("f", "g"),
          "E5": ("f",), "E6": ("f",), "E7": ("f",), "E8": ()}


def default_config(experiment: str, n: int | None = None,
                   levels: int | None = None) -> ExperimentConfig:
    """The config each experiment runs by default; it sets only the data
    the experiment reads (f defaults to a centred gaussian, g to none)."""
    g = "gaussian center=0.1 width=0.25 amplitude=0.5"
    overrides = {
        "E1": dict(g=g),
        "E2": dict(levels=4, g=g),
        "E3": dict(dx=0.1, dt=0.05, T=0.4, levels=5, g=g),
        "E4": dict(dx=0.2, dt=0.1, T=0.4, levels=4, g=g),
        "E5": dict(dx=0.02, dt=0.01, T=1.0, levels=3),
        "E6": dict(dx=0.05, dt=0.025, T=1.0),
        "E7": dict(
            dx=0.1, dt=0.05, T=0.5, levels=4,
            domain_kind="box", domain_lo=(0.0,), domain_hi=(1.0,),
            window_lo=(0.0,), window_hi=(1.0,),
            f="gaussian center=0.5 width=0.08 amplitude=1.0",
        ),
        "E8": dict(T=1.0, levels=4, f="none"),
    }
    return ExperimentConfig(experiment=experiment).with_overrides(
        **overrides.get(experiment, {})).with_overrides(n=n, levels=levels)


# ---------------------------------------------------------------------------
# shared helpers


def _quadrature(*data, T):
    """FrequencyQuadrature.for_data of the data, with its refusal of data
    that have no Gaussian envelope raised as ConfigError."""
    try:
        return FrequencyQuadrature.for_data(*data, T=T)
    except TailBoundError as exc:
        raise ConfigError(f"reference solution: {exc}") from exc


def _compare_points(window, dx: float):
    """The points of the lattice of step dx in `window`, on which a run is
    compared, and their per-axis hull [(min, max), ...]: the part of the
    window a run must hold.  Raises ConfigError for a window with no point."""
    points = window_indices(window, dx) * dx
    if not len(points):
        raise ConfigError(f"the window {window!r} holds no point of the "
                          f"lattice of step {dx!r} to compare on")
    return points, list(zip(points.min(axis=0).tolist(), points.max(axis=0).tolist()))


def _convergence_gates(table: ErrorTable, config: ExperimentConfig,
                       prefix: str = "") -> list:
    """The gates of a convergence table: its sup error falls from each level
    to the next, and its final observed order lies in the configured window."""
    errs = table.sup_errors
    return [Gate(f"{prefix}levels where the sup error does not fall",
                 sum(not b < a for a, b in zip(errs, errs[1:])), hi=0),
            Gate(f"{prefix}final observed order", table.final_order(),
                 config.order_lo, config.order_hi)]


def _varying_ratio_specs(base: LatticeSpec, levels: int) -> list:
    """Halving in dx with the ratio dt/dx cycling through {1/sqrt(n), 0.3, 0.5}.

    The final two levels share the ratio 0.5 so the last observed order is a
    clean Richardson estimate; fewer than four levels drop the leading
    ratios, not the final pair.
    """
    cap = 1.0 / math.sqrt(base.n)
    ratios = ([cap, 0.3] + [0.5] * levels)[:max(0, levels - 2)] + [0.5, 0.5]
    specs = []
    dx = base.dx
    for k in range(levels):
        r = min(ratios[k], cap)
        steps = max(1, math.ceil(base.T / (r * dx) - 1e-9))
        dt = base.T / steps
        while dt / dx > cap * (1.0 + 1e-12):
            steps += 1
            dt = base.T / steps
        specs.append(LatticeSpec(base.n, dx, dt, base.T))
        dx /= 2.0
    return specs


# ---------------------------------------------------------------------------
# E1 joint limit


def run_e1(config: ExperimentConfig) -> ExperimentResult:
    base = config.base_spec()
    f, g = config.data("f"), config.data("g")
    window = config.window()
    # the reference at t = T on the base lattice's window points, on which
    # every lattice of both families is compared; each lattice is solved on
    # their hull, all that is read of it
    points, hull = _compare_points(window, base.dx)
    domain = Domain.full_space(hull)
    reference = np.atleast_1d(homogeneous_solution(
        f, g, points, base.T, quad=_quadrature(f, g, T=base.T)))
    # (sup, l2) per lattice: the two families share most of their lattices,
    # and each is solved once; its field is dropped as soon as it is compared.
    errors = {}

    def table_for(specs):
        table = ErrorTable()
        for k, spec in enumerate(specs):
            if spec not in errors:
                problem = DiscreteProblem(spec=spec, domain=domain, f=f, g=g)
                errors[spec] = compare_on_common_lattice(
                    solve(problem, t_range=(0.0, spec.T)), reference, window,
                    spec.T, base_spec=base)
            table.add(k, spec.dx, spec.dt, *errors[spec])
        return table

    fixed = table_for(refine_halving(base, config.levels))
    varying = table_for(_varying_ratio_specs(base, config.levels))

    notes, gates = [], []
    tables = {"fixed_ratio": fixed, "varying_ratio": varying}
    if f is None and g is None:  # zero data: every error is exactly 0
        gates = [Gate(f"{name}: largest sup error", float(np.max(table.sup_errors)),
                      hi=0.0) for name, table in tables.items()]
        return ExperimentResult(config.experiment, gates, tables, notes)
    for name, table in tables.items():
        gates += _convergence_gates(table, config, f"{name}: ")
        notes.append(f"{name}: final observed order {gates[-1].value:.3f}")
    ratio = fixed.sup_errors[-1] / max(varying.sup_errors[-1], 1e-300)
    notes.append(f"fixed/varying final-error ratio {ratio:.3f}")
    gates.append(Gate("fixed/varying final-error ratio", ratio, 0.25, 4.0))
    return ExperimentResult(config.experiment, gates, tables, notes)


# ---------------------------------------------------------------------------
# E2 difference-quotient convergence


def run_e2(config: ExperimentConfig) -> ExperimentResult:
    base = config.base_spec()
    f, g = config.data("f"), config.data("g")
    window = config.window()
    t_mid = base.T / 2.0
    if base.steps % 2:
        raise ConfigError(
            f"E2 needs T/2 = {t_mid!r} on the base lattice: T/dt must be even")
    quad = _quadrature(f, g, T=base.T)
    points, hull = _compare_points(window, base.dx)
    probes = point_indices(points, base.dx)
    ref_tt, ref_xx = (np.atleast_1d(homogeneous_solution(
        f, g, points, t_mid, quad=quad, derivative=d)) for d in ("tt", ("xx", 0)))

    table = ErrorTable()
    for k, spec in enumerate(refine_halving(base, config.levels)):
        # one ring more: the x-quotients read the edge probes' neighbours
        grown = Domain.full_space([(lo - spec.dx, hi + spec.dx) for lo, hi in hull])
        problem = DiscreteProblem(spec=spec, domain=grown, f=f, g=g)
        p_mid = spec.steps // 2  # the level of t_mid
        fieldobj = solve(problem, t_range=(0.0, (p_mid + 1) * spec.dt))
        before, mid, after = (fieldobj.level_array(p_mid + d) for d in (-1, 0, 1))
        step = np.zeros_like(probes)
        step[:, 0] = 1  # the axis-0 neighbours
        at, plus, minus = (fieldobj.positions(probes * 2**k + d)
                           for d in (0, step, -step))
        dtt = (after[at] - 2.0 * mid[at] + before[at]) / spec.dt**2
        dxx = (mid[plus] - 2.0 * mid[at] + mid[minus]) / spec.dx**2
        # interleaved per probe, as the quotients are listed
        diffs = np.stack([dtt - ref_tt, dxx - ref_xx], axis=-1).ravel()
        sup, l2 = scaled_norms(diffs, spec.dx, spec.n, spec.dt)
        table.add(k, spec.dx, spec.dt, sup, l2)

    gates = _convergence_gates(table, config)
    notes = [f"final observed order {gates[-1].value:.3f}"]
    return ExperimentResult(config.experiment, gates, {"quotients": table}, notes)


# ---------------------------------------------------------------------------
# E3 / E4 iterated limit


def run_e3(config: ExperimentConfig) -> ExperimentResult:
    f, g = config.data("f"), config.data("g")
    if f is None and g is None:
        raise ConfigError(f"{config.experiment} needs data: f and g are both none")
    quad = _quadrature(f, g, T=config.T)
    # probes must be lattice points of the fixed dx grid
    probes = window_indices([(-0.3, 0.3)] * config.n, config.dx) * config.dx
    h_seq = [config.dt / 2**k for k in range(config.levels)]
    rows = phi_reference_error(f, g, config.dx, probes, config.T, h_seq, quad)
    table = ErrorTable()
    for k, (h, err) in enumerate(rows):
        table.add(k, config.dx, h, err, err)

    notes, gates = [], []
    # the floor scales with the data, as the errors do, but stays above the
    # reference's cutoff error, which the quadrature bounds in absolute terms
    floor = max(1e-8 * max(abs(d.amplitude) for d in (f, g) if d is not None),
                0.0 if quad is None else quad.tail_bound(f, g, T=config.T))
    for k in range(1, len(rows)):
        prev_e, cur_e = rows[k - 1][1], rows[k][1]
        if cur_e <= floor:
            notes.append(f"level {k}: at the quadrature floor ({cur_e:.3e})")
            continue
        ratio = prev_e / cur_e
        notes.append(f"level {k}: error ratio {ratio:.3f}")
        gates.append(Gate(f"level {k}: error ratio", ratio, 3.0, 5.0))
    # a run whose every level sits at the floor has checked nothing
    gates.append(Gate("levels above the quadrature floor", len(gates), lo=1))
    return ExperimentResult(config.experiment, gates, {"verlet": table}, notes)


def run_e4(config: ExperimentConfig) -> ExperimentResult:
    f, g = config.data("f"), config.data("g")
    if f is None and g is None:
        raise ConfigError(f"{config.experiment} needs data: f and g are both none")
    quad = _quadrature(f, g, T=config.T)
    probes = _compare_points(config.window(), config.dx)[0]
    t = config.T
    reference = np.atleast_1d(homogeneous_solution(f, g, probes, t, quad=quad))
    table = ErrorTable()
    for k in range(config.levels):
        dx = config.dx / 2**k
        phi = homogeneous_solution(f, g, probes, t, dx=dx, quad=quad)
        sup, l2 = scaled_norms(phi - reference, dx, config.n, t)
        table.add(k, dx, 0.0, sup, l2)

    gates = [Gate(f"level {k}: observed order", order, config.order_lo,
                  config.order_hi)
             for k, order in enumerate(table.observed_orders[1:], start=1)]
    notes = [f"{gate.name} {gate.value:.3f}" for gate in gates]
    # a run of one level has checked no order
    gates.append(Gate("observed orders checked", len(gates), lo=1))
    return ExperimentResult(config.experiment, gates, {"phi_vs_u": table}, notes)


# ---------------------------------------------------------------------------
# E5 CFL violation


def _sup(values) -> float:
    """max |values|, with no temporary array the size of `values`."""
    return float(max(np.max(values), -np.min(values)))


def _level_maxima(v0, velocity, dt, dx, steps) -> list:
    """max |v| at levels 0..steps of the full-space scheme from `v0` and
    `velocity` (both overwritten), stepped on the dependence cone of the
    centred window `steps` rings inside theirs; no CFL gate."""
    window = tuple(s - 2 * steps for s in v0.shape)
    return [_sup(v0)] + [level_max for _, level_max in three_level_steps(
        v0, velocity, dt, dx, steps, shrink=window)]


def _corner_run(n, dx, dt, steps):
    """(max |v|, level of blowup or None, gap) of the scheme at rest from the
    corner seed (-1)^{sum k}, an eigenvector of Delta_dx: level p is c_p times
    it, with r = dt/dx, c_0 = 1, c_1 = 1 - 2n r^2, c_{p+1} = (2 - 4n r^2) c_p
    - c_{p-1}, up to level `steps` or the first |c_p| above BLOWUP_THRESHOLD
    (the kernel's guard).  `gap` is the largest relative gap of the kernel's
    max |v| to |c_p| on the origin's cone, over up to 8 levels before that."""
    q = 2.0 * n * (dt / dx) ** 2
    c = [1.0, 1.0 - q]
    while len(c) <= steps and abs(c[-1]) <= BLOWUP_THRESHOLD:
        c.append((2.0 - 2.0 * q) * c[-1] - c[-2])
    blow = len(c) - 1 if abs(c[-1]) > BLOWUP_THRESHOLD else None
    exact = np.abs(c[:min(9, blow or len(c))])
    seed = window_zeros((2 * len(exact) - 1,) * n)
    seed[...] = 1.0 - 2.0 * (np.indices(seed.shape).sum(axis=0) % 2)
    maxima = _level_maxima(seed, window_zeros(seed.shape), dt, dx,
                           len(exact) - 1)
    return max(map(abs, c)), blow, float(np.max(abs(maxima - exact) / exact))


def run_e5(config: ExperimentConfig) -> ExperimentResult:
    if config.data("f") is None:
        raise ConfigError(f"{config.experiment} needs data: f is none")
    n = config.n
    notes = []
    root = math.sqrt(n)

    # violating run: dt/dx = 1.05/sqrt(n), seeded at the Brillouin corner
    dx = config.dx
    dt = 1.05 / root * dx
    steps = math.ceil(config.T / dt)
    seed_alpha = [math.pi / dx] * n
    arg = (dt / dx) * math.sqrt(sum(math.sin(a * dx / 2.0) ** 2 for a in seed_alpha))
    notes.append(f"violating run: arcsin argument {arg:.6f} (> 1 expected)")
    gates = [Gate("violating run: arcsin argument", arg, lo=math.nextafter(1.0, 2.0))]
    try:
        beta_arrays(np.asarray(seed_alpha), dx, dt)
        flagged = 0.0
    except CflViolationError:
        flagged = 1.0
        notes.append("beta raises cfl-violation at the seeded frequency")
    gates.append(Gate("beta flags the CFL violation at the seed", flagged, lo=1.0))
    # symbol_G has no real root beta^2 here; record its minimum over a sweep
    betas = np.linspace(0.0, math.pi / dt, 512)
    g_vals = symbol_G_arrays(np.asarray([seed_alpha]), (betas**2)[:, None], dx, dt)
    notes.append(f"min |G| over real beta at the seed: {np.min(np.abs(g_vals)):.3e}")

    max_abs, blow_level, gap = _corner_run(n, dx, dt, steps)
    # it blows up before T exactly when it passes the kernel's guard
    gates.append(Gate("violating run: max |v|", max_abs,
                      lo=math.nextafter(BLOWUP_THRESHOLD, math.inf)))
    if blow_level is not None:
        notes.append(
            f"blowup detected at level {blow_level} "
            f"(t = {blow_level * dt:.4f} < T = {config.T}), max |v| = {max_abs:.3e}"
        )

    # admissible control at ratio exactly 1/sqrt(n), Gaussian data
    steps_c = round(config.T / config.dx) if n == 1 else 50
    dt_c = config.T / steps_c
    dx_c = dt_c * root
    spec_c = LatticeSpec(n, dx_c, dt_c, config.T)
    classification = classify(Domain.full_space(config.window()), spec_c)
    v0 = sample_window(config.data("f"), field_from_classification(
        classification, pad=spec_c.steps + 2))
    maxima = _level_maxima(v0, window_zeros(v0.shape), dt_c, dx_c,
                           spec_c.steps)
    control_max, initial_sup = max(maxima), maxima[0]
    notes.append(
        f"control run: max |v| = {control_max:.6f}, initial sup = {initial_sup:.6f}"
    )
    gates.append(Gate("control run: max |v|", control_max, hi=2.0 * initial_sup))

    # reversed-order limit: dx -> 0 at fixed dt diverges
    dt_r = 0.05
    steps_r = round(config.T / dt_r)
    for k in range(config.levels):
        dx_r = dt_r * root / 2**k
        m, blow, gap_r = _corner_run(n, dx_r, dt_r, steps_r)
        gap = max(gap, gap_r)
        notes.append(
            f"reversed-order level {k}: dx = {dx_r:.4g}, max |v| = {m:.3e}"
            + (f", blowup at level {blow}" if blow else "")
        )
    gates.append(Gate("reversed-order finest run: max |v|", m, lo=1e3))
    notes.append("corner runs: kernel vs closed form on the origin's cone, "
                 f"largest relative gap {gap:.3e} (tol 1e-12)")
    gates.append(Gate("corner runs: largest relative gap", gap, hi=1e-12))
    return ExperimentResult(config.experiment, gates, notes=notes)


# ---------------------------------------------------------------------------
# E6 Duhamel / forcing


def run_e6(config: ExperimentConfig) -> ExperimentResult:
    n = config.n
    space = config.data("f") or DataFunction.gaussian([0.0] * n, 0.3)
    if space.kind != "gaussian":
        raise ConfigError("E6's manufactured solution needs f = gaussian or "
                          f"none, not {space.kind}")
    spec = config.base_spec()
    points = _compare_points(config.window(), spec.dx)[0]
    # part (c) reads the solved window at lattice points of step 4 dx
    probe_idx = window_indices([(-0.3, 0.3)] * n, spec.dx * 4)[:5] * 4
    probes = probe_idx * spec.dx
    if np.any((probes < points.min(axis=0)) | (probes > points.max(axis=0))):
        raise ConfigError(f"E6 compares with the discrete Duhamel solution at "
                          f"{probes.tolist()!r}: the window {config.window()!r} "
                          "must hold them")
    notes = []
    table = ErrorTable()

    # (a) single-frequency forcing against (1 - cos(|alpha| t))/|alpha|^2
    alpha0 = np.zeros(n)
    alpha0[0] = 2.0
    forcing = separable_forcing(DataFunction.plane_wave(alpha0))
    t = 1.0
    x0 = np.zeros(n)
    val = duhamel_solve(None, None, forcing, x0, t, s_step=t / 128.0)
    a_abs = float(np.linalg.norm(alpha0))
    exact = (1.0 - math.cos(a_abs * t)) / a_abs**2
    err_a = abs(val - exact)
    table.add(0, 0.0, t / 128.0, err_a, 0.0)
    notes.append(f"single-frequency error {err_a:.3e} (tol 1e-6)")
    gates = [Gate("single-frequency error", err_a, hi=1e-6)]

    # (b) manufactured solution U = gaussian(x) cos(t) against forced leapfrog
    forcing_m = dalembert_forcing(space, math.cos, lambda s: -math.cos(s))
    domain = Domain.full_space(config.window())
    problem = DiscreteProblem(spec=spec, domain=domain, f=space, forcing=forcing_m)
    fieldobj = solve(problem, t_range=(0.0, spec.T))

    sup_b, l2_b = compare_on_common_lattice(
        fieldobj, space(points) * math.cos(spec.T), config.window(), spec.T)
    tol_b = 5.0 * (spec.dx**2 + spec.dt**2) * space.amplitude
    table.add(1, spec.dx, spec.dt, sup_b, l2_b)
    notes.append(f"manufactured-solution error {sup_b:.3e} (tol {tol_b:.3e})")
    gates.append(Gate("manufactured-solution error", sup_b, hi=tol_b))

    # (c) forced leapfrog against the exact discrete Duhamel convolution
    quad = _quadrature(space, T=spec.T)
    refs = duhamel_solve(space, None, forcing_m, probes, spec.T, quad,
                         dx=spec.dx, dt=spec.dt)
    vals = fieldobj.level_array(spec.steps)[fieldobj.positions(probe_idx)]
    err_c = float(np.max(np.abs(vals - refs)))
    table.add(2, spec.dx, spec.dt, err_c, 0.0)
    notes.append(f"leapfrog vs discrete Duhamel {err_c:.3e} (tol 1e-6)")
    gates.append(Gate("leapfrog vs discrete Duhamel", err_c, hi=1e-6))
    return ExperimentResult(config.experiment, gates, {"duhamel": table}, notes)


# ---------------------------------------------------------------------------
# E7 variable coefficients


def _lagrange_level(spec: LatticeSpec, fieldobj, f, **system) -> np.ndarray:
    """The clamped Lagrange system on `fieldobj`, started from f at rest and
    integrated to spec.T at h = spec.dt, where Verlet is the leapfrog
    scheme: its values at T.  `system` holds a, sigma and boundary_value."""
    lagrange = LagrangeSystem(dx=spec.dx, fieldobj=fieldobj, **system)
    set_initial_data(lagrange, f, None)
    integrate(lagrange, 0.0, spec.T, spec.dt)
    return lagrange.values


def run_e7(config: ExperimentConfig) -> ExperimentResult:
    domain = config.domain()
    gauss = config.data("f")
    if gauss is None or gauss.center is None:
        raise ConfigError("E7 centres its coefficients on f: f needs a center, "
                          f"not {gauss.kind if gauss else 'none'}")
    h_const = 0.2

    center = np.asarray(gauss.center)
    b = DataFunction.smooth_bump(center, 0.45, amplitude=0.1)
    sigma = DataFunction.smooth_bump(center, 0.45, amplitude=0.05)
    levels = config.levels
    base = config.base_spec()

    probe_idx = window_indices(
        [(lo + base.dx, hi - base.dx) for lo, hi in domain.bounding_window()],
        base.dx,
    )
    specs = refine_halving(base, levels)
    try:  # every lattice is classified before any level runs
        classifications = [classify(domain, spec) for spec in specs]
    except AmbiguousBoundaryError as exc:
        raise ConfigError(f"E7's domain does not fit its lattices: {exc}") from exc
    # a ball leaves corners of its probe window off the support
    probe_idx = probe_idx[classifications[0].holds(probe_idx)]
    probe_values = []
    solves = []
    for k, (spec, classification) in enumerate(zip(specs, classifications)):
        # f = h + gauss, sampled on the split's window
        window = field_from_classification(classification)
        f = h_const + sample_window(gauss, window)
        elliptic, shifted = split_pipeline(EllipticProblem(
            domain=domain, dx=spec.dx, b=b, sigma=sigma, h=h_const,
            classification=classification,
        ), f)
        solves.append((elliptic.residual, elliptic.iterations))
        # u = phi + v, phi stepped with zero boundary values
        u = _lagrange_level(spec, elliptic.fieldobj, shifted) + elliptic.values
        vals = u[elliptic.fieldobj.positions(probe_idx * 2**k)]
        probe_values.append((spec, vals))

    table = ErrorTable()
    finest = probe_values[-1][1]
    for k, (spec, vals) in enumerate(probe_values[:-1]):
        sup, l2 = scaled_norms(vals - finest, spec.dx, spec.n, spec.dt)
        table.add(k, spec.dx, spec.dt, sup, l2)

    notes = []
    for k, (res, iterations) in enumerate(solves):
        notes.append(f"level {k}: elliptic residual {res:.3e} "
                     f"({iterations} CG iterations)")
    orders = table.observed_orders[1:]
    for k, order in enumerate(orders, start=1):
        notes.append(f"self-convergence order at level {k}: {order:.3f}")
    # NaN, and so failed, with fewer than three levels
    gates = [Gate("final self-convergence order", (orders or [math.nan])[-1], lo=1.0)]

    # direct Theorem-c integration with a(x), sigma(x) in the ODE, on the
    # finest level's classification and f
    spec_f, vals_f = probe_values[-1]
    direct = _lagrange_level(spec_f, window, f, a=1.0 + sample_window(b, window),
                             sigma=sigma, boundary_value=h_const)
    direct = direct[window.positions(probe_idx * 2**(levels - 1))]
    gap = float(np.max(np.abs(direct - vals_f)))
    notes.append(
        f"pipeline vs direct Theorem-c integration: max gap {gap:.3e} "
        f"at dx = {spec_f.dx:.4g} (reported, not gated)"
    )
    return ExperimentResult(config.experiment, gates, {"pipeline": table}, notes)


# ---------------------------------------------------------------------------
# E8 bound audits


def audit_seno_bound(n: int, T: float, samples: int, seed: int) -> float:
    """Max of |dt sin(beta t)/sin(beta dt)| - T over a random admissible sweep.

    Ratios are kept in [0.2, 0.995]/sqrt(n) so sin(beta dt) stays away from
    zero; at the CFL boundary itself the bound still holds exactly but its
    floating-point evaluation is ill-conditioned.
    """
    rng = np.random.default_rng(seed)
    dx = 10.0 ** rng.uniform(-2.0, 0.0, size=samples)
    ratio = rng.uniform(0.2, 0.995, size=samples) / math.sqrt(n)
    dt = ratio * dx
    alpha = rng.uniform(-1.0, 1.0, size=(samples, n)) * (math.pi / dx)[:, None]
    k_max = np.floor(T / dt).astype(int)
    k = (rng.uniform(0.0, 1.0, size=samples) * (k_max + 1)).astype(int)
    t = k * dt
    beta = beta_arrays(alpha, dx, dt)
    q = dt * np.sin(beta * t) / np.sin(beta * dt)
    return float(np.max(np.abs(q))) - T


def audit_dispersion_roots(n: int, samples: int, seed: int) -> float:
    """Max of |G(alpha, beta^2)| - 1e-11 (1 + |alpha|^2) over a random sweep."""
    rng = np.random.default_rng(seed)
    dx = 10.0 ** rng.uniform(-2.0, 0.0, size=samples)
    dt = rng.uniform(0.2, 0.999, size=samples) / math.sqrt(n) * dx
    alpha = rng.uniform(-1.0, 1.0, size=(samples, n)) * (math.pi / dx)[:, None]
    beta = beta_arrays(alpha, dx, dt)
    g = symbol_G_arrays(alpha, beta**2, dx, dt)
    slack = np.abs(g) - 1e-11 * (1.0 + np.sum(alpha ** 2, axis=-1))
    return float(np.max(slack))


#: random samples of each E8 bound audit
AUDIT_SAMPLES = 10_000


def audit_bounds(n: int, T: float, seed: int) -> list:
    """E8's two bound audits as gates: the seno-bound slack at most 1e-12 T
    and the dispersion-root slack at most 0, each over AUDIT_SAMPLES random
    samples, seeded with seed and seed + 1."""
    return [Gate("seno-bound slack", audit_seno_bound(n, T, AUDIT_SAMPLES, seed),
                 hi=1e-12 * T),
            Gate("dispersion-root slack",
                 audit_dispersion_roots(n, AUDIT_SAMPLES, seed + 1), hi=0.0)]


def propagator_degeneration(n: int, samples: int, seed: int,
                            levels: int = 4) -> tuple:
    """Error tables of the two degeneration chains of the 2x2 propagators.

    Chain one sends dt -> 0 at fixed dx (fully discrete -> semidiscrete);
    chain two sends dx -> 0 (semidiscrete -> continuum).  Errors are max
    entrywise deviations over the sampled frequencies.
    """
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(-5.0, 5.0, size=(samples, n))
    t, dx0 = 0.5, 0.05

    def chain(ref_dx, steps):
        # the deviation from the model (ref_dx, 0) at each level's (dx, dt)
        refs = [propagator(a, t, dx=ref_dx) for a in alphas]
        table = ErrorTable()
        for k, (dx, dt) in enumerate(steps):
            err = max(float(np.max(np.abs(propagator(a, t, dx=dx, dt=dt) - ref)))
                      for a, ref in zip(alphas, refs))
            table.add(k, dx, dt, err, err)
        return table

    return (chain(dx0, [(dx0, t / (20 * 2**k)) for k in range(levels)]),
            chain(0.0, [(dx0 / 2**k, 0.0) for k in range(levels)]))


def run_e8(config: ExperimentConfig) -> ExperimentResult:
    gates = audit_bounds(config.n, config.T, config.seed)
    seno, roots = gates
    notes = [
        f"seno bound: max |dt sin(beta t)/sin(beta dt)| - T = {seno.value:.3e} "
        f"over {AUDIT_SAMPLES} samples (tol {seno.hi:.1e})",
        f"dispersion roots: max |G| slack {roots.value:.3e}",
    ]
    chain_dt, chain_dx = propagator_degeneration(
        config.n, 100, config.seed + 2, levels=config.levels
    )
    for name, chain in (("chain_dt", chain_dt), ("chain_dx", chain_dx)):
        gates.append(Gate(f"{name}: final degeneration order", chain.final_order(),
                          lo=1.9))
        notes.append(f"{gates[-1].name} {gates[-1].value:.3f}")
    return ExperimentResult(
        config.experiment, gates,
        {"propagator_dt": chain_dt, "propagator_dx": chain_dx}, notes,
    )


# ---------------------------------------------------------------------------
# dispatcher


_RUNNERS = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
}


def run_experiment(config: ExperimentConfig,
                   out_dir=None) -> ExperimentResult:
    """Run one named experiment and write its artifacts.

    Artifacts per output directory: the resolved config (provenance,
    including the seed), one CSV + gnuplot script per table, and notes.txt
    with the per-row findings, a line per failed gate and the verdict.  Raises ConfigError
    before anything runs when the config sets data the experiment does not
    read (see _READS), a domain kind not its own (E7 runs on a box or a
    ball, every other experiment on full space) or, for E6, which runs one
    lattice per part, a number of levels other than the default.
    """
    eid = config.experiment
    for key in ("f", "g", "h"):  # the config refuses w, a and sigma itself
        if key not in _READS[eid] and config.data(key) is not None:
            raise ConfigError(f"{eid} does not read {key}: it takes only none")
    if eid == "E6" and config.levels != ExperimentConfig.levels:
        raise ConfigError("E6 runs one lattice per part: it reads no levels, "
                          f"got {config.levels}")
    if eid == "E7" and config.domain_kind == "full_space":
        raise ConfigError("E7 needs a bounded domain: domain kind box or ball")
    if eid != "E7" and config.domain_kind != "full_space":
        raise ConfigError(f"{eid} runs on full space: domain kind full_space, "
                          f"not {config.domain_kind}")
    result = _RUNNERS[eid](config)
    result.notes += [gate.failure() for gate in result.gates if not gate.ok]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        config.write(out / "config.ini")
        for name, table in result.tables.items():
            table.write_csv(out / f"{name}.csv")
            table.write_gnuplot(
                out / f"{name}.gp", f"{name}.csv",
                title=f"{config.experiment} {name}",
            )
        verdict = "PASS" if result.passed else "FAIL"
        with open(out / "notes.txt", "w", encoding="ascii") as fh:
            fh.write(f"experiment: {config.experiment}\nseed: {config.seed}\n")
            for line in result.notes:
                fh.write(line + "\n")
            fh.write(f"verdict: {verdict}\n")
    return result
