"""The rows, notes and verdicts of E3, E4, E6, E7 and E8 at n = 1 and 2, pinned.

E3, E4, E6 and E8 take their references from the spectral oracles in the
steps (dx, dt): E3 Lagrange's model, E4 the wave equation and Lagrange's
model, E6 the wave equation and the scheme (Duhamel), E8 the propagators of
all three.  Their values were recorded before the oracles were keyed by
their steps.  E7's were recorded while its split phi was stepped by the
leapfrog solver, before it moved onto the Lagrange system: its tables, CG
iterations, residuals and "pipeline vs direct" gap.  All must stay equal,
bit for bit.
"""

import pytest

from wavelattice.harness import default_config, run_experiment

#: (experiment, n) -> ({table: [(level, dx, dt, sup, l2), ...]}, notes, passed)
PINNED = {
    ("E3", 1): (
        {
            "verlet": [
                (0, 0.1, 0.05, 0.0009351131813029046, 0.0009351131813029046),
                (1, 0.1, 0.025, 0.00023481535087499505, 0.00023481535087499505),
                (2, 0.1, 0.0125, 5.8764832071789286e-05, 5.8764832071789286e-05),
                (3, 0.1, 0.00625, 1.4694962514383292e-05, 1.4694962514383292e-05),
                (4, 0.1, 0.003125, 3.6739744317948464e-06, 3.6739744317948464e-06),
            ],
        },
        [
            "level 1: error ratio 3.982",
            "level 2: error ratio 3.996",
            "level 3: error ratio 3.999",
            "level 4: error ratio 4.000",
        ],
        True,
    ),
    ("E3", 2): (
        {
            "verlet": [
                (0, 0.1, 0.05, 0.001674602468871328, 0.001674602468871328),
                (1, 0.1, 0.025, 0.0004203264293201614, 0.0004203264293201614),
                (2, 0.1, 0.0125, 0.0001051783961449615, 0.0001051783961449615),
                (3, 0.1, 0.00625, 2.6300530662826116e-05, 2.6300530662826116e-05),
                (4, 0.1, 0.003125, 6.575501548006235e-06, 6.575501548006235e-06),
            ],
        },
        [
            "level 1: error ratio 3.984",
            "level 2: error ratio 3.996",
            "level 3: error ratio 3.999",
            "level 4: error ratio 4.000",
        ],
        True,
    ),
    ("E4", 1): (
        {
            "phi_vs_u": [
                (0, 0.2, 0.0, 0.0227967931140598, 0.009216669744118805),
                (1, 0.1, 0.0, 0.005099957807190303, 0.0015206801843202233),
                (2, 0.05, 0.0, 0.0012383333334948787, 0.00026406566152908223),
                (3, 0.025, 0.0, 0.0003073232083549149, 4.6471953096679734e-05),
            ],
        },
        [
            "level 1: observed order 2.160",
            "level 2: observed order 2.042",
            "level 3: observed order 2.011",
        ],
        True,
    ),
    ("E4", 2): (
        {
            "phi_vs_u": [
                (0, 0.2, 0.0, 0.02611881388430763, 0.008866434469426945),
                (1, 0.1, 0.0, 0.005868678911415598, 0.0010624745959591738),
                (2, 0.05, 0.0, 0.0014364193769125788, 0.00013150863816597527),
                (3, 0.025, 0.0, 0.0003571678567202141, 1.639905983573458e-05),
            ],
        },
        [
            "level 1: observed order 2.154",
            "level 2: observed order 2.031",
            "level 3: observed order 2.008",
        ],
        True,
    ),
    ("E6", 1): (
        {
            "duhamel": [
                (0, 0.0, 0.0078125, 1.1723805259933329e-10, 0.0),
                (1, 0.05, 0.025, 0.0014954574375338758, 0.00013894608384446033),
                (2, 0.05, 0.025, 6.449507594652459e-12, 0.0),
            ],
        },
        [
            "single-frequency error 1.172e-10 (tol 1e-6)",
            "manufactured-solution error 1.495e-03 (tol 1.563e-02)",
            "leapfrog vs discrete Duhamel 6.450e-12 (tol 1e-6)",
        ],
        True,
    ),
    ("E6", 2): (
        {
            "duhamel": [
                (0, 0.0, 0.0078125, 1.1723805259933329e-10, 0.0),
                (1, 0.05, 0.025, 0.0018172278293182575, 0.00011294429571548032),
                (2, 0.05, 0.025, 1.2593703857533e-11, 0.0),
            ],
        },
        [
            "single-frequency error 1.172e-10 (tol 1e-6)",
            "manufactured-solution error 1.817e-03 (tol 1.563e-02)",
            "leapfrog vs discrete Duhamel 1.259e-11 (tol 1e-6)",
        ],
        True,
    ),
    ("E7", 1): (
        {
            "pipeline": [
                (0, 0.1, 0.05, 0.19748777296885317, 0.022528009248224266),
                (1, 0.05, 0.025, 0.06503725280135542, 0.0035915050992547486),
                (2, 0.025, 0.0125, 0.01198198977736259, 0.0003265465441491138),
            ],
        },
        [
            "level 0: elliptic residual 7.841e-16 (1 CG iterations)",
            "level 1: elliptic residual 1.443e-13 (4 CG iterations)",
            "level 2: elliptic residual 7.994e-13 (4 CG iterations)",
            "level 3: elliptic residual 1.865e-11 (4 CG iterations)",
            "self-convergence order at level 1: 1.602",
            "self-convergence order at level 2: 2.440",
            "pipeline vs direct Theorem-c integration: max gap 8.889e-02 "
            "at dx = 0.0125 (reported, not gated)",
        ],
        True,
    ),
    ("E7", 2): (
        {
            "pipeline": [
                (0, 0.1, 0.05, 0.1089428836967132, 0.011251733421563407),
                (1, 0.05, 0.025, 0.02549723160965328, 0.0010723122493546075),
                (2, 0.025, 0.0125, 0.004359793859287475, 6.692305916796389e-05),
            ],
        },
        [
            "level 0: elliptic residual 8.327e-15 (5 CG iterations)",
            "level 1: elliptic residual 1.887e-13 (5 CG iterations)",
            "level 2: elliptic residual 3.109e-13 (5 CG iterations)",
            "level 3: elliptic residual 1.421e-12 (5 CG iterations)",
            "self-convergence order at level 1: 2.095",
            "self-convergence order at level 2: 2.548",
            "pipeline vs direct Theorem-c integration: max gap 3.374e-02 "
            "at dx = 0.0125 (reported, not gated)",
        ],
        True,
    ),
    ("E8", 1): (
        {
            "propagator_dt": [
                (0, 0.05, 0.025, 0.003555816414195778, 0.003555816414195778),
                (1, 0.05, 0.0125, 0.0008865450662249863, 0.0008865450662249863),
                (2, 0.05, 0.00625, 0.0002214860990266132, 0.0002214860990266132),
                (3, 0.05, 0.003125, 5.536214547774421e-05, 5.536214547774421e-05),
            ],
            "propagator_dx": [
                (0, 0.05, 0.0, 0.014379089521407984, 0.014379089521407984),
                (1, 0.025, 0.0, 0.003617825314643053, 0.003617825314643053),
                (2, 0.0125, 0.0, 0.0009058990900485675, 0.0009058990900485675),
                (3, 0.00625, 0.0, 0.00022656497555217925, 0.00022656497555217925),
            ],
        },
        [
            "seno bound: max |dt sin(beta t)/sin(beta dt)| - T = -4.743e-03 "
            "over 10000 samples (tol 1.0e-12)",
            "dispersion roots: max |G| slack -1.000e-11",
            "chain_dt: final degeneration order 2.000",
            "chain_dx: final degeneration order 1.999",
        ],
        True,
    ),
    ("E8", 2): (
        {
            "propagator_dt": [
                (0, 0.05, 0.025, 0.024909749975540407, 0.024909749975540407),
                (1, 0.05, 0.0125, 0.006209417753209934, 0.006209417753209934),
                (2, 0.05, 0.00625, 0.0015512322298674164, 0.0015512322298674164),
                (3, 0.05, 0.003125, 0.00038773798208913135, 0.00038773798208913135),
            ],
            "propagator_dx": [
                (0, 0.05, 0.0, 0.05050954290741139, 0.05050954290741139),
                (1, 0.025, 0.0, 0.012649853513091669, 0.012649853513091669),
                (2, 0.0125, 0.0, 0.0031638634691683043, 0.0031638634691683043),
                (3, 0.00625, 0.0, 0.0007910533078774318, 0.0007910533078774318),
            ],
        },
        [
            "seno bound: max |dt sin(beta t)/sin(beta dt)| - T = -7.844e-02 "
            "over 10000 samples (tol 1.0e-12)",
            "dispersion roots: max |G| slack -1.035e-11",
            "chain_dt: final degeneration order 2.000",
            "chain_dx: final degeneration order 2.000",
        ],
        True,
    ),
}


@pytest.mark.parametrize("experiment, n", list(PINNED))
def test_rows_and_notes_pinned(experiment, n):
    tables, notes, passed = PINNED[experiment, n]
    result = run_experiment(default_config(experiment, n=n))
    assert {name: [(r.level, r.dx, r.dt, r.sup_error, r.l2_error)
                   for r in table.rows]
            for name, table in result.tables.items()} == tables
    assert result.notes == notes
    assert result.passed == passed
