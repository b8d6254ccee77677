"""wavelattice: the discrete n-dimensional wave equation on CFL lattices.

Explicit leapfrog scheme, discrete dispersion relation, Fourier-quadrature
reference solutions, the semidiscrete Lagrange ODE model, Duhamel
propagators, the variable-coefficient elliptic splitting, and a CLI
harness of convergence experiments.
"""

from .dispersion import (
    beta_arrays,
    beta_semidiscrete,
    sinc,
    symbol_G_arrays,
)
from .elliptic import (
    EllipticProblem,
    EllipticSolution,
    assemble_and_solve,
    split_pipeline,
)
from .errors import (
    AmbiguousBoundaryError,
    BlowupError,
    CflViolationError,
    MissingLevelError,
    MissingNeighborError,
    NoCommonPointsError,
    SingularSystemError,
    SpentVelocitiesError,
    TailBoundError,
    WaveLatticeError,
)
from .lagrange import (
    LagrangeSystem,
    integrate,
    phi_reference_error,
    set_initial_data,
    system_for_domain,
)
from .lattice import (
    Domain,
    LatticeClassification,
    LatticeSpec,
    classify,
    refine_halving,
)
from .leapfrog import DiscreteProblem, solve
from .spectral import (
    DataFunction,
    Forcing,
    FrequencyQuadrature,
    dalembert_forcing,
    duhamel_solve,
    homogeneous_solution,
    propagator,
    separable_forcing,
)
from .stencils import (
    BLOWUP_THRESHOLD,
    GridField,
    dump_level,
    field_from_classification,
    lattice_points,
    load_level,
)

__version__ = "0.1.0"
