"""Exception types shared across the package."""


class WaveLatticeError(Exception):
    """Base class for all library-specific failures."""


class AmbiguousBoundaryError(WaveLatticeError):
    """A lattice point sits too close to the domain boundary to classify."""


class MissingLevelError(WaveLatticeError):
    """A difference quotient needs a time level that is not stored."""


class MissingNeighborError(WaveLatticeError):
    """A spatial stencil needs a lattice point outside the field support."""


class CflViolationError(WaveLatticeError):
    """The dispersion root is complex: the lattice violates the CFL bound."""


class TailBoundError(WaveLatticeError):
    """The frequency-cutoff tail estimate exceeds the requested tolerance."""


class SpentVelocitiesError(WaveLatticeError, ValueError):
    """A Lagrange system's velocities were stepped over by `integrate`."""


class BlowupError(WaveLatticeError):
    """Solver values exceeded the blowup threshold (CFL instability)."""

    def __init__(self, message, level=None, max_value=None):
        super().__init__(message)
        self.level = level
        self.max_value = max_value


class SingularSystemError(WaveLatticeError):
    """The assembled elliptic system could not be solved reliably."""


class NoCommonPointsError(WaveLatticeError):
    """Two fields share no lattice points inside the comparison window."""
