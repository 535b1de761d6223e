"""Exception types raised across the package.

Domain failures (unreachable points, non-convergence, factorization
breakdown) map to CLI exit code 1; malformed configuration maps to 2.
"""


class StatdiscError(Exception):
    """Base class for all library errors."""


class InvalidInputError(StatdiscError):
    """Non-finite or structurally malformed numeric input."""


class InvalidParamsError(StatdiscError):
    """Disc or lift parameters violate their invariants."""


class DegenerateDiscError(StatdiscError):
    """Boundary samples describe a (nearly) constant disc."""


class NormalizationError(StatdiscError):
    """No coordinate ordering makes the projectivization well defined."""


class NotReachableError(StatdiscError):
    """Target point is not hit by any disc through the given center."""


class PoleError(StatdiscError):
    """Evaluation requested at a pole of the parametrization."""


class LiftConstructionError(StatdiscError):
    """zeta * (d rho / d z_n) o h vanishes or winds around 0, so it has no
    continuous logarithm and the disc no regular lift."""


class WindingUndefinedError(StatdiscError):
    """Winding number of a function that vanishes on the grid."""


class ResolutionError(StatdiscError):
    """Grid too coarse to resolve phase increments; use a larger N."""


class SymbolSingularError(StatdiscError):
    """Matrix symbol is numerically singular somewhere on the circle."""


class ApproximationError(StatdiscError):
    """No adequate Laurent approximant at the requested defect tolerance."""


class FactorizationError(StatdiscError):
    """Birkhoff column reduction failed to converge or to verify."""


class ReductionMismatchError(StatdiscError):
    """A step of the symbol reduction chain changed an invariant."""


class NoConvergenceError(StatdiscError):
    """Newton iteration exhausted its budget.

    Carries the per-iteration residual history for diagnostics.
    """

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class DimensionAmbiguousError(StatdiscError):
    """No clear spectral gap separates null directions from the rest."""

    def __init__(self, message, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class TargetInversionError(StatdiscError):
    """The velocity map on the target family could not be inverted."""


class UsageError(StatdiscError):
    """Malformed command line or configuration file."""
