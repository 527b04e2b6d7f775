"""Exception hierarchy for the solver.

Every error raised intentionally by this package derives from SolverError, so
callers can catch the package's failures without masking programming bugs.
Each refusal rule has one class.
"""

__all__ = ["SolverError", "ConfigError", "SingularPoint", "DiscontinuityPoint", "UnsupportedRegime",
           "OutsideAdmissibleBand", "NotAnEigenvalue", "NotConjugatePair", "BrokenPTSymmetry"]


class SolverError(Exception):
    """Base class for all solver errors."""


class ConfigError(SolverError, ValueError):
    """A field configuration, CLI flag set, config file, argument value,
    level index or coefficient table is invalid.  It is also a ValueError,
    as a bad argument value is."""


class SingularPoint(SolverError):
    """A potential was evaluated at a point where it diverges."""


class DiscontinuityPoint(SolverError):
    """A derivative was requested exactly at a jump of a piecewise profile."""


class UnsupportedRegime(SolverError):
    """The request lies outside what a solver here can resolve: a field
    regime or profile it does not handle (such as one with no constant
    exterior), overlaps of states of different k or potentials, or levels
    that rounding or the step size leaves unresolved."""


class OutsideAdmissibleBand(SolverError):
    """(k, epsilon) admits no bound state: some exterior cannot decay, as
    |epsilon - v| >= |k + a| there (at k = 0 with a = 0 none can), or a
    square well's interior does not oscillate."""


class NotAnEigenvalue(SolverError):
    """State assembly was attempted at an epsilon that is not a root."""


class NotConjugatePair(SolverError):
    """The two spinor components are not related by complex conjugation."""


class BrokenPTSymmetry(SolverError):
    """A state is not an eigenfunction of the parity-conjugation operation."""
