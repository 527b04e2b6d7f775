"""Exception hierarchy for the solver.

Every error raised intentionally by this package derives from SolverError, so
callers can catch the package's failures without masking programming bugs.
"""


class SolverError(Exception):
    """Base class for all solver errors."""


class ConfigError(SolverError, ValueError):
    """A field configuration, CLI flag set, config file or argument value is
    invalid.  It is also a ValueError, as a bad argument value is."""


class VerificationFailure(SolverError):
    """At least one self-check in the verification suite failed."""


class SingularPoint(SolverError):
    """A potential was evaluated at a point where it diverges."""


class DiscontinuityPoint(SolverError):
    """A derivative was requested exactly at a jump of a piecewise profile."""


class UnsupportedRegime(SolverError):
    """The request lies outside what a solver here can resolve: a field
    regime or profile it does not handle, or levels that rounding or the
    step size leaves unresolved."""


class OutsideAdmissibleBand(SolverError):
    """(k, epsilon) violates a condition required for a bound state."""


class UnboundedStateRequest(SolverError):
    """Matching was requested where an exterior region cannot decay."""


class NotAnEigenvalue(SolverError):
    """State assembly was attempted at an epsilon that is not a root."""


class DegenerateMomentum(SolverError):
    """An operation that divides by k was requested at k = 0."""


class NotConjugatePair(SolverError):
    """The two spinor components are not related by complex conjugation."""


class BrokenPTSymmetry(SolverError):
    """A state is not an eigenfunction of the parity-conjugation operation."""


class MismatchedMomentum(SolverError):
    """An inner product was requested between states of different k."""


class InvalidLevel(SolverError):
    """A level index that is not a non-negative integer was requested."""


class NonDecayingExterior(SolverError):
    """The asymptotic system admits no decaying direction on one side."""

