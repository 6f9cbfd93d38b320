"""Exception hierarchy shared across the package."""


class PseudoRealError(Exception):
    """Base class for all package errors."""


class NotASubfieldError(PseudoRealError):
    """Requested rebase target is not a multiple of the current field order."""


class BothZeroError(PseudoRealError):
    """gcd of the zero polynomial with itself is undefined."""


class ZeroMapError(PseudoRealError):
    """Numerator and denominator are both the zero polynomial."""


class ConvergenceFailureError(PseudoRealError):
    """Numeric root finding did not reach the requested residual."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or []


class DegenerateTripleError(PseudoRealError):
    """Three-point interpolation needs pairwise distinct points."""


class TooManyCoincidencesError(PseudoRealError):
    """Cross-ratio needs at least three distinct points."""


class NotAnInvolutionError(PseudoRealError):
    """Involution classification applied to a non-involution."""


class DegenerateSetError(PseudoRealError):
    """Distinguished point set has fewer than three points after extension."""


class SearchBoundExceededError(PseudoRealError):
    """Distinguished set larger than the configured search cap."""


class NotAGroupError(PseudoRealError):
    """Element list is not closed under composition at the working tolerance."""


class NotAnAutomorphismError(PseudoRealError):
    """The supplied transformation does not commute with the map."""


class OrderMismatchError(PseudoRealError):
    """Cyclic canonicalization needs a symmetry of finite order at least two."""


class NotCanonicalError(PseudoRealError):
    """Input is not in the rotation normal form z*psi(z^n)."""


class NotCertifiedError(PseudoRealError):
    """A numeric quantity could not be lifted to exact arithmetic."""


class ConditionViolationError(PseudoRealError):
    """A constructor hypothesis fails; the message names the violated condition."""


class BadDegreeError(PseudoRealError):
    """Degree outside the operation's admissible range."""


class ResultantVanishesError(PseudoRealError):
    """Requested coefficient family lands on the degenerate locus (vanishing resultant)."""


class ConsistencyViolationError(PseudoRealError):
    """Exact and numeric pipelines disagree; this signals a bug, not an expected state."""


class MapSyntaxError(PseudoRealError):
    """Expression parse failure; carries the source offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class NonRationalExpressionError(PseudoRealError):
    """Expression does not define a rational map (e.g. the variable in an exponent)."""
