"""Exception taxonomy shared by all modules.

Exit-code mapping used by the CLI: usage errors are 2, parse errors 3,
and every NumericalError subclass maps to 4.
"""


class ThamesError(Exception):
    """Base class for all package errors."""


class InvalidInput(ThamesError):
    """Arguments violate a documented precondition."""


class ParseError(ThamesError):
    """An input table could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class NumericalError(ThamesError):
    """Base class for runtime numerical failures."""


class NotPositiveDefinite(NumericalError):
    """Covariance factorization hit a non-positive pivot."""


class NumericalFailure(NumericalError):
    """An iteration or root bracket failed to converge."""


class Overflow(NumericalError):
    """A final exponentiation would overflow; carries the log value."""

    def __init__(self, message, log_value):
        super().__init__(message)
        self.log_value = log_value


class EmptyTruncationSet(NumericalError):
    """No retained draw fell inside the truncation ellipsoid."""


class InsufficientData(NumericalError):
    """Too few draws inside the ellipsoid to estimate a variance."""


class DegenerateTerm(NumericalError):
    """A zero-density draw fell inside the ellipsoid, making the sum infinite."""


class ZeroSupportOverlap(NumericalError):
    """No uniform point in the ellipsoid fell in the support: R_hat is zero."""
