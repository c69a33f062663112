"""Exception taxonomy shared by all modules, and the argument checks
that more than one module runs.

Exit-code mapping used by the CLI: usage errors are 2, parse errors 3,
and every NumericalError subclass maps to 4.
"""

import numbers
import operator


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


def _check_count(value, what):
    """Raise InvalidInput unless value is an integer count, >= 1; what
    names the count, as in "sample" or "replication"."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} count {value!r:.40} is not an integer") from None
    if value < 1:
        raise InvalidInput(f"{what} count must be >= 1, got {value}")


def _check_level(level):
    """Raise InvalidInput unless level is a real number in (0, 1)."""
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise InvalidInput(f"confidence level must be in (0, 1), got {level!r:.40}")
