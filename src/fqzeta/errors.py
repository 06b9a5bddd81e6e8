"""Exception hierarchy shared by all fqzeta modules.

Inverting zero in a finite field raises the built-in ZeroDivisionError;
everything else signals through FqZetaError subclasses so callers can map
failures onto stable CLI exit codes.
"""


class FqZetaError(Exception):
    """Base class for all fqzeta failures."""


class NotPrimeError(FqZetaError):
    """A field characteristic failed the primality test."""


class MalformedSpecError(FqZetaError):
    """A variety description violates the input schema."""


class BudgetExceededError(FqZetaError):
    """An enumeration would visit more ambient points than allowed.

    required is the number of points needed, or None where a bound refused
    the enumeration before that number was built.
    """

    def __init__(self, message: str, *, required: int | None, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class InsufficientCountsError(FqZetaError):
    """Too few point counts to determine the requested rational function."""

    def __init__(self, message: str, *, needed: int, given: int):
        super().__init__(message)
        self.needed = needed
        self.given = given


class NoRationalFitError(FqZetaError):
    """No rational function of the requested shape matches the counts."""


class NonIntegralCoefficientsError(FqZetaError):
    """A rational fit exists but its coefficients are not integers."""


class NonIntegralCountError(FqZetaError):
    """A zeta function expanded to a non-integral or negative point count."""


class WeightSeparationError(FqZetaError):
    """The zeta function does not split into factors of the profile's weights."""


class DualityViolationError(FqZetaError):
    """A factorization violates the q^(d-i) pairing of complementary degrees."""

    def __init__(self, message: str, *, degrees: tuple[int, ...]):
        super().__init__(message)
        self.degrees = degrees


class DimensionMismatchError(FqZetaError):
    """Trace data and constraint system disagree on q, dimension, or depth."""
