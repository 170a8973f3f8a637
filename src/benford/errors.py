"""Exception types shared across the library."""


class BenfordError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveInput(BenfordError):
    """A value that must be a positive finite real was zero, negative, or non-finite."""


class DomainError(BenfordError):
    """An argument fell outside its documented domain."""


class NotNormalized(BenfordError):
    """A density failed its normalization check."""


class TruncationError(BenfordError):
    """No admissible truncation order meets the certified tail bound."""


class QuadratureError(BenfordError):
    """The adaptive integrator could not reach the requested tolerance."""


class EmptyData(BenfordError):
    """No usable entries remained after filtering."""


class InsufficientData(BenfordError):
    """Too few observations for the requested statistic."""


class UnsupportedRatio(BenfordError):
    """Geometric ratio is an integer power of the base to float precision:
    its quotient by the nearest power of the base rounds to 1 or leaves
    [1, b), as for 0.1 and 1e-6 in base 10, whose doubles are not exact
    powers."""
