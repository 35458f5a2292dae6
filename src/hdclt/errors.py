"""Semantic exception hierarchy shared across the package."""


class HdcltError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(HdcltError):
    """A Cholesky pivot fell below tolerance."""


class DimensionMismatch(HdcltError):
    """Operands have incompatible dimensions."""


class DegenerateRectangle(HdcltError):
    """A rectangle has lower_j > upper_j for some coordinate."""


class BadDiagonal(HdcltError):
    """Anti-concentration probe requires all variances >= 1."""


class NonDiagonalSigma(HdcltError):
    """Analytic smoothing path requires a diagonal covariance."""


class OrderTooHigh(HdcltError):
    """Requested mixed-derivative order exceeds the supported cap."""


class QuadratureNotConverged(HdcltError):
    """A quadrature row still moved between the last two orders at the cap."""


class BudgetExceeded(HdcltError):
    """The d**v index-tuple budget for a derivative sum is infeasible."""


class ConfigInvalid(HdcltError):
    """Experiment configuration failed validation."""


class IoFailure(HdcltError):
    """A result file could not be written."""
