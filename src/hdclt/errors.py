"""Semantic exception hierarchy shared across the package.

A bad argument to a function raises ``ValueError``.  An ``HdcltError`` is
kept for what a run can meet: ``ConfigInvalid`` (the CLI exits 2), and
``IoFailure``, ``NotPositiveDefinite`` and ``QuadratureNotConverged`` (the
CLI exits 1 with an ``error:`` line).
"""


class HdcltError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(HdcltError):
    """A Cholesky pivot fell below tolerance."""


class QuadratureNotConverged(HdcltError):
    """A quadrature row still moved between the last two orders at the cap."""


class ConfigInvalid(HdcltError):
    """Experiment configuration failed validation."""


class IoFailure(HdcltError):
    """A result file could not be written."""
