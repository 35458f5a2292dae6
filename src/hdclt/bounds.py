"""The paper's bound shapes that the experiments evaluate, as plain floats.

Every unspecified universal constant is set to 1 and every variance to its
unit value, so each function returns the shape of a bound to set a measured
distance against, not a certified numerical bound.  The convention
``x * (1 v |log x|) := 0`` at ``x = 0`` is used throughout (continuity limit).
"""

from __future__ import annotations

import math

from .matcore import CovarianceModel, sup_norm_diff


def xlog_factor(x: float) -> float:
    """x * (1 v |log x|), extended by continuity to 0 at x = 0."""
    if x < 0:
        raise ValueError("xlog_factor expects x >= 0")
    if x == 0.0:
        return 0.0
    return x * max(1.0, abs(math.log(x)))


def delta0(sigma: CovarianceModel, sigma_w: CovarianceModel, d: int) -> float:
    """log d * ||Sigma - Sigma_W||_inf, at sigma_* = 1."""
    return math.log(d) * sup_norm_diff(sigma, sigma_w)


def bound_bounded(n: int, d: int, B: float) -> float:
    """Headline bounded-case shape B (log d)^{3/2} log n / sqrt(n): the
    simple-condition case E1 at unit variance, i.e. (B^2 log^3 d / n)^{1/2}
    log n."""
    return B * math.log(d) ** 1.5 * math.log(n) / math.sqrt(n)


def bound_gaussian_comparison(D: float, d: int) -> float:
    """Comparison of two unit-variance Gaussian laws over rectangles whose
    covariances are D apart in sup norm: D (1 v |log D|) log d."""
    if D < 0:
        raise ValueError("D must be nonnegative")
    return xlog_factor(D) * math.log(d)


def bounds_local_means(n: int, d: int) -> tuple[float, float, float]:
    """The three many-local-means bound shapes: combined, prior-style, coupling.

    All three are evaluated with p = 1/d.
    """
    if d < 2 or n < 3:
        raise ValueError("bounds_local_means requires d >= 2, n >= 3")
    ld, ln = math.log(d), math.log(n)
    p = 1.0 / d

    surrogate = ld**2 / d + math.sqrt(d * ld**3 / n) * ln
    combined = min(surrogate, (d * ln**5 / n) ** 0.25)
    prior = (ld**2 / d
             + (math.sqrt(d**3 * ld**4 * ln / n)
                + math.sqrt(ld**7 * math.log(d * n) / n)) * ln)
    coupling = math.sqrt(ld) * (math.sqrt(ln / (n * p))
                                + math.sqrt(ln**2 / (n * p)))
    return combined, prior, coupling
