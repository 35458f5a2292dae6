"""Constructive lower-bound analyses: Poisson approximation of the max
statistic of the two-point construction, and Monte Carlo rate curves.

The threshold x solves the equation Phi(x)^d = e^{-1}, so the Gaussian max
statistic lands exactly on e^{-1}; the gap of the data max statistic at that
threshold is then governed by e^{-lambda} with lambda = d * P(W_1 > x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import binom

from .distance import MaxStatSample, ks_distance_with_se, max_statistic
from .sampler import (DistributionSpec, blocks, derive_seed,
                      sample_scaled_sums, two_point_support)

GAUSS_TARGET = math.exp(-1.0)


def threshold_xn(d: float) -> float:
    """Inverse normal CDF at e^{-1/d}; accepts real d > 0 for testing."""
    if d <= 0:
        raise ValueError("d must be > 0")
    return float(ndtri(math.exp(-1.0 / d)))


def skewness_gamma(spec: DistributionSpec, n: int) -> float:
    """E[W_1^3] = E[X^3] / sqrt(n) for i.i.d. coordinates."""
    return spec.third_moment() / math.sqrt(n)


def two_point_marginal_tail(B: float, n: int, x: float) -> float:
    """Exact P(W_1 > x) for the two-point family by binomial enumeration.

    W_1 = (K a + (n - K) b)/sqrt(n) with K ~ Binomial(n, p) is a monotone
    transform of the count K, so the tail is an exact binomial sum.
    """
    a, b, p = two_point_support(B)
    k = np.arange(n + 1)
    w = (k * a + (n - k) * b) / math.sqrt(n)
    return float(binom.pmf(k[w > x], n, p).sum())


def rademacher_gaussian_max_cdf(n: int, d: int, x) -> np.ndarray:
    """Exact max-statistic CDF for the Rademacher scaled sum plus unit
    Gaussian noise, P(max_j (S_j/sqrt(n) + G_j) <= x) with i.i.d. coordinates.

    The coordinate law is a Binomial(n, 1/2) mixture of unit normals, so the
    max CDF is the d-th power of an exact finite sum.  This enumeration
    serves as a noise-free oracle for the smooth zero-skewness rate, whose
    distance scale (about 5e-4 at n=100, d=20) sits below the Monte Carlo
    resolution of affordable replication counts.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(n + 1)
    centers = (2.0 * k - n) / math.sqrt(n)
    pk = binom.pmf(k, n, 0.5)
    f1 = (pk[None, :] * ndtr(x[:, None] - centers[None, :])).sum(axis=1)
    return f1**d


@dataclass(frozen=True)
class PoissonApproxRecord:
    """Monte Carlo record of the Poisson approximation at the e^{-1} threshold."""

    x_n: float
    lambda_hat: float
    f_hat: float
    se_f: float
    se_lambda: float
    n: int
    d: int
    reps: int
    gauss_target: float = GAUSS_TARGET

    def __post_init__(self):
        if self.lambda_hat < 0:
            raise ValueError("lambda_hat must be >= 0")

    @property
    def marginal_tail_hat(self) -> float:
        return self.lambda_hat / self.d

    @property
    def residual(self) -> float:
        """|F_hat - exp(-lambda_hat)|."""
        return abs(self.f_hat - math.exp(-self.lambda_hat))

    @property
    def residual_bound(self) -> float:
        """The d * P(W_1 > x)^2 bound on the Poisson approximation error."""
        return self.d * self.marginal_tail_hat**2

    @property
    def se_exp_lambda(self) -> float:
        return math.exp(-self.lambda_hat) * self.se_lambda

    @property
    def propagated_se(self) -> float:
        return math.hypot(self.se_f, self.se_exp_lambda)


def poisson_approx_check(spec: DistributionSpec, n: int, d: int, reps: int,
                         seed: int) -> PoissonApproxRecord:
    """Estimate F(x_n) and lambda_n for the max statistic of ``spec``.

    F is estimated from ``reps`` draws of the full max statistic; the marginal
    tail from all reps*d coordinate values of the same draws (coordinates are
    i.i.d. for the supported families).
    """
    if spec.dim != d:
        spec = DistributionSpec(**{**spec.__dict__, "dim": d})
    x_n = threshold_xn(d)
    draws = sample_scaled_sums(spec, n, reps, seed)
    f_hat = float(np.mean(draws.max(axis=1) <= x_n))
    tail = float(np.mean(draws > x_n))
    lam = d * tail
    se_f = math.sqrt(max(f_hat * (1 - f_hat), 1e-300) / reps)
    se_tail = math.sqrt(max(tail * (1 - tail), 1e-300) / (reps * d))
    return PoissonApproxRecord(x_n=x_n, lambda_hat=lam, f_hat=f_hat,
                               se_f=se_f, se_lambda=d * se_tail,
                               n=n, d=d, reps=reps)


@dataclass(frozen=True)
class RatePoint:
    n: int
    distance: float
    se: float


@dataclass(frozen=True)
class RateCurve:
    points: list
    slope: float
    slope_se: float
    intercept: float
    family: object
    d: int


def fit_power_law(xs: Sequence[float], ys: Sequence[float]
                  ) -> tuple[float, float, float]:
    """OLS fit of log y on log x; returns (slope, slope se, intercept)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points")
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    dof = max(lx.size - 2, 1)
    slope_se = float(math.sqrt(np.sum(resid**2) / dof / sxx))
    return slope, slope_se, intercept


def reference_max_stats(spec: DistributionSpec, reps: int, seed: int,
                        family: str = "one_sided_max") -> MaxStatSample:
    """Max statistics of N(0, covariance of spec), drawn in :func:`blocks`
    so reference replication counts far above the W side stay affordable."""
    ref_spec = DistributionSpec.gaussian(spec.population_covariance())
    side = _side(family)
    out = np.empty(reps)
    for idx, rows in blocks(reps, spec.dim):
        # one expression, so no block's draws outlive its maxima
        out[rows] = max_statistic(
            sample_scaled_sums(ref_spec, 1, rows.stop - rows.start,
                               derive_seed(seed, 999, idx)), side)
    return MaxStatSample(out, side=side)


def _side(family: str) -> str:
    if family not in ("one_sided_max", "two_sided_max"):
        raise ValueError(f"rate_curve supports max families, not {family!r}")
    return family.removesuffix("_max")


def _rate_point(spec: DistributionSpec, n: int, reps: int, seed: int,
                family, ref: MaxStatSample) -> RatePoint:
    draws = sample_scaled_sums(spec, int(n), reps, seed)
    dist, se = ks_distance_with_se(MaxStatSample.from_draws(draws, _side(family)), ref)
    return RatePoint(n=int(n), distance=dist, se=se)


def rate_curve(spec: DistributionSpec, d: int, n_list: Sequence[int],
               reps: int, family="one_sided_max", seed: int = 0,
               ref_factor: int = 10, pmap=map) -> RateCurve:
    """Distance-vs-n curve between the max statistic of W and its Gaussian
    reference, with a log-log OLS slope.

    Each of the ``reps`` draws per n regenerates fresh data (the distance is
    over the sampling law of W, not conditional on a dataset).  The Gaussian
    reference uses ``ref_factor`` times more draws so reference noise is
    second order; it is shared across n since the covariance of W does not
    depend on n for i.i.d. rows.  ``pmap`` may be a parallel, order-preserving
    map; per-n seeds are derived from the replication index only, so the
    output does not depend on scheduling.
    """
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    if spec.dim != d:
        spec = DistributionSpec(**{**spec.__dict__, "dim": d})
    ref = reference_max_stats(spec, reps * ref_factor, seed, family)

    tasks = [(spec, int(n), reps, derive_seed(seed, 1, i), family, ref)
             for i, n in enumerate(n_list)]
    points = list(pmap(lambda t: _rate_point(*t), tasks))

    slope, slope_se, intercept = fit_power_law(
        [p.n for p in points], [max(p.distance, 1e-300) for p in points])
    return RateCurve(points=points, slope=slope, slope_se=slope_se,
                     intercept=intercept, family=family, d=d)
