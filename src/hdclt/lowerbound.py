"""Constructive lower-bound analyses: the Poisson approximation of the max
statistic of the two-point construction, the rate curves' power-law fit, and
W's distance to its Gaussian reference, whose exact law serves every n of a
rate curve and every rho of the Gaussian comparison.

The threshold x solves the equation Phi(x)^d = e^{-1}, so the Gaussian max
statistic lands exactly on e^{-1}; the gap of the data max statistic at that
threshold is then governed by e^{-lambda} with lambda = d * P(W_1 > x).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from . import maxlaw
from .distance import (ks_distance_with_se, ks_two_sample_critical,
                       max_stat_sample)
from .sampler import DistributionSpec, substream


def threshold_xn(d: float) -> float:
    """Inverse normal CDF at e^{-1/d}; accepts real d > 0 for testing."""
    if d <= 0:
        raise ValueError("d must be > 0")
    return float(ndtri(math.exp(-1.0 / d)))


def poisson_approx_check(spec: DistributionSpec, n: int, reps: int,
                         seed: int) -> dict:
    """Estimate F(x_n) and lambda_n for the max statistic of the two-point
    construction ``spec`` (any other spec raises ValueError).

    W's coordinates are i.i.d. with exact tail q = P(W_1 > x_n) from
    :func:`maxlaw.two_point_marginal_tail`, so the count C_r of coordinates
    above x_n, drawn from substream 25 of ``seed``, is Binomial(d, q):
    f_hat = mean(C_r == 0) and tail = sum C_r / (reps d) have the joint law
    of the estimators read off reps draws of W.  Returns, in this order,
    ``x_n``, ``f_hat``, ``lambda_hat``, the exact ``exact_tail`` (q), the
    residual ``|f_hat - exp(-lambda_hat)|``, its ``d * P(W_1 > x)^2`` bound
    ``residual_bound``, its standard error ``propagated_se``, and the exact
    ``exact_f``, ``exact_lambda`` and ``exact_residual``.
    """
    if spec.kind != "two_point":
        raise ValueError(f"a {spec.kind!r} spec is not the two-point "
                         "construction")
    d = spec.dim
    x_n = threshold_xn(d)
    q = maxlaw.two_point_marginal_tail(spec.B, n, x_n)
    counts = substream(seed, 25).binomial(d, q, size=reps)
    f_hat = int(np.count_nonzero(counts == 0)) / reps
    tail = int(counts.sum()) / (reps * d)
    lam = d * tail
    se_f = math.sqrt(max(f_hat * (1 - f_hat), 1e-300) / reps)
    se_tail = math.sqrt(max(tail * (1 - tail), 1e-300) / (reps * d))
    exact_f = (1.0 - q) ** d
    return {"x_n": x_n, "f_hat": f_hat, "lambda_hat": lam,
            "exact_tail": q, "residual": abs(f_hat - math.exp(-lam)),
            "residual_bound": d * (lam / d) ** 2,
            "propagated_se": math.hypot(se_f, math.exp(-lam) * (d * se_tail)),
            "exact_f": exact_f, "exact_lambda": d * q,
            "exact_residual": abs(exact_f - math.exp(-d * q))}


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


def reference_max_stats(spec: DistributionSpec) -> maxlaw.IsotropicGaussianMax:
    """Exact law F of N(0, covariance of spec)'s max statistic max_j Z_j,
    the reference of :func:`reference_distance`; a covariance other than
    sigma^2 I raises ValueError.  One F serves every W measured against
    it."""
    cov = spec.population_covariance()
    law = maxlaw.law_of(DistributionSpec.gaussian(cov), 1)
    if not isinstance(law, maxlaw.IsotropicGaussianMax):
        raise ValueError(f"the {spec.kind} covariance is not sigma^2 I")
    return law


def reference_distance(spec: DistributionSpec, n: int, reps: int, seed: int,
                       ref: maxlaw.IsotropicGaussianMax) -> tuple:
    """Measure W = n^{-1/2} sum_i X_i, X_i ~ spec, against the reference
    law ``ref``: the one-sample KS distance of max_j W_j over ``reps``
    draws from ``seed`` to ``ref``, its standard error, the 1% one-sample
    KS critical value c(alpha) / sqrt(reps) (the noise floor a Monte Carlo
    distance cannot resolve below) and the exact sup distance of the law of
    max_j W_j to ``ref``, which the Monte Carlo distance estimates, or nan
    where ``maxlaw.law_of`` has no law of max_j W_j.

    The law of max W is built once and serves both the draws, which come
    sorted from sorted uniforms where it has a one-variate sampler, and the
    exact distance.  ``ref``'s CDF is taken at most once per distinct value
    of the draws (at most n + 1 of them on a step law), and only at those
    where the KS sup can lie."""
    w_law = maxlaw.law_of(spec, n)
    w = max_stat_sample(spec, n, reps, seed, w_law)
    dist, se = ks_distance_with_se(w, ref)
    return (dist, se, ks_two_sample_critical(reps, math.inf),
            math.nan if w_law is None else maxlaw.sup_distance(w_law, ref))
