"""Constructive lower-bound analyses: the Poisson approximation of the max
statistic of the two-point construction, plus the Gaussian reference law and
power-law fit the rate experiments build their curves from.

The threshold x solves the equation Phi(x)^d = e^{-1}, so the Gaussian max
statistic lands exactly on e^{-1}; the gap of the data max statistic at that
threshold is then governed by e^{-lambda} with lambda = d * P(W_1 > x).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .distance import (MaxStatSample, max_stat_sample, max_statistic,
                       scaled_sum_blocks)
from .sampler import DistributionSpec, derive_seed


def threshold_xn(d: float) -> float:
    """Inverse normal CDF at e^{-1/d}; accepts real d > 0 for testing."""
    if d <= 0:
        raise ValueError("d must be > 0")
    return float(ndtri(math.exp(-1.0 / d)))


def poisson_approx_check(spec: DistributionSpec, n: int, reps: int,
                         seed: int) -> dict:
    """Estimate F(x_n) and lambda_n for the max statistic of ``spec``.

    The ``reps`` draws of W come from :func:`scaled_sum_blocks`, and each
    block is reduced to two counts before the next is drawn: its rows whose
    max is <= x_n, which estimate F, and its coordinates above x_n, which
    estimate the marginal tail from all reps*d coordinate values
    (coordinates are i.i.d. for the supported families).  Memory therefore
    stays near ``BLOCK_FLOATS`` however large reps*d is.  Returns ``x_n``,
    ``f_hat``, ``lambda_hat``, the residual ``|f_hat - exp(-lambda_hat)|``,
    its ``d * P(W_1 > x)^2`` bound ``residual_bound``, and the standard
    error ``propagated_se`` of the residual from both estimates.
    """
    d = spec.dim
    x_n = threshold_xn(d)
    below = above = 0
    for _, draws in scaled_sum_blocks(spec, n, reps, seed):
        below += int(np.count_nonzero(max_statistic(draws) <= x_n))
        above += int(np.count_nonzero(draws > x_n))
        del draws  # before the next block is drawn
    f_hat = below / reps
    tail = above / (reps * d)
    lam = d * tail
    se_f = math.sqrt(max(f_hat * (1 - f_hat), 1e-300) / reps)
    se_tail = math.sqrt(max(tail * (1 - tail), 1e-300) / (reps * d))
    return {"x_n": x_n, "f_hat": f_hat, "lambda_hat": lam,
            "residual": abs(f_hat - math.exp(-lam)),
            "residual_bound": d * (lam / d) ** 2,
            "propagated_se": math.hypot(se_f, math.exp(-lam) * (d * se_tail))}


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
                        side: str = "one_sided") -> MaxStatSample:
    """Max statistics of N(0, covariance of spec), drawn by
    :func:`max_stat_sample`, so reference replication counts far above the W
    side stay affordable."""
    return max_stat_sample(
        DistributionSpec.gaussian(spec.population_covariance()), 1, reps,
        derive_seed(seed, 999), side)

