"""Multiplier and empirical bootstrap draws plus the simultaneous quantile.

Draws are conditional on a fixed data matrix X; for fixed (X, kind, seed, R)
the output is bit-identical regardless of how replications are scheduled.
The empirical covariance uses the 1/n divisor throughout, matching the
conditional covariance of the multiplier draws and the empirical
bootstrap's data inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .distance import max_statistic
from .matcore import CovarianceModel
from .sampler import DataMatrix, blocks, substream

# Mammen two-point multiplier: values (1 -+ sqrt5)/2 with probabilities
# (sqrt5 +- 1)/(2 sqrt5); satisfies E xi = 0, E xi^2 = 1, E xi^3 = 1.
_SQRT5 = math.sqrt(5.0)
MAMMEN_LOW = (1.0 - _SQRT5) / 2.0
MAMMEN_HIGH = (1.0 + _SQRT5) / 2.0
MAMMEN_P_LOW = (_SQRT5 + 1.0) / (2.0 * _SQRT5)
# two-point multipliers: kind -> (P(low), low, high)
_TWO_POINT = {"rademacher": (0.5, -1.0, 1.0),
              "mammen": (MAMMEN_P_LOW, MAMMEN_LOW, MAMMEN_HIGH)}

MULTIPLIER_KINDS = ("gaussian", "rademacher", "mammen")

# fewest draws simultaneous_quantile accepts
MIN_QUANTILE_DRAWS = 100


def _low_indicator(p: float, rng: np.random.Generator, size) -> np.ndarray:
    """Float 0/1 array, 1 with probability p: entry i is 1 when byte i of
    ``random_raw`` (little-endian) is below ``cut = floor(256 p)``; then each
    byte equal to cut, in order, is 1 when a uniform is below 256 p - cut."""
    m, cut = size[0] * size[1], math.floor(256 * p)
    byte = (rng.bit_generator.random_raw(-(-m // 8)).astype("<u8", copy=False)
            .view(np.uint8)[:m].reshape(size))
    ties = np.flatnonzero(byte == cut)
    out = np.less(byte, cut, out=np.empty(size), casting="unsafe")
    out.flat[ties] = rng.random(ties.size) < 256 * p - cut
    return out


def multiplier_draws(x: DataMatrix, reps: int, kind: str,
                     seed: int) -> np.ndarray:
    """reps x d draws of the multiplier-bootstrap statistic.

    Each draw is ``n^{-1/2} sum_i xi_i (X_i - Xbar)`` with fresh multipliers;
    the Gaussian kind is conditionally exactly N(0, centered empirical cov).
    That law is drawn as ``z @ R`` from ``min(n, d)`` standard normals ``z``,
    where ``R`` is the thin-QR factor of the centred data, since
    ``R^T R = xc^T xc``.  A two-point multiplier is ``high + (low - high)
    1{low}``, so its draws are one 0/1 product with ``xc`` plus a fixed row.
    ``kind`` is one of :data:`MULTIPLIER_KINDS`.
    """
    if kind not in MULTIPLIER_KINDS:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    if x.n < 1:
        raise ValueError("multiplier bootstrap requires n >= 1")
    xc = (x.values - x.values.mean(axis=0)) / math.sqrt(x.n)
    if kind == "gaussian":
        xc = np.linalg.qr(xc, mode="r")
    k = xc.shape[0]
    out = np.empty((reps, x.d))
    # a block holds its rows x k multipliers and their rows x d product
    for idx, rows in blocks(reps, max(k, x.d)):
        rng, size = substream(seed, 10, idx), (rows.stop - rows.start, k)
        if kind == "gaussian":
            out[rows] = rng.standard_normal(size) @ xc
        else:
            p, low, high = _TWO_POINT[kind]
            block = np.matmul(_low_indicator(p, rng, size), xc, out=out[rows])
            block *= low - high
            block += high * xc.sum(axis=0)
    return out


def empirical_draws(x: DataMatrix, reps: int, seed: int) -> np.ndarray:
    """reps x d draws of the empirical-bootstrap statistic.

    Each draw resamples n rows with replacement and recenters by the sample
    mean: ``n^{-1/2} sum_i (X*_i - Xbar)``.
    """
    if x.n < 1:
        raise ValueError("empirical bootstrap requires n >= 1")
    xbar = x.values.mean(axis=0)
    out = np.empty((reps, x.d))
    # the resampled rows x.values[picks] are the n*d-float slab per draw
    for idx, rows in blocks(reps, x.n * x.d):
        rng = substream(seed, 11, idx)
        picks = rng.integers(0, x.n, size=(rows.stop - rows.start, x.n))
        out[rows] = (x.values[picks].sum(axis=1) - x.n * xbar) / math.sqrt(x.n)
    return out


def empirical_cov_centered(x: DataMatrix) -> CovarianceModel:
    """Centered empirical covariance with the 1/n divisor."""
    if x.n < 2:
        raise ValueError("requires n >= 2")
    xc = x.values - x.values.mean(axis=0)
    return CovarianceModel(xc.T @ xc / x.n)


def bootstrap_bound_inputs(x: DataMatrix,
                           psi: float) -> tuple[float, float, float]:
    """Data-driven empirical-bootstrap inputs (Delta_1', M*, M*(psi)).

    At unit variance sigma_* = 1:
    Delta_1' = (log d)^2/n^2 max_j sum_i (X_ij - Xbar_j)^4,
    M*       = max_ij |X_ij - Xbar_j|,
    M*(psi)  = n^{-1} sum_i ||X_i - Xbar||_inf^4 1{||X_i - Xbar||_inf > psi}.
    """
    if x.n < 2:
        raise ValueError("requires n >= 2")
    if psi <= 0:
        raise ValueError("psi must be > 0")
    xc = x.values - x.values.mean(axis=0)
    delta1p = math.log(x.d) ** 2 / x.n**2 * float(np.max((xc**4).sum(axis=0)))
    row_max = np.max(np.abs(xc), axis=1)
    m_star = float(row_max.max(initial=0.0))
    m_psi_star = float(np.mean(row_max**4 * (row_max > psi)))
    return delta1p, m_star, m_psi_star


def simultaneous_quantile(draws: np.ndarray, level: float,
                          side: str = "two_sided") -> float:
    """Empirical ``level``-quantile of the max statistic of the draws.

    ``side``: "two_sided" uses max_j |draw_j|, "one_sided" uses max_j draw_j.
    """
    if draws.shape[0] < MIN_QUANTILE_DRAWS:
        raise ValueError(f"need at least {MIN_QUANTILE_DRAWS} replications")
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    stats = max_statistic(draws, side)
    if level == 1.0:
        return float(stats.max())
    return float(np.quantile(stats, level, method="higher"))
