"""Max statistics of multiplier and empirical bootstrap draws, and quantiles.

Draws are conditional on a fixed data matrix X; for fixed (X, kind, side,
seed, R) the output is bit-identical regardless of how replications are
scheduled.  The empirical covariance uses the 1/n divisor throughout,
matching the conditional covariance of the draws.
"""

from __future__ import annotations

import math

import numpy as np

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

MULTIPLIER_KINDS = ("gaussian", "rademacher", "mammen", "empirical")

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


def _multipliers(kind: str, rng: np.random.Generator, size) -> np.ndarray:
    """One block's float multipliers; a two-point kind gives its 1{low}."""
    if kind == "gaussian":
        return rng.standard_normal(size)
    if kind == "empirical":
        # row r's picks offset by r*n, so one bincount counts every row
        picks = rng.integers(0, size[1], size=size)
        picks += np.arange(0, picks.size, size[1])[:, None]
        counts = np.bincount(picks.ravel(), minlength=picks.size)
        return counts.reshape(size) - 1.0
    return _low_indicator(_TWO_POINT[kind][0], rng, size)


def multiplier_draws(x: DataMatrix, reps: int, kind: str, seed: int,
                     side: str) -> np.ndarray:
    """``reps`` unsorted max statistics, max_j D_j ("one_sided") or
    max_j |D_j| ("two_sided"), of multiplier-bootstrap draws D.

    Each draw is ``D = n^{-1/2} sum_i xi_i (X_i - Xbar)`` with fresh
    multipliers; the Gaussian kind is conditionally exactly N(0, centered
    empirical cov).  That law is drawn as ``z @ R`` from ``min(n, d)``
    standard normals ``z``, where ``R`` is the thin-QR factor of the centred
    data, since ``R^T R = xc^T xc``.  A two-point multiplier is ``high +
    (low - high) 1{low}``, so its draws are one 0/1 product with ``xc`` plus
    a fixed row.  The empirical kind resamples n rows with replacement: with
    ``M_i`` the count of row i, ``n^{-1/2} sum_i (X*_i - Xbar)`` is the draw
    with ``xi_i = M_i - 1``.  ``kind`` is one of :data:`MULTIPLIER_KINDS`.
    """
    if kind not in MULTIPLIER_KINDS:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    if side not in ("one_sided", "two_sided"):
        raise ValueError(f"unknown side {side!r}")
    if x.n < 1:
        raise ValueError("multiplier bootstrap requires n >= 1")
    xc = (x.values - x.values.mean(axis=0)) / math.sqrt(x.n)
    if kind == "gaussian":
        xc = np.linalg.qr(xc, mode="r")
    k = xc.shape[0]
    out = np.empty(reps)
    # a block holds its rows x k multipliers and its rows x d product, which
    # every block writes to one buffer and reduces to its row maxima: k + d
    # floats a row, and 3n + d with an empirical block's int64 picks and counts
    row_floats = (3 * k if kind == "empirical" else k) + x.d
    for idx, rows in blocks(reps, row_floats):
        rng, size = substream(seed, 10, idx), (rows.stop - rows.start, k)
        product = np.empty((size[0], x.d)) if idx == 0 else product[:size[0]]
        block = np.matmul(_multipliers(kind, rng, size), xc, out=product)
        if kind in _TWO_POINT:
            _, low, high = _TWO_POINT[kind]
            block *= low - high
            block += high * xc.sum(axis=0)
        if side == "two_sided":
            np.abs(block, out=block)
        np.max(block, axis=1, out=out[rows])
    return out


def empirical_cov_centered(x: DataMatrix) -> CovarianceModel:
    """Centered empirical covariance with the 1/n divisor."""
    if x.n < 2:
        raise ValueError("requires n >= 2")
    xc = x.values - x.values.mean(axis=0)
    return CovarianceModel(xc.T @ xc / x.n)


def simultaneous_quantile(maxima: np.ndarray, level: float) -> float:
    """Empirical ``level``-quantile of a 1-D array of max statistics."""
    if np.ndim(maxima) != 1:
        raise ValueError("simultaneous_quantile takes 1-D max statistics")
    if len(maxima) < MIN_QUANTILE_DRAWS:
        raise ValueError(f"need at least {MIN_QUANTILE_DRAWS} replications")
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    return float(np.quantile(maxima, level, method="higher"))
