"""Multiplier and empirical bootstrap draw engines plus their bound inputs.

Draws are conditional on a fixed data matrix X; for fixed (X, kind, seed, R)
the output is bit-identical regardless of how replications are scheduled.
The empirical covariance uses the 1/n divisor throughout, matching the
definition feeding the Delta_0' quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSigma
from .matcore import CovarianceModel, sup_norm_diff
from .sampler import DataMatrix, blocks, substream

# Mammen two-point multiplier: values (1 -+ sqrt5)/2 with probabilities
# (sqrt5 +- 1)/(2 sqrt5); satisfies E xi = 0, E xi^2 = 1, E xi^3 = 1.
_SQRT5 = math.sqrt(5.0)
MAMMEN_LOW = (1.0 - _SQRT5) / 2.0
MAMMEN_HIGH = (1.0 + _SQRT5) / 2.0
MAMMEN_P_LOW = (_SQRT5 + 1.0) / (2.0 * _SQRT5)

MULTIPLIER_KINDS = ("gaussian", "rademacher", "mammen")

# fewest draws simultaneous_quantile accepts
MIN_QUANTILE_DRAWS = 100


@dataclass(frozen=True)
class MultiplierKind:
    tag: str

    def __post_init__(self):
        if self.tag not in MULTIPLIER_KINDS:
            raise ValueError(f"unknown multiplier kind {self.tag!r}")

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.tag == "gaussian":
            return rng.standard_normal(size)
        if self.tag == "rademacher":
            return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
        return np.where(rng.random(size) < MAMMEN_P_LOW, MAMMEN_LOW, MAMMEN_HIGH)


def multiplier_draws(x: DataMatrix, reps: int, kind: MultiplierKind | str,
                     seed: int) -> np.ndarray:
    """reps x d draws of the multiplier-bootstrap statistic.

    Each draw is ``n^{-1/2} sum_i xi_i (X_i - Xbar)`` with fresh multipliers;
    the Gaussian kind is conditionally exactly N(0, centered empirical cov).
    """
    if x.n < 1:
        raise ValueError("multiplier bootstrap requires n >= 1")
    if isinstance(kind, str):
        kind = MultiplierKind(kind)
    xc = (x.values - x.values.mean(axis=0)) / math.sqrt(x.n)
    out = np.empty((reps, x.d))
    for idx, rows in blocks(reps, x.n):
        xi = kind.draw(substream(seed, 10, idx), (rows.stop - rows.start, x.n))
        out[rows] = xi @ xc
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


def delta0_prime(sigma: CovarianceModel, sigma_hat: CovarianceModel,
                 sigma_star: float, d: int) -> float:
    """(log d / sigma_*^2) * ||Sigma - empirical covariance||_inf."""
    if sigma_star <= 0:
        raise DegenerateSigma("delta0_prime requires sigma_* > 0")
    return math.log(d) / sigma_star**2 * sup_norm_diff(sigma, sigma_hat)


def bootstrap_bound_inputs(x: DataMatrix, psi: float,
                           sigma_star: float = 1.0) -> tuple[float, float, float]:
    """Data-driven empirical-bootstrap inputs (Delta_1', M*, M*(psi)).

    Delta_1' = (log d)^2/(n^2 sigma_*^4) max_j sum_i (X_ij - Xbar_j)^4,
    M*       = max_ij |X_ij - Xbar_j|,
    M*(psi)  = n^{-1} sum_i ||X_i - Xbar||_inf^4 1{||X_i - Xbar||_inf > psi}.
    """
    if x.n < 2:
        raise ValueError("requires n >= 2")
    if psi <= 0:
        raise ValueError("psi must be > 0")
    xc = x.values - x.values.mean(axis=0)
    delta1p = (math.log(x.d) ** 2 / (x.n**2 * sigma_star**4)
               * float(np.max((xc**4).sum(axis=0))))
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
    if side == "two_sided":
        stats = np.max(np.abs(draws), axis=1)
    elif side == "one_sided":
        stats = np.max(draws, axis=1)
    else:
        raise ValueError(f"unknown side {side!r}")
    if level == 1.0:
        return float(stats.max())
    return float(np.quantile(stats, level, method="higher"))
