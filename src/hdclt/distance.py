"""Kolmogorov-type distances over tractable rectangle families.

The sup over all rectangles is not Monte-Carlo estimable uniformly, so
distances are taken over explicit sub-families: the one-sided max family
(which the lower-bound constructions use), the two-sided max family, and a
seeded random rectangle family.  Every estimate therefore lower-bounds the
full rectangle-class distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import maxlaw
from .matcore import CovarianceModel
from .sampler import (DistributionSpec, blocks, derive_seed,
                      sample_scaled_sums, substream)

# a scaled-sum draw holds at most three reps x d arrays at once: the two of
# the count transform, plus the quasi-Gaussian noise
_DRAW_ARRAYS = 3


def max_statistic(draws: np.ndarray, side: str = "one_sided") -> np.ndarray:
    """Per-row max statistic, unsorted: max_j draw_j ("one_sided") or
    max_j |draw_j| ("two_sided")."""
    maxlaw._check_side(side)
    draws = np.atleast_2d(draws)
    return np.max(np.abs(draws), axis=1) if side == "two_sided" else np.max(draws, axis=1)


@dataclass(frozen=True)
class MaxStatSample:
    """Sorted Monte Carlo draws of a max statistic (an empirical CDF)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float).ravel())
        if v.size < 1:
            raise ValueError("MaxStatSample needs at least one draw")
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.size

    @staticmethod
    def from_draws(draws: np.ndarray, side: str = "one_sided") -> "MaxStatSample":
        return MaxStatSample(max_statistic(draws, side))

    def cdf(self, x) -> np.ndarray:
        """Right-continuous empirical CDF at the points x."""
        return np.searchsorted(self.values, np.asarray(x, dtype=float),
                               side="right") / self.size


def scaled_sum_blocks(spec: DistributionSpec, n: int, reps: int, seed: int):
    """Yield ``(rows, draws)``: the ``reps`` draws of W = n^{-1/2} sum_i X_i
    by :func:`sample_scaled_sums` in consecutive :func:`blocks`, each block
    from its own seed.  A block's scaled-sum draw holds at most
    ``_DRAW_ARRAYS`` arrays of its size, so memory stays near
    ``BLOCK_FLOATS`` whatever ``d`` is, provided the caller drops each
    block before asking for the next."""
    for idx, rows in blocks(reps, _DRAW_ARRAYS * spec.dim):
        yield rows, sample_scaled_sums(spec, n, rows.stop - rows.start,
                                       derive_seed(seed, 24, idx))


def max_stat_sample(spec: DistributionSpec, n: int, reps: int, seed: int,
                    side: str = "one_sided") -> MaxStatSample:
    """``reps`` draws of the max statistic of W = n^{-1/2} sum_i X_i.

    Where :func:`maxlaw.law_of` gives ``spec`` a law with a sampler, each
    draw inverts its CDF at ``law.variates`` uniforms.  Otherwise W is drawn
    by :func:`scaled_sum_blocks`, and only each block's row maxima are kept.
    """
    law = maxlaw.law_of(spec, n, side)
    if hasattr(law, "sample"):
        u = substream(seed, 23).random((law.variates, reps))
        return MaxStatSample(law.sample(*u))
    out = np.empty(reps)
    for rows, draws in scaled_sum_blocks(spec, n, reps, seed):
        out[rows] = max_statistic(draws, side)
        del draws  # before the next block is drawn
    return MaxStatSample(out)


def ks_distance(a: MaxStatSample, b: MaxStatSample) -> float:
    """Two-sample Kolmogorov distance: sup over pooled jump points."""
    return ks_distance_with_se(a, b)[0]


def ks_distance_with_se(a: MaxStatSample, b: MaxStatSample) -> tuple[float, float]:
    """Two-sample Kolmogorov distance plus the binomial standard error of
    the CDF difference at the pooled point where the sup is attained.

    Both samples are sorted, so one stable merge of them gives, by a running
    count of the points from ``a``, both empirical CDFs at every pooled
    point; each is read at the last point of its run of ties.
    """
    pooled = np.concatenate([a.values, b.values])
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]
    last = np.flatnonzero(np.append(pooled[1:] != pooled[:-1], True))
    # each array is dropped once read, so at most four pooled-size arrays
    # are alive at once
    del pooled
    count_a = np.cumsum(order < a.size, out=order)[last]
    del order
    count_b = last + 1 - count_a
    del last
    fa, fb = count_a / a.size, count_b / b.size
    del count_a, count_b
    gaps = np.abs(fa - fb)
    k = int(np.argmax(gaps))
    se = math.sqrt(fa[k] * (1 - fa[k]) / a.size + fb[k] * (1 - fb[k]) / b.size)
    return float(gaps[k]), se


def ks_two_sample_critical(ra: int, rb: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((ra + rb) / (ra * rb))


def rect_family_distance(draws_a: np.ndarray, draws_b: np.ndarray,
                         family: str | tuple = "one_sided_max") -> float:
    """Max over a rectangle family of |P_hat_A(rect) - P_hat_B(rect)|.

    ``family`` is "one_sided_max", "two_sided_max", or
    ``("random_rects", count, seed)``.  The max families reduce exactly to
    the two-sample KS distance on the corresponding max statistics.  The
    random family mixes equal-threshold one-sided rectangles with general
    product rectangles whose endpoints are drawn from the pooled central
    99.8% range, so it contains (a grid of) the one-sided family.
    """
    draws_a = np.atleast_2d(draws_a)
    draws_b = np.atleast_2d(draws_b)
    if draws_a.shape[1] != draws_b.shape[1]:
        raise ValueError("draw dimensions differ")
    if family == "one_sided_max":
        return ks_distance(MaxStatSample.from_draws(draws_a, "one_sided"),
                           MaxStatSample.from_draws(draws_b, "one_sided"))
    if family == "two_sided_max":
        return ks_distance(MaxStatSample.from_draws(draws_a, "two_sided"),
                           MaxStatSample.from_draws(draws_b, "two_sided"))
    if isinstance(family, tuple) and family[0] == "random_rects":
        _, count, seed = family
        return _random_rects_distance(draws_a, draws_b, int(count), int(seed))
    raise ValueError(f"unknown family {family!r}")


def _random_rects_distance(draws_a, draws_b, count, seed) -> float:
    d = draws_a.shape[1]
    rng = substream(seed, 21)
    pooled = np.concatenate([draws_a, draws_b], axis=0)
    lo = np.quantile(pooled, 0.001, axis=0)
    hi = np.quantile(pooled, 0.999, axis=0)

    n_one = count // 2
    max_pool = max_statistic(pooled)
    thresholds = rng.uniform(max_pool.min(), max_pool.max(), size=n_one)

    n_gen = count - n_one
    u = rng.uniform(lo, hi, size=(n_gen, 2, d))
    lowers = np.minimum(u[:, 0], u[:, 1])
    uppers = np.maximum(u[:, 0], u[:, 1])
    # one-sided coordinates: drop the lower constraint with probability 1/3
    lowers[rng.random((n_gen, d)) < 1.0 / 3.0] = -np.inf

    best = 0.0
    # one-sided equal-threshold rectangles reduce to the max statistic
    if n_one:
        fa = MaxStatSample.from_draws(draws_a).cdf(thresholds)
        fb = MaxStatSample.from_draws(draws_b).cdf(thresholds)
        best = float(np.max(np.abs(fa - fb)))

    # a block of rectangles broadcasts against every draw of both samples
    for _, sl in blocks(n_gen, len(pooled) * d):
        in_a = np.all((draws_a[:, None, :] > lowers[sl]) &
                      (draws_a[:, None, :] <= uppers[sl]), axis=2)
        in_b = np.all((draws_b[:, None, :] > lowers[sl]) &
                      (draws_b[:, None, :] <= uppers[sl]), axis=2)
        diff = np.abs(in_a.mean(axis=0) - in_b.mean(axis=0))
        best = max(best, float(diff.max(initial=0.0)))
    return best


def anticoncentration_probe(sigma: CovarianceModel, eps: float, reps: int,
                            grid: int = 512, seed: int = 0) -> float:
    """Max over a z-grid of P(max Z <= z + eps) - P(max Z <= z).

    The grid spans the central 99.9% of the max-statistic distribution with
    ``grid`` points; all variances must be >= 1 for the probe to be
    meaningful against the eps*sqrt(log d) anti-concentration shape.
    """
    if np.any(sigma.diagonal < 1.0 - 1e-12):
        raise ValueError("anticoncentration probe requires all variances >= 1")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    stat = max_stat_sample(DistributionSpec.gaussian(sigma), 1, reps,
                           seed).values
    z = np.linspace(np.quantile(stat, 0.0005), np.quantile(stat, 0.9995), grid)
    upper = np.searchsorted(stat, z + eps, side="right")
    lower = np.searchsorted(stat, z, side="right")
    return float(np.max(upper - lower)) / reps
