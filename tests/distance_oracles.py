"""Test-only oracles of the distance layer.

Rectangle-family distances between two draw matrices (the null calibration
of C9 runs them), the empirical CDF of a max-statistic sample, a
brute-force one-sample Kolmogorov distance that
:func:`hdclt.distance.ks_distance_with_se` is checked against, and the
anticoncentration probe taken on every draw, which
:func:`hdclt.distance.anticoncentration_probe` is checked against.  No
experiment runs them, so they live beside the tests that do.
"""

import math

import numpy as np

from hdclt.distance import (_PROBE_GRID, MaxStatSample, ks_distance,
                            max_stat_sample, max_statistic)
from hdclt.matcore import CovarianceModel
from hdclt.sampler import DistributionSpec, blocks, substream

# the max rectangle families, each the side of the max statistic it reduces to
FAMILIES = {"one_sided_max": "one_sided", "two_sided_max": "two_sided"}


def empirical_cdf(sample: MaxStatSample, x) -> np.ndarray:
    """Right-continuous empirical CDF of ``sample`` at the points x."""
    return np.searchsorted(sample.values, np.asarray(x, dtype=float),
                           side="right") / sample.size


def brute_force_ks_to_law(values, cdf) -> tuple[float, float]:
    """sup_x |F_m(x) - F(x)| of the m draws ``values`` to a continuous law
    with CDF ``cdf``, taken on both sides of every draw in sorted order
    (just below x_i, then at x_i), with ``cdf`` evaluated at each draw and
    the empirical CDF counted by binary search.  The first point of largest
    gap gives the standard error sqrt(F (1 - F) / m)."""
    x = np.sort(np.asarray(values, dtype=float))
    m = x.size
    f = cdf(x)
    below = np.abs(f - np.searchsorted(x, x, side="left") / m)
    at = np.abs(np.searchsorted(x, x, side="right") / m - f)
    gaps = np.column_stack([below, at]).ravel()  # x order: below, then at
    k = int(np.argmax(gaps))
    fk = f[k // 2]
    return float(gaps[k]), math.sqrt(fk * (1 - fk) / m)


def full_inversion_probe(d: int, eps: float, reps: int, seed: int) -> float:
    """The anticoncentration probe on all ``reps`` draws of max Z, Z ~
    N(0, I_d): every sorted uniform inverted, the grid ends by
    ``np.quantile`` and each window counted by binary search."""
    stat = max_stat_sample(DistributionSpec.gaussian(
        CovarianceModel.identity(d)), 1, reps, seed).values
    z = np.linspace(*np.quantile(stat, [0.0005, 0.9995]), _PROBE_GRID)
    upper = np.searchsorted(stat, z + eps, side="right")
    lower = np.searchsorted(stat, z, side="right")
    return float(np.max(upper - lower)) / reps


def rect_family_distance(draws_a: np.ndarray, draws_b: np.ndarray,
                         family: str | tuple = "one_sided_max") -> float:
    """Max over a rectangle family of |P_hat_A(rect) - P_hat_B(rect)|.

    ``family`` is one of :data:`FAMILIES` or ``("random_rects", count,
    seed)``.  The max families reduce exactly to the two-sample KS distance
    on the corresponding max statistics.  The random family mixes
    equal-threshold one-sided rectangles with general product rectangles
    whose endpoints are drawn from the pooled central 99.8% range, so it
    contains (a grid of) the one-sided family.
    """
    draws_a, draws_b = np.atleast_2d(draws_a, draws_b)
    if draws_a.shape[1] != draws_b.shape[1]:
        raise ValueError("draw dimensions differ")
    if isinstance(family, tuple) and family[0] == "random_rects":
        _, count, seed = family
        return _random_rects_distance(draws_a, draws_b, int(count), int(seed))
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return ks_distance(MaxStatSample.from_draws(draws_a, FAMILIES[family]),
                       MaxStatSample.from_draws(draws_b, FAMILIES[family]))


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

    # one-sided equal-threshold rectangles reduce to the max statistic
    fa, fb = (empirical_cdf(MaxStatSample.from_draws(x), thresholds)
              for x in (draws_a, draws_b))
    best = float(np.max(np.abs(fa - fb), initial=0.0))
    # a block of rectangles broadcasts against every draw of both samples
    for _, sl in blocks(n_gen, len(pooled) * d):
        in_a, in_b = (np.all((x[:, None, :] > lowers[sl])
                             & (x[:, None, :] <= uppers[sl]), axis=2).mean(axis=0)
                      for x in (draws_a, draws_b))
        diff = np.abs(in_a - in_b)
        best = max(best, float(diff.max(initial=0.0)))
    return best
