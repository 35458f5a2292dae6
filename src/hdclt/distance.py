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

_PROBE_GRID = 512  # z points of the anticoncentration probe's grid

# the max rectangle families, each the side of the max statistic it reduces to
FAMILIES = {"one_sided_max": "one_sided", "two_sided_max": "two_sided"}


def max_statistic(draws: np.ndarray, side: str = "one_sided") -> np.ndarray:
    """Per-row max statistic, unsorted: max_j draw_j ("one_sided") or
    max_j |draw_j| ("two_sided")."""
    if side not in FAMILIES.values():
        raise ValueError(f"unknown side {side!r}")
    draws = np.atleast_2d(draws)
    return np.max(np.abs(draws), axis=1) if side == "two_sided" else np.max(draws, axis=1)


@dataclass(frozen=True)
class MaxStatSample:
    """Sorted Monte Carlo draws of a max statistic (an empirical CDF).

    ``values`` is read-only.  An input that is already a sorted 1-D float
    array is kept as it is, not copied, and is itself marked read-only;
    any other input is sorted into a new array, and the caller's is left
    untouched.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        # NaN compares False, so an array holding one is re-sorted
        if v.ndim != 1 or not np.all(v[:-1] <= v[1:]):
            v = np.sort(v.ravel())
        if v.size < 1:
            raise ValueError("MaxStatSample needs at least one draw")
        v.flags.writeable = False
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


# max_stat_sample's default law: look it up, since None means "no law"
_LOOK_UP = object()


def max_stat_sample(spec: DistributionSpec, n: int, reps: int, seed: int,
                    law=_LOOK_UP) -> MaxStatSample:
    """``reps`` draws of the max statistic max_j W_j of W = n^{-1/2}
    sum_i X_i.

    ``law`` is ``maxlaw.law_of(spec, n)``, None included, and is
    looked up here when not given; a caller that needs the law itself
    passes it, so it is built once.

    Where the law has a sampler, each draw inverts its CDF at
    ``law.variates`` uniforms.  A one-variate law's uniforms are sorted
    first: inversion does not decrease, so its draws come out sorted, the
    same values as sorting the draws of the unsorted uniforms, and need no
    second sort.  Otherwise W is drawn by :func:`sample_scaled_sums` in
    consecutive :func:`blocks`, each from its own seed, and only each
    block's row maxima are kept, so memory stays near ``BLOCK_FLOATS``
    whatever ``d`` is.
    """
    if law is _LOOK_UP:
        law = maxlaw.law_of(spec, n)
    if hasattr(law, "sample"):
        u = substream(seed, 23).random((law.variates, reps))
        if law.variates == 1:
            u.sort(axis=1)
        return MaxStatSample(law.sample(*u))
    out = np.empty(reps)
    for idx, rows in blocks(reps, _DRAW_ARRAYS * spec.dim):
        # one expression, so no block's draw outlives its maxima
        out[rows] = max_statistic(sample_scaled_sums(
            spec, n, rows.stop - rows.start, derive_seed(seed, 24, idx)))
    return MaxStatSample(out)


def ks_distance(a: MaxStatSample, b: MaxStatSample) -> float:
    """Two-sample Kolmogorov distance: sup over pooled jump points."""
    return ks_distance_with_se(a, b)[0]


def ks_distance_with_se(a: MaxStatSample, b: MaxStatSample) -> tuple[float, float]:
    """Two-sample Kolmogorov distance plus the binomial standard error of
    the CDF difference at the pooled point where the sup is attained.

    Between consecutive distinct values v_(k-1) < v_k of the smaller sample
    s, F_s is constant and F_L of the other sample L does not decrease, so
    |F_a - F_b| there peaks at v_(k-1) or at L's last point below v_k; past
    the last v it only falls.  So binary searches in L for the m values v_k
    give the sup in O(m log |L|) with no pooled array, and equal gaps go to
    the first in pooled order, as in a merge: the result is the merge's.
    """
    s, big = (a, b) if a.size <= b.size else (b, a)
    sv, lv = s.values, big.values
    count = np.flatnonzero(np.append(sv[1:] != sv[:-1], True))
    v = sv[count]
    count += 1                                    # #s <= v_k
    right = np.searchsorted(lv, v, side="right")  # #L <= v_k
    tied = lv[right - 1] == v  # v_k is in L (if right = 0, lv[-1] > v_k)
    left = right.copy()                           # #L < v_k
    left[tied] = np.searchsorted(lv, v[tied], side="left")
    gaps, best = v, []  # v is read no more: its buffer takes the gaps
    # the candidate at v_k is pooled point 2k + 1, the one below it 2k
    for pos, cs, cl in ((1, count, right), (0, np.append(0, count[:-1]), left)):
        np.divide(cs, s.size, out=gaps)
        gaps -= cl / big.size
        np.abs(gaps, out=gaps)
        if pos == 0:  # no point of L between v_(k-1) and v_k: no candidate
            gaps[left == np.append(0, right[:-1])] = -1.0
        k = int(np.argmax(gaps))
        best.append((gaps[k], -2 * k - pos, cs[k], cl[k]))
    dist, _, cs, cl = max(best)  # equal gaps: the earlier pooled point wins
    fs, fl = cs / s.size, cl / big.size
    se = math.sqrt(fs * (1 - fs) / s.size + fl * (1 - fl) / big.size)
    return float(dist), se


def ks_two_sample_critical(ra: int, rb: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((ra + rb) / (ra * rb))


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
    fa, fb = (MaxStatSample.from_draws(x).cdf(thresholds)
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


def anticoncentration_probe(d: int, eps: float, reps: int,
                            seed: int = 0) -> float:
    """Max over a z-grid of P(max Z <= z + eps) - P(max Z <= z), Z ~ N(0, I_d).

    The grid spans the central 99.9% of the max-statistic distribution with
    ``_PROBE_GRID`` points.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    stat = max_stat_sample(DistributionSpec.gaussian(
        CovarianceModel.identity(d)), 1, reps, seed).values
    z = np.linspace(*np.quantile(stat, [0.0005, 0.9995]), _PROBE_GRID)
    upper = np.searchsorted(stat, z + eps, side="right")
    lower = np.searchsorted(stat, z, side="right")
    return float(np.max(upper - lower)) / reps
