"""Kolmogorov distances of max statistics, and the samples they are taken on.

The sup over all rectangles is not Monte-Carlo estimable uniformly, so
distances are taken over the max rectangle families, on which they reduce
to Kolmogorov distances of the max statistic: one-sample against an exact
law where the reference has one, two-sample otherwise.  Every estimate
therefore lower-bounds the full rectangle-class distance.
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


def ks_distance(a: MaxStatSample, b) -> float:
    """Kolmogorov distance of ``a`` to a sample or a law ``b``: the first
    value of :func:`ks_distance_with_se`."""
    return ks_distance_with_se(a, b)[0]


def ks_distance_with_se(a: MaxStatSample, b) -> tuple[float, float]:
    """Kolmogorov distance of the empirical CDF of ``a`` to that of a second
    sample ``b``, or to the CDF of a continuous law ``b`` (any object with
    ``cdf``), plus the binomial standard error of the CDF difference at the
    point where the sup is attained.

    Against a law F the distance is one-sample, taken by
    :func:`_ks_to_law`, and the standard error is sqrt(F (1 - F) / m).

    Against a sample: between consecutive distinct values v_(k-1) < v_k of
    the smaller sample s, F_s is constant and F_L of the other sample L
    does not decrease, so |F_a - F_b| there peaks at v_(k-1) or at L's last
    point below v_k; past the last v it only falls.  So binary searches in
    L for the m values v_k give the sup in O(m log |L|) with no pooled
    array, and equal gaps go to the first in pooled order, as in a merge:
    the result is the merge's.
    """
    if not isinstance(b, MaxStatSample):
        return _ks_to_law(a, b)
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


def _ks_to_law(a: MaxStatSample, law) -> tuple[float, float]:
    """One-sample Kolmogorov distance sup_x |F_a(x) - F(x)| of the m draws
    of ``a`` to a continuous law F.

    With C_k the count of draws <= v_k at the distinct values v_1 < ... <
    v_K of ``a``, the gap peaks at some v_k, as C_k/m - F(v_k), or just
    below it, as F(v_k) - C_(k-1)/m; as F does not decrease, the opposite
    signs are bounded by the neighbouring candidates.  So F is taken once
    per v_k (at most n + 1 times on a step law of W).  Equal gaps go to the
    first point in x order, the one below v_k before v_k itself.
    """
    v, m = a.values, a.size
    count = np.flatnonzero(np.append(v[1:] != v[:-1], True))  # tie run ends
    f = law.cdf(v[count])
    count += 1                                    # C_k
    gaps = count / m
    gaps -= f                                     # C_k/m - F(v_k)
    # the candidate at v_k is point 2k + 1 in x order, the one below it 2k
    k = int(np.argmax(gaps))
    at = (gaps[k], -2 * k - 1, f[k])
    np.divide(count[:-1], m, out=gaps[1:])
    gaps[0] = 0.0
    np.subtract(f, gaps, out=gaps)                # F(v_k) - C_(k-1)/m
    k = int(np.argmax(gaps))
    below = (gaps[k], -2 * k, f[k])
    dist, _, fk = max(at, below)  # equal gaps: the earlier point wins
    return float(dist), math.sqrt(fk * (1 - fk) / m)


def ks_two_sample_critical(ra: int, rb: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at level alpha; at
    ``rb = math.inf`` (a law in place of the second sample) it is the
    one-sample value c(alpha) / sqrt(ra)."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    if math.isinf(rb):
        return c / math.sqrt(ra)
    return c * math.sqrt((ra + rb) / (ra * rb))


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
