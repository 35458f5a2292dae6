"""Kolmogorov distances of max statistics, and the samples they are taken on.

The sup over all rectangles is not Monte-Carlo estimable uniformly, so
distances are taken over the max rectangle families, on which they reduce
to Kolmogorov distances of the max statistic: one-sample against an exact
law where the reference has one, two-sample otherwise.  Every estimate
therefore lower-bounds the full rectangle-class distance.  Both are one
sweep, :func:`maxlaw.step_sup`, of a step CDF against a nondecreasing CDF
at the step CDF's distinct values; a law's CDF is taken only at those
where the sup can lie (:func:`maxlaw.bracketed_cdf`).
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

# knot strides of the one-sample KS's distinct values in maxlaw.bracketed_cdf
_KS_STRIDES = (64, 8)


def max_statistic(draws: np.ndarray, side: str = "one_sided") -> np.ndarray:
    """Per-row max statistic, unsorted: max_j draw_j ("one_sided") or
    max_j |draw_j| ("two_sided")."""
    if side not in ("one_sided", "two_sided"):
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
    second sort.  A step law inverts them by counts,
    ``law.sample_sorted``: each atom is repeated by the number of uniforms
    between two table entries, with no lookup per draw.  Otherwise W is
    drawn by :func:`sample_scaled_sums` in consecutive :func:`blocks`, each
    from its own seed, and only each block's row maxima are kept, so
    memory stays near ``BLOCK_FLOATS`` whatever ``d`` is.
    """
    if law is _LOOK_UP:
        law = maxlaw.law_of(spec, n)
    if hasattr(law, "sample"):
        u = substream(seed, 23).random((law.variates, reps))
        if law.variates == 1:
            u.sort(axis=1)
            # a step law counts its sorted uniforms per atom
            return MaxStatSample(getattr(law, "sample_sorted",
                                         law.sample)(u[0]))
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

    The step CDF is that of ``a``, or of the smaller sample when both are
    samples, and :func:`maxlaw.step_sup` takes the sup at its distinct
    values.  In a sample, the other CDF is two binary searches per value,
    right and left of it, so no pooled array is built.  A law's ``b.cdf``
    is taken only at the values where :func:`maxlaw.bracketed_cdf` finds
    the sup may lie, with knots every ``_KS_STRIDES[0]``-th value; it
    returns the same distance and standard error, bit for bit, as
    ``b.cdf`` at every value, provided ``b.cdf`` gives a point the same
    value whichever points share the call.  Equal gaps go to the first
    point in x order, as in a merge of two samples.  The standard error is
    sqrt(F (1 - F) / m) against a law, with m the size of ``a``, and the
    root of the sum of both samples' binomial variances between two
    samples.
    """
    two_sample = isinstance(b, MaxStatSample)
    if two_sample and b.size < a.size:
        a, b = b, a
    v = a.values
    count = np.flatnonzero(np.append(v[1:] != v[:-1], True))  # tie run ends
    v = v[count]
    count += 1                                    # #a <= v_k
    levels = count / a.size
    if two_sample:
        at = np.searchsorted(b.values, v, side="right") / b.size
        below = np.searchsorted(b.values, v, side="left") / b.size
    else:
        at = below = maxlaw.bracketed_cdf(b.cdf, v, levels, _KS_STRIDES)
    dist, fa, fb = maxlaw.step_sup(levels, at, below)
    if two_sample:
        var = fa * (1 - fa) / a.size + fb * (1 - fb) / b.size
    else:
        var = fb * (1 - fb) / a.size
    return dist, math.sqrt(var)


def ks_two_sample_critical(ra: int, rb: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS critical value at level alpha; at
    ``rb = math.inf`` (a law in place of the second sample) it is the
    one-sample value c(alpha) / sqrt(ra)."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    if math.isinf(rb):
        return c / math.sqrt(ra)
    return c * math.sqrt((ra + rb) / (ra * rb))


def anticoncentration_probe(d: int, eps: float, reps: int,
                            seed: int) -> float:
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
