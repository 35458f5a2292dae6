"""Exact laws of max statistics max_j W_j whose coordinates factor.

When the d coordinates of W are i.i.d., P(max_j W_j <= x) is the d-th power
of one marginal CDF, so the law of the max statistic is closed-form and can
be sampled by inverting it: one uniform per replication in place of d
variates.  The equicorrelated Gaussian with rho >= 0 is a one-factor mixture
of such laws and takes two uniforms per replication.  The local-means
coordinates are dependent multinomial cell counts, but their max has a
closed form too (Levin's Poisson representation) and is inverted the
same way.

Each law is a small frozen record with ``cdf(x)``.  A law that allows exact
inversion also has ``sample(*u)``, which maps ``variates`` arrays of
uniforms from ``Generator.random`` to draws of the max statistic.
:func:`law_of` finds the law of a distribution spec's max statistic.
:func:`step_sup` is the one sweep for the sup of a step CDF against a
nondecreasing CDF: the exact distance of a law with atoms,
:func:`sup_distance`, and every Kolmogorov distance of ``distance`` take it.
:func:`bracketed_cdf` takes a law's CDF only where such a sup can lie;
for that, every law's ``cdf`` gives a point the same bits whichever
points share the call.  :func:`sample_counts` counts the draws of a
continuous one-variate law at or below given points from its sorted
uniforms, inverting two uniforms per point rather than all of them, the
continuous counterpart of a step law's ``sample_sorted``;
:func:`sample_quantiles` reads numpy's linear quantiles of those draws the
same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.special import (bdtr, bdtrc, gammaln, log_ndtr, ndtr, ndtri,
                           xlog1py, xlogy)

from .sampler import (DistributionSpec, _count_sums, blocks,
                      local_means_support, two_point_support)
from .smoothing import _gauss_legendre

QUADRATURE_NODES = 64
# |g| bound of the equicorrelated CDF's window: Phi(-9) is about 1e-19
_G_MAX = 9.0
# smallest positive value of Generator.random; u = 0, which the quantiles
# send to -inf, is read as this grid point
_U_MIN = 2.0**-53
# knot strides of sup_distance's quantile grid in bracketed_cdf
_GRID_STRIDES = (8,)
# how far below the largest gap a block's bound must lie for bracketed_cdf
# to pass it over: far above the falls of a computed CDF where the law
# rises (the equicorrelated quadrature falls by up to 9e-16 between
# neighbouring points)
_BRACKET_SLACK = 2.0**-30


def _open_unit(u) -> np.ndarray:
    """A float copy of u with 0 raised to the grid's first positive point."""
    t = np.array(u, dtype=float)
    np.maximum(t, _U_MIN, out=t)
    return t


def _upper_tail(u, d: int) -> np.ndarray:
    """1 - u**(1/d) as -expm1(log(u)/d), which stays precise while
    u**(1/d) nears 1, where the max statistic's upper tail lies."""
    t = _open_unit(u)
    np.log(t, out=t)
    t /= d
    np.expm1(t, out=t)
    np.negative(t, out=t)
    return t


def _binom_pmf(k, n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities of the counts k, from the log-gamma form
    of the binomial coefficient."""
    return np.exp(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                  + xlogy(k, p) + xlog1py(n - k, -p))


@dataclass(frozen=True)
class IsotropicGaussianMax:
    """max_j Z_j of Z ~ N(0, sigma^2 I_d)."""

    d: int
    sigma: float = 1.0
    variates: ClassVar[int] = 1

    def __post_init__(self):
        if self.d < 1 or not self.sigma > 0:
            raise ValueError("need d >= 1 and sigma > 0")

    def cdf(self, x) -> np.ndarray:
        z = np.asarray(x, dtype=float) / self.sigma
        return np.exp(self.d * log_ndtr(z))

    def sample(self, u) -> np.ndarray:
        """Draws at the uniforms u.  They do not decrease on ascending u,
        and a point's draw has the same bits whichever points share the
        call, as :func:`sample_counts` needs."""
        # P(one coordinate above the draw x) = Phi(-x/sigma) = 1 - u^(1/d)
        t = _upper_tail(u, self.d)
        ndtri(t, out=t)
        t *= -self.sigma
        return t


@dataclass(frozen=True)
class EquicorrelatedGaussianMax:
    """max_j Z_j of Z ~ N(0, sigma^2 ((1 - rho) I_d + rho 11^T)), 0 < rho < 1.

    Z_j = sigma (sqrt(rho) G + sqrt(1 - rho) Y_j) with G, Y_1..Y_d i.i.d.
    N(0, 1), so the max is sigma (sqrt(rho) G + sqrt(1 - rho) M) with M the
    max of the Y_j: two variates per draw, and no Cholesky factor.

    The CDF integrates P(M <= (x/sigma - sqrt(rho) g)/sqrt(1 - rho)) against
    the density of G by ``QUADRATURE_NODES``-point Gauss-Legendre quadrature over the
    window of g where that probability lies strictly between 2^-53 and
    1 - 2^-53 (within |g| <= 9); below the window it is 1, so the part of
    the integral there is Phi(window start).  Unlike Gauss-Hermite over all
    of g, which misses the probability's step once rho nears 1 (errors of
    1e-3 at rho = 0.9, d = 10), the window keeps the step resolved: 64 and
    96 nodes agree to 1e-14 for d up to 1000 and rho up to 0.999.  Each
    point's quadrature is its own dot product with the weights
    (``np.vecdot``), not one matrix-vector product over all points, whose
    summation order may change with the number of points; so a point's
    CDF has the same bits whichever points share the call, as
    :func:`bracketed_cdf` needs.
    """

    d: int
    rho: float
    sigma: float = 1.0
    variates: ClassVar[int] = 2

    def __post_init__(self):
        if self.d < 1 or not 0.0 < self.rho < 1.0 or not self.sigma > 0:
            raise ValueError("need d >= 1, 0 < rho < 1 and sigma > 0")

    def cdf(self, x) -> np.ndarray:
        r, q = math.sqrt(self.rho), math.sqrt(1.0 - self.rho)
        a = np.asarray(x, dtype=float)[..., None] / self.sigma
        m_lo, m_hi = IsotropicGaussianMax(self.d).sample([0.0, 1.0 - _U_MIN])
        lo = np.clip((a - q * m_hi) / r, -_G_MAX, _G_MAX)
        hi = np.clip((a - q * m_lo) / r, -_G_MAX, _G_MAX)
        t, w = _gauss_legendre(QUADRATURE_NODES)
        half = 0.5 * (hi - lo)
        g = lo + half * (t + 1.0)
        f = np.exp(self.d * log_ndtr((a - r * g) / q) - 0.5 * g * g)
        inside = half[..., 0] * np.vecdot(f, w) / math.sqrt(2.0 * math.pi)
        return ndtr(lo[..., 0]) + inside

    def sample(self, u, v) -> np.ndarray:
        """u drives the common factor G, v the max of the Y_j."""
        x = IsotropicGaussianMax(self.d).sample(v)
        x *= math.sqrt(1.0 - self.rho)
        common = _open_unit(u)
        ndtri(common, out=common)
        common *= math.sqrt(self.rho)
        x += common
        x *= self.sigma
        return x


class _StepLaw:
    """CDF and inversion of a law on the ascending ``atoms``, whose CDF at
    ``atoms[i]`` is ``table[i]``."""

    def cdf(self, x) -> np.ndarray:
        below = np.searchsorted(self.atoms, np.asarray(x, dtype=float),
                                side="right")
        return np.concatenate([[0.0], self.table])[below]

    def sample(self, u) -> np.ndarray:
        # P(index <= i) = P(u < table[i]) = table[i]; a last entry rounded
        # below 1 must not send u past the last atom
        idx = np.searchsorted(self.table, u, side="right")
        np.minimum(idx, self.table.size - 1, out=idx)
        return self.atoms[idx]

    def sample_sorted(self, u) -> np.ndarray:
        """:meth:`sample` of ascending uniforms u, which comes out ascending:
        the count of u below ``table[i]`` is the number of draws at or
        below ``atoms[i]``, so each atom is repeated by the difference of
        two counts, with no lookup per draw."""
        below = np.searchsorted(u, self.table[:-1], side="left")
        return np.repeat(self.atoms, np.diff(below, prepend=0,
                                             append=len(u)))


@dataclass(frozen=True)
class TwoPointMax(_StepLaw):
    """Max statistic of W = n^{-1/2} sum_i X_i with i.i.d. two-point
    coordinates: W_j = (K a + (n - K) b)/sqrt(n), K ~ Binomial(n, 1/B^2).

    ``atoms`` are the n + 1 values of W_j in ascending order, and
    ``table[i]`` is the max statistic's CDF at ``atoms[i]``, the d-th power
    of the binomial CDF at i.
    """

    B: float
    n: int
    d: int
    variates: ClassVar[int] = 1
    atoms: np.ndarray = field(init=False, repr=False, compare=False)
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        a, b, p = two_point_support(self.B)
        k = np.arange(self.n + 1)
        # by the count transform; ascending in k, since a > b
        object.__setattr__(self, "atoms", _count_sums(k, self.n, a, b))
        object.__setattr__(self, "table", bdtr(k, self.n, p) ** self.d)


@dataclass(frozen=True)
class LocalMeansMax(_StepLaw):
    """Max statistic of the many-local-means scaled sum: each of
    n observations falls in one of d equally likely cells, and
    W_j = (N_j hi + (n - N_j) lo)/sqrt(n) for the cell counts N_j.

    W_j increases with N_j, so the max statistic's CDF at ``atoms[m]``, the
    value of a coordinate with count m, is P(max_j N_j <= m).  Levin's
    Poisson representation (Ann. Statist. 9, 1981) gives this multinomial
    probability as P(S = n)/P(Poisson(n) = n), where S is the sum of d
    independent Poisson(n/d) counts, each with its pmf cut off above m (not
    renormalised).  P(S = n) is read off one FFT power of the cut pmf per
    m, so building the table costs about (m_max - n/d) FFTs of length
    about d m_max, with m_max a few Poisson(n/d) deviations above n/d.
    The table is exactly 0 below ceil(n/d), where some count must exceed
    m, and exactly 1 from the first m with d P(N_1 > m) < 2^-53, a union
    bound on P(max_j N_j > m).  The package draws no multinomial counts:
    this law is the only sampler of the family's max statistic.
    """

    n: int
    d: int
    variates: ClassVar[int] = 1
    atoms: np.ndarray = field(init=False, repr=False, compare=False)
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.d < 2:
            raise ValueError("need n >= 1 and d >= 2")
        n, d = self.n, self.d
        hi, lo, p = local_means_support(d)
        k = np.arange(n + 1)
        object.__setattr__(self, "atoms", _count_sums(k, n, hi, lo))
        first = -(-n // d)
        # bdtrc(n, n, p) = 0, so some m qualifies
        last = first + int(np.argmax(d * bdtrc(k[first:], n, p) < _U_MIN))
        lam = n / d
        cut = np.exp(xlogy(k, lam) - lam - gammaln(k + 1))
        # the d-fold convolution has terms up to index d m; a transform of
        # at least this length wraps none of them onto index n for any
        # m < last, and a power of two keeps it off pocketfft's slow path
        # for prime lengths
        size = 1 << (max(n + 1, d * (last - 1) - n + 1) - 1).bit_length()
        table = np.zeros(n + 1)
        for m in range(first, last):
            power = np.fft.rfft(cut[:m + 1], size) ** d
            table[m] = np.fft.irfft(power, size)[n]
        table /= math.exp(xlogy(n, n) - n - gammaln(n + 1))
        table[last:] = 1.0
        # rounding in the transforms can leave an entry just outside [0, 1]
        # or below its predecessor
        np.clip(table, 0.0, 1.0, out=table)
        np.maximum.accumulate(table, out=table)
        object.__setattr__(self, "table", table)


def two_point_marginal_tail(B: float, n: int, x: float) -> float:
    """Exact P(W_1 > x) for the two-point family by binomial enumeration.

    W_1 = (K a + (n - K) b)/sqrt(n) with K ~ Binomial(n, p) is a monotone
    transform of the count K, so the tail is an exact binomial sum.
    """
    a, b, p = two_point_support(B)
    k = np.arange(n + 1)
    w = _count_sums(k, n, a, b)
    return float(_binom_pmf(k[w > x], n, p).sum())


@dataclass(frozen=True)
class RademacherGaussianMax:
    """Max statistic of the Rademacher scaled sum plus unit Gaussian noise,
    W_j = S_j/sqrt(n) + G_j with i.i.d. coordinates (CDF only).

    The coordinate law is a Binomial(n, 1/2) mixture of unit normals, so
    the max CDF is the d-th power of an exact finite sum.  It is the
    noise-free oracle of the smooth zero-skewness rate, whose distances
    (about 5e-4 at n=100, d=20) sit below the Monte Carlo resolution of
    affordable replication counts.
    """

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        out = np.empty(flat.size)
        k = np.arange(self.n + 1)
        centers = _count_sums(k, self.n, 1.0, -1.0)
        pk = _binom_pmf(k, self.n, 0.5)
        # x is taken in blocks, so the (points, n + 1) arrays of terms stay
        # within BLOCK_FLOATS however large n is
        for _, rows in blocks(flat.size, 3 * (self.n + 1)):
            inside = ndtr(flat[rows, None] - centers)
            inside *= pk
            out[rows] = inside.sum(axis=-1)
        return (out ** self.d).reshape(x.shape)


def _gaussian_law(cov):
    """The law of N(0, cov)'s max statistic when cov has equal positive
    variances and is diagonal or nonnegatively equicorrelated, else None."""
    diag = cov.diagonal
    if not (diag[0] > 0 and np.all(diag == diag[0])):
        return None
    off = cov.entries[~np.eye(cov.dim, dtype=bool)]
    if not np.any(off):
        return IsotropicGaussianMax(cov.dim, math.sqrt(diag[0]))
    rho = float(off[0]) / diag[0]
    if np.all(off == off[0]) and 0.0 < rho < 1.0:
        return EquicorrelatedGaussianMax(cov.dim, rho, math.sqrt(diag[0]))
    return None


def law_of(spec: DistributionSpec, n: int):
    """The exact law of the max statistic max_j W_j of W = n^{-1/2} sum_i
    X_i for ``spec``, or None when it has no law here: unequal variances,
    negative or unequal correlation and the uniform family.  The law of the
    quasi-Gaussian family, +-1 coordinates plus unit noise, has a CDF but
    no sampler."""
    if spec.kind == "two_point":
        return TwoPointMax(spec.B, n, spec.dim)
    if spec.kind == "local_means":
        return LocalMeansMax(n, spec.dim)
    if spec.kind == "gaussian":
        return _gaussian_law(spec.cov)
    if spec.kind == "quasi_gaussian":
        return RademacherGaussianMax(n, spec.dim)
    return None


def quantile_grid(law) -> np.ndarray:
    """The 4096 quantiles of a one-variate law with a sampler at the
    midpoints (i + 1/2)/4096."""
    return law.sample((np.arange(4096) + 0.5) / 4096)


def step_sup(levels, at, below) -> tuple[float, float, float]:
    """sup_x |S(x) - F(x)| of a step CDF S against a nondecreasing CDF F,
    and the values of S and F at the first point where it is attained.

    S jumps at its distinct points v_0 < v_1 < ..., and ``levels[k]`` is
    S(v_k); ``at[k]`` and ``below[k]`` are F(v_k) and F(v_k-).  Between
    v_(k-1) and v_k, S is constant and F does not decrease, so the gap
    peaks at v_(k-1) or just below v_k; past the last v_k it only falls.
    Equal gaps go to the earlier point in x order, the one just below v_k
    before v_k itself.  A point just below v_k where F has no mass since
    v_(k-1) repeats the point at v_(k-1), so it loses that tie; below v_0
    with F(v_0-) = 0, where S = F = 0, there is no point, and it is
    skipped.
    """
    gaps = np.subtract(levels, at)
    np.abs(gaps, out=gaps)
    k = int(np.argmax(gaps))
    # counting from 0 in x order, the point at v_k is 2k + 1 and the one
    # below it 2k: max over (gap, -point) takes the earlier on equal gaps
    on = (gaps[k], -2 * k - 1, levels[k], at[k])
    gaps[0] = below[0] if below[0] > 0 else -1.0
    np.subtract(below[1:], levels[:-1], out=gaps[1:])
    np.abs(gaps[1:], out=gaps[1:])
    k = int(np.argmax(gaps))
    under = (gaps[k], -2 * k, levels[k - 1] if k else 0.0, below[k])
    gap, _, level, f = max(on, under)
    return float(gap), level, f


def bracketed_cdf(cdf, x, s, strides: tuple) -> np.ndarray:
    """``cdf`` at the ascending points x wherever |s - F| can reach its max
    over x, and ``s`` itself elsewhere, for nondecreasing s and F = cdf.

    F is taken first at every ``strides[0]``-th point and the last, the
    knots.  Between knots i0 < i1, monotonicity bounds every gap by
    max(s[i1] - F[i0], F[i1] - s[i0]).  Only the blocks whose bound reaches
    the largest gap at the knots so far can hold a point of largest gap;
    F is taken at every next stride's points inside them, which splits
    them into smaller blocks, and so on down to stride 1, one ``cdf`` call
    a level.  Elsewhere the gap against the returned s is 0, and the gap
    between the returned value and s at the point before, which
    :func:`step_sup` reads below each step point, is one step of s; the
    rise of s across a block joins its bound, so that gap stays below the
    max.  The max, and the first point attaining it, are then those of F
    at every point, bit for bit, provided ``cdf`` gives a point the same
    value whichever points share the call.  A computed CDF may fall by a
    rounding or quadrature error where the law rises, so a block is passed
    over only when its bound lies ``_BRACKET_SLACK`` below the largest
    gap.  With one block or none, F is taken at every point in one call.
    """
    n = x.size
    if n <= strides[0] + 1:
        return cdf(x)
    f = np.array(s, dtype=float)
    knots = np.append(np.arange(0, n - 1, strides[0]), n - 1)
    f[knots] = cdf(x[knots])
    best = np.max(np.abs(s[knots] - f[knots]))
    lo, hi = knots[:-1], knots[1:]
    for span, stride in zip(strides, strides[1:] + (1,)):
        bound = np.maximum(s[hi] - f[lo], f[hi] - s[lo])
        np.maximum(bound, s[hi] - s[lo], out=bound)
        keep = bound >= best - _BRACKET_SLACK
        lo, hi = lo[keep, None], hi[keep, None]
        grid = np.minimum(lo + np.arange(0, span + stride, stride), hi)
        new = grid[:, 1:-1][grid[:, 1:-1] < hi]
        if not new.size:
            break
        f[new] = cdf(x[new])
        best = max(best, np.max(np.abs(s[new] - f[new])))
        lo, hi = grid[:, :-1].ravel(), grid[:, 1:].ravel()
    return f


def sample_counts(law, u, y) -> np.ndarray:
    """``np.searchsorted(law.sample(u), y, "right")`` for ascending
    uniforms u, 1-D queries y and a continuous one-variate law, with
    ``law.sample`` taken at two uniforms per query rather than at every u.

    A query's count is guessed as the number of uniforms at or below its
    CDF, c = #{u <= F(y)}, and kept when the draw at u[c-1] is at or below
    y and the draw at u[c] above it.  Where F rounds the other way for any
    query, every u is inverted and the counts are taken on all the draws,
    the cost this function otherwise saves.  The result is exact provided
    ``law.sample`` does not decrease on ascending uniforms and gives a
    point the same bits whichever points share the call, as
    :meth:`IsotropicGaussianMax.sample` does.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    n = u.size
    c = np.searchsorted(u, law.cdf(y), side="right")
    if not n:
        return c
    draws = law.sample(np.concatenate([u[np.maximum(c - 1, 0)],
                                       u[np.minimum(c, n - 1)]]))
    # a draw counts unless it is above y, as in searchsorted's order, where
    # a NaN query sorts after every draw
    low_ok = (c == 0) | ~(draws[:y.size] > y)
    high_ok = (c == n) | (draws[y.size:] > y)
    if not np.all(low_ok & high_ok):
        return np.searchsorted(law.sample(u), y, side="right")
    return c


def sample_quantiles(law, u, q) -> np.ndarray:
    """``np.quantile(law.sample(u), q)`` for ascending uniforms u, from
    the two order statistics each quantile reads: numpy's ``linear`` rule
    interpolates the draws at floor((n - 1) q) and the index after it, by
    numpy's lerp, which works from the nearer end.  Exact under the
    premise of :func:`sample_counts`."""
    u = np.asarray(u, dtype=float)
    at = (u.size - 1) * np.asarray(q, dtype=float)
    i = np.floor(at)
    gamma = at - i
    i = i.astype(np.intp)
    a, b = np.split(law.sample(u[np.concatenate([i, np.minimum(
        i + 1, u.size - 1)])]), 2)
    rise = b - a
    return np.where(gamma >= 0.5, b - rise * (1 - gamma), a + rise * gamma)


def sup_distance(law, ref) -> float:
    """sup_x |law.cdf(x) - ref.cdf(x)| against a one-variate reference law
    with a sampler, taken over the :func:`quantile_grid` of ``ref`` and, for
    a law with atoms, by :func:`step_sup` at every atom, where the sup of a
    step CDF against a continuous one is attained.  On the grid,
    ``law.cdf`` is taken only where :func:`bracketed_cdf` finds the sup may
    lie, every ``_GRID_STRIDES[0]``-th point and a few blocks between them."""
    x = quantile_grid(ref)
    r = ref.cdf(x)
    f = bracketed_cdf(law.cdf, x, r, _GRID_STRIDES)
    best = float(np.max(np.abs(f - r)))
    atoms = getattr(law, "atoms", None)
    if atoms is not None:
        g = ref.cdf(atoms)
        best = max(best, step_sup(law.table, g, g)[0])
    return best
