"""Seeded, parallel-safe data generation for all studied distribution families.

Every family has componentwise mean zero.  Reproducibility contract: all
randomness flows through :func:`substream`, which derives an independent
generator from ``(seed, *key)`` via ``SeedSequence`` spawn keys, so replication
``r`` always sees the same stream no matter how work is scheduled.

For families whose coordinates are i.i.d. two-valued (two-point, Rademacher)
or Gaussian, :func:`sample_scaled_sums` draws the scaled sum
``W = n^{-1/2} sum_i X_i`` directly through exact distributional transforms
(binomial counts, multinomial cell counts), which is what makes the large-R
rate experiments affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch
from .matcore import CovarianceModel

FAMILIES = ("gaussian", "two_point", "rademacher", "uniform_bounded",
            "local_means", "quasi_gaussian")

# Memory budget of one Monte Carlo block: 2e6 float64 elements (16 MB).
BLOCK_FLOATS = 2_000_000


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for substream ``key`` of master ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for nested components that take a seed of
    their own (bootstrap engines, per-replication experiment units)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def blocks(total: int, row_floats: int):
    """Split ``total`` rows into consecutive ``(idx, slice)`` blocks.

    ``row_floats`` is the element count of the widest per-row array a block
    allocates; each block holds ``max(1, BLOCK_FLOATS // row_floats)`` rows,
    so peak memory stays near ``BLOCK_FLOATS`` whatever ``d`` is.  Callers
    key their substream on ``idx``, so draws depend on this budget, never on
    the thread count.
    """
    rows = max(1, BLOCK_FLOATS // max(row_floats, 1))
    for idx, start in enumerate(range(0, total, rows)):
        yield idx, slice(start, min(start + rows, total))


@dataclass(frozen=True)
class DataMatrix:
    """n x d sample of centered random vectors; row i is one observation."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatch("DataMatrix expects a 2-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("DataMatrix entries must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def two_point_support(B: float) -> tuple[float, float, float]:
    """Support values (a, b) and probability p of the two-point family.

    The law puts mass p = 1/B^2 on a = sqrt((1-p)/p) and 1-p on
    b = -sqrt(p/(1-p)); it is centered with unit variance and |X| <= B.
    """
    if B < 2:
        raise ValueError("two_point requires B >= 2")
    p = 1.0 / B**2
    a = np.sqrt((1.0 - p) / p)
    b = -np.sqrt(p / (1.0 - p))
    return a, b, p


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged distribution family with population-moment accessors."""

    kind: str
    dim: int
    B: Optional[float] = None
    cov: Optional[CovarianceModel] = None
    kappa: Optional[int] = None
    base: Optional["DistributionSpec"] = None
    sigma0: Optional[CovarianceModel] = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "two_point":
            two_point_support(self.B)  # validates B >= 2
        if self.kind == "uniform_bounded" and (self.B is None or self.B <= 0):
            raise ValueError("uniform_bounded requires B > 0")
        if self.kind == "local_means" and self.dim < 2:
            raise ValueError("local_means requires d >= 2")
        if self.kind == "quasi_gaussian":
            if self.sigma0 is None or not self.sigma0.unit_diag:
                raise ValueError("quasi_gaussian requires a unit-diagonal sigma0")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def gaussian(cov: CovarianceModel) -> "DistributionSpec":
        return DistributionSpec(kind="gaussian", dim=cov.dim, cov=cov)

    @staticmethod
    def two_point(B: float, d: int) -> "DistributionSpec":
        return DistributionSpec(kind="two_point", dim=d, B=float(B))

    @staticmethod
    def rademacher(d: int) -> "DistributionSpec":
        return DistributionSpec(kind="rademacher", dim=d)

    @staticmethod
    def uniform_bounded(B: float, d: int) -> "DistributionSpec":
        return DistributionSpec(kind="uniform_bounded", dim=d, B=float(B))

    @staticmethod
    def local_means(d: int, kappa: int = 1) -> "DistributionSpec":
        return DistributionSpec(kind="local_means", dim=d, kappa=int(kappa))

    @staticmethod
    def quasi_gaussian(base: "DistributionSpec", sigma0: CovarianceModel) -> "DistributionSpec":
        if base.dim != sigma0.dim:
            raise DimensionMismatch("base and sigma0 dimensions differ")
        return DistributionSpec(kind="quasi_gaussian", dim=base.dim, base=base, sigma0=sigma0)

    # -- population moments --------------------------------------------------

    def population_covariance(self) -> CovarianceModel:
        """Per-observation covariance, which equals the covariance of W."""
        if self.kind == "gaussian":
            return self.cov
        if self.kind in ("two_point", "rademacher"):
            return CovarianceModel.identity(self.dim)
        if self.kind == "uniform_bounded":
            return CovarianceModel(np.eye(self.dim) * self.B**2 / 3.0)
        if self.kind == "local_means":
            return CovarianceModel.local_means(self.dim)
        if self.kind == "quasi_gaussian":
            return CovarianceModel(self.base.population_covariance().entries
                                   + self.sigma0.entries)
        raise AssertionError(self.kind)

    def coordinate_variance(self) -> float:
        """Common per-coordinate variance (all families are exchangeable)."""
        return float(self.population_covariance().diagonal[0])

    def fourth_moment(self) -> float:
        """E X_{ij}^4 for a single coordinate."""
        if self.kind == "two_point":
            a, b, p = two_point_support(self.B)
            return float(p * a**4 + (1 - p) * b**4)
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "uniform_bounded":
            return float(self.B**4 / 5.0)
        if self.kind == "gaussian":
            return float(3.0 * self.cov.diagonal[0] ** 2)
        if self.kind == "local_means":
            p = 1.0 / self.dim
            a = np.sqrt((1 - p) / p)
            b = -np.sqrt(p / (1 - p))
            return float(p * a**4 + (1 - p) * b**4)
        if self.kind == "quasi_gaussian":
            # E (X+g)^4 = EX^4 + 6 EX^2 Eg^2 + Eg^4 (odd cross terms vanish)
            s2 = float(self.sigma0.diagonal[0])
            return float(self.base.fourth_moment()
                         + 6.0 * self.base.coordinate_variance() * s2 + 3.0 * s2**2)
        raise AssertionError(self.kind)

    def third_moment(self) -> float:
        """E X_{ij}^3 for a single coordinate."""
        if self.kind == "two_point":
            a, b, p = two_point_support(self.B)
            return float(p * a**3 + (1 - p) * b**3)
        if self.kind == "local_means":
            p = 1.0 / self.dim
            return float((1 - 2 * p) / np.sqrt(p * (1 - p)))
        if self.kind == "quasi_gaussian":
            return self.base.third_moment()
        return 0.0

    def envelope(self) -> float:
        """Almost-sure bound on |X_{ij}|; inf for unbounded families."""
        if self.kind == "two_point":
            a, b, _ = two_point_support(self.B)
            return float(max(a, -b))
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "uniform_bounded":
            return float(self.B)
        if self.kind == "local_means":
            p = 1.0 / self.dim
            return float(np.sqrt((1 - p) / p))
        return np.inf


def sample(spec: DistributionSpec, n: int, seed: int) -> DataMatrix:
    """Draw an n x d matrix of i.i.d. rows from ``spec``, deterministically."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, 0)
    return DataMatrix(_sample_values(spec, n, rng))


def _sample_values(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    d = spec.dim
    if spec.kind == "gaussian":
        z = rng.standard_normal((n, d))
        return z @ spec.cov.chol.T
    if spec.kind == "two_point":
        a, b, p = two_point_support(spec.B)
        return np.where(rng.random((n, d)) < p, a, b)
    if spec.kind == "rademacher":
        return rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0
    if spec.kind == "uniform_bounded":
        return rng.uniform(-spec.B, spec.B, size=(n, d))
    if spec.kind == "local_means":
        return _local_means_values(n, d, rng)
    if spec.kind == "quasi_gaussian":
        x = _sample_values(spec.base, n, rng)
        g = rng.standard_normal((n, d)) @ spec.sigma0.chol.T
        return x + g
    raise AssertionError(spec.kind)


def _local_means_values(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    p = 1.0 / d
    hi = np.sqrt((1 - p) / p)
    lo = -np.sqrt(p / (1 - p))
    cells = rng.integers(0, d, size=n)
    x = np.full((n, d), lo)
    x[np.arange(n), cells] = hi
    return x


def scaled_sum(x: DataMatrix) -> np.ndarray:
    """W = n^{-1/2} * column sums."""
    return x.values.sum(axis=0) / np.sqrt(x.n)


def apply_quasi_gaussian(x: DataMatrix, sigma0: CovarianceModel, seed: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Scaled sum with additive Gaussian noise: returns (W + G, G).

    G ~ N(0, sigma0) is drawn once at the level of the scaled sum; this equals
    in law the per-observation noise model since the noise contributions
    aggregate to N(0, sigma0).
    """
    if not sigma0.unit_diag:
        raise ValueError("sigma0 must have unit diagonal")
    if sigma0.dim != x.d:
        raise DimensionMismatch("sigma0 dimension differs from data dimension")
    rng = substream(seed, 0)
    g = sigma0.chol @ rng.standard_normal(sigma0.dim)
    return scaled_sum(x) + g, g


def _count_sums(counts: np.ndarray, n: int, hi: float, lo: float) -> np.ndarray:
    """``(k*hi + (n-k)*lo) / sqrt(n)`` for counts k of the high value among n
    two-valued summands, computed in place so that at most two arrays of
    the output's size are alive at once."""
    k = counts.astype(float)
    del counts  # the caller's integer draw is this frame's only reference
    rest = n - k
    rest *= lo
    k *= hi
    k += rest
    k /= np.sqrt(n)
    return k


def sample_scaled_sums(spec: DistributionSpec, n: int, reps: int,
                       seed: int) -> np.ndarray:
    """reps x d draws of W = n^{-1/2} sum_i X_i, each from fresh data.

    Uses exact closed-form transforms where the family admits them:

    * two_point / local-means marginals: binomial counts of the high value,
    * rademacher: 2*Binomial(n, 1/2) - n,
    * gaussian: W ~ N(0, cov) exactly,
    * local_means: multinomial cell counts,
    * quasi_gaussian: base transform plus one N(0, sigma0) draw per rep.

    Families without a transform (uniform_bounded) fall back to summing
    explicitly sampled data in :func:`blocks` of replications.
    """
    rng = substream(seed, 1)
    d = spec.dim
    if spec.kind == "gaussian":
        return rng.standard_normal((reps, d)) @ spec.cov.chol.T
    if spec.kind == "two_point":
        a, b, p = two_point_support(spec.B)
        return _count_sums(rng.binomial(n, p, size=(reps, d)), n, a, b)
    if spec.kind == "rademacher":
        return _count_sums(rng.binomial(n, 0.5, size=(reps, d)), n, 1.0, -1.0)
    if spec.kind == "local_means":
        p = 1.0 / d
        hi = np.sqrt((1 - p) / p)
        lo = -np.sqrt(p / (1 - p))
        return _count_sums(rng.multinomial(n, np.full(d, p), size=reps), n, hi, lo)
    if spec.kind == "quasi_gaussian":
        w = sample_scaled_sums(spec.base, n, reps, seed)
        w += substream(seed, 2).standard_normal((reps, d)) @ spec.sigma0.chol.T
        return w
    # generic fallback: explicit data, one n x d slab per replication
    out = np.empty((reps, d))
    for idx, rows in blocks(reps, n * d):
        # one expression, so no block's slab outlives its sum
        m = rows.stop - rows.start
        out[rows] = _sample_values(spec, n * m, substream(seed, 3, idx)
                                   ).reshape(m, n, d).sum(axis=1) / np.sqrt(n)
    return out
