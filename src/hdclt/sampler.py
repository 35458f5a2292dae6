"""Seeded, parallel-safe data generation for the studied distribution families.

Every family has componentwise mean zero.  Reproducibility contract: all
randomness flows through :func:`substream`, which derives an independent
generator from ``(seed, *key)`` via ``SeedSequence`` spawn keys, so replication
``r`` always sees the same stream no matter how work is scheduled.

For the Gaussian and quasi-Gaussian families, :func:`sample_scaled_sums`
draws the scaled sum ``W = n^{-1/2} sum_i X_i`` directly through exact
transforms.  The two-point and local-means families are measured only
through their max statistic, which :mod:`hdclt.maxlaw` draws from its exact
law, built on the supports and the count transform kept here.  Rows are
drawn by :func:`sample` only for the ``gaussian`` and ``uniform_bounded``
data of the bootstrap experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matcore import CovarianceModel

FAMILIES = ("gaussian", "two_point", "uniform_bounded", "local_means",
            "quasi_gaussian")

# the families drawn only through the exact law of their max statistic
_EXACT_LAWS = {"two_point": "; draw its max statistic from maxlaw.TwoPointMax",
               "local_means": "; draw its max statistic from "
                              "maxlaw.LocalMeansMax"}

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

    ``row_floats`` is the element count a block holds at once for each of
    its rows; each block holds ``max(1, BLOCK_FLOATS // row_floats)`` rows,
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
            raise ValueError("DataMatrix expects a 2-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("DataMatrix entries must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _two_point_law(p: float) -> tuple[float, float, float]:
    """Values (a, b) and probability p of the centred two-point law with unit
    variance that puts mass p on a = sqrt((1-p)/p) and 1-p on
    b = -sqrt(p/(1-p))."""
    return np.sqrt((1.0 - p) / p), -np.sqrt(p / (1.0 - p)), p


# the largest B with a finite B**2, which both bounded laws take
_B_MAX = float(np.sqrt(np.finfo(float).max))


def two_point_support(B: float) -> tuple[float, float, float]:
    """Support values (a, b) and probability p of the two-point family: the
    centred two-point law at p = 1/B^2, so |X| <= B."""
    if not 2 <= B <= _B_MAX:
        raise ValueError("two_point requires B >= 2 with a finite B**2")
    return _two_point_law(1.0 / B**2)


def local_means_support(d: int) -> tuple[float, float, float]:
    """Coordinate values (hi, lo) and cell probability p of the local-means
    family: an observation falls in one of d equally likely cells, so each
    coordinate is the centred two-point law at p = 1/d, hi in its own
    cell's coordinate and lo in the others."""
    return _two_point_law(1.0 / d)


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged distribution family with its population covariance."""

    kind: str
    dim: int
    B: Optional[float] = None
    cov: Optional[CovarianceModel] = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == "two_point":
            two_point_support(self.B)  # validates B >= 2 with a finite B**2
        if self.kind == "uniform_bounded" and (self.B is None
                                               or not 0 < self.B <= _B_MAX):
            raise ValueError("uniform_bounded requires B > 0 with a finite "
                             "B**2")
        if self.kind == "local_means" and self.dim < 2:
            raise ValueError("local_means requires d >= 2")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def gaussian(cov: CovarianceModel) -> "DistributionSpec":
        return DistributionSpec(kind="gaussian", dim=cov.dim, cov=cov)

    @staticmethod
    def two_point(B: float, d: int) -> "DistributionSpec":
        return DistributionSpec(kind="two_point", dim=d, B=float(B))

    @staticmethod
    def uniform_bounded(B: float, d: int) -> "DistributionSpec":
        return DistributionSpec(kind="uniform_bounded", dim=d, B=float(B))

    @staticmethod
    def local_means(d: int) -> "DistributionSpec":
        return DistributionSpec(kind="local_means", dim=d)

    @staticmethod
    def quasi_gaussian(d: int) -> "DistributionSpec":
        """+-1 coordinates plus independent N(0, I_d) noise."""
        return DistributionSpec(kind="quasi_gaussian", dim=d)

    # -- population covariance -----------------------------------------------

    def population_covariance(self) -> CovarianceModel:
        """Per-observation covariance, which equals the covariance of W."""
        if self.kind == "gaussian":
            return self.cov
        if self.kind == "two_point":
            return CovarianceModel.identity(self.dim)
        if self.kind == "uniform_bounded":
            return CovarianceModel(np.eye(self.dim) * self.B**2 / 3.0)
        if self.kind == "local_means":
            return CovarianceModel.local_means(self.dim)
        if self.kind == "quasi_gaussian":
            return CovarianceModel(2.0 * np.eye(self.dim))
        raise AssertionError(self.kind)


def sample(spec: DistributionSpec, n: int, seed: int) -> DataMatrix:
    """Draw an n x d matrix of i.i.d. rows from a ``gaussian`` or
    ``uniform_bounded`` spec, deterministically.  Any other family raises
    ValueError; a ``quasi_gaussian`` spec's rows are its n = 1 scaled sums."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = substream(seed, 0)
    if spec.kind == "gaussian":
        return DataMatrix(rng.standard_normal((n, spec.dim)) @ spec.cov.chol.T)
    if spec.kind == "uniform_bounded":
        return DataMatrix(rng.uniform(-spec.B, spec.B, size=(n, spec.dim)))
    raise ValueError(f"a {spec.kind!r} spec has no row sampler"
                     + _EXACT_LAWS.get(spec.kind,
                                       "; its rows are its n = 1 scaled sums"))


def scaled_sum(x: DataMatrix) -> np.ndarray:
    """W = n^{-1/2} * column sums."""
    return x.values.sum(axis=0) / np.sqrt(x.n)


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
    """reps x d draws of W = n^{-1/2} sum_i X_i, each from fresh data, by
    exact closed-form transforms:

    * gaussian: W ~ N(0, cov) exactly,
    * quasi_gaussian: 2*Binomial(n, 1/2) - n, plus N(0, I) from substream 2.

    Any other family raises ValueError; the two-point and local-means max
    statistics are drawn from their exact laws in :mod:`hdclt.maxlaw`.
    """
    rng = substream(seed, 1)
    d = spec.dim
    if spec.kind == "gaussian":
        return rng.standard_normal((reps, d)) @ spec.cov.chol.T
    if spec.kind == "quasi_gaussian":
        w = _count_sums(rng.binomial(n, 0.5, size=(reps, d)), n, 1.0, -1.0)
        w += substream(seed, 2).standard_normal((reps, d))
        return w
    raise ValueError(f"a {spec.kind!r} spec has no scaled-sum transform"
                     + _EXACT_LAWS.get(spec.kind, ""))
