"""Dense symmetric linear algebra and rectangle geometry.

Covariance matrices are wrapped in :class:`CovarianceModel`, which caches the
Cholesky factor and the smallest eigenvalue, and validates symmetry / PSD-ness
up to fixed tolerances.  Rectangles are products of half-open intervals
``(a_j, b_j]`` with infinite endpoints allowed, so one-sided max events
``{max_j W_j <= x}`` are representable.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.linalg

from .errors import DegenerateRectangle, DimensionMismatch, NotPositiveDefinite

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
PIVOT_TOL = 1e-12
UNIT_DIAG_TOL = 1e-12


class CovarianceModel:
    """Immutable d x d symmetric PSD matrix with lazily cached factorization.

    Construction validates symmetry (1e-12 absolute) and PSD-ness up to a
    1e-10 eigenvalue tolerance.  Exactly singular matrices are representable;
    only :attr:`chol` requires strict positive definiteness.
    """

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("covariance entries must be finite")
        if np.max(np.abs(entries - entries.T)) > SYMMETRY_TOL:
            raise ValueError("matrix is not symmetric within 1e-12")
        self._entries = 0.5 * (entries + entries.T)
        self._entries.setflags(write=False)
        self._chol = None
        self._min_eig = None
        self._lock = threading.Lock()
        if self.min_eig < -PSD_TOL:
            raise ValueError(
                f"matrix is not PSD: smallest eigenvalue {self.min_eig:.3e} < -{PSD_TOL:g}"
            )

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self._entries)

    @property
    def min_eig(self) -> float:
        """Smallest eigenvalue, computed once via a symmetric eigensolver."""
        if self._min_eig is None:
            with self._lock:
                if self._min_eig is None:
                    self._min_eig = float(
                        scipy.linalg.eigh(self._entries, eigvals_only=True,
                                          subset_by_index=(0, 0))[0]
                    )
        return self._min_eig

    @property
    def chol(self) -> np.ndarray:
        """Lower-triangular L with L @ L.T == entries; raises
        :class:`NotPositiveDefinite` when a pivot falls below 1e-12."""
        if self._chol is None:
            with self._lock:
                if self._chol is None:
                    self._chol = _cholesky_lower(self._entries)
                    self._chol.setflags(write=False)
        return self._chol

    @property
    def unit_diag(self) -> bool:
        return bool(np.all(np.abs(self.diagonal - 1.0) <= UNIT_DIAG_TOL))

    @property
    def is_diagonal(self) -> bool:
        off = self._entries - np.diag(self.diagonal)
        return bool(np.max(np.abs(off)) <= SYMMETRY_TOL) if self.dim > 1 else True

    def __repr__(self):  # pragma: no cover
        return f"CovarianceModel(dim={self.dim})"

    @staticmethod
    def identity(d: int) -> "CovarianceModel":
        return CovarianceModel(np.eye(d))

    @staticmethod
    def equicorrelation(d: int, rho: float) -> "CovarianceModel":
        m = np.full((d, d), float(rho))
        np.fill_diagonal(m, 1.0)
        return CovarianceModel(m)

    @staticmethod
    def local_means(d: int) -> "CovarianceModel":
        """Exact covariance of the many-local-means coordinates: unit diagonal,
        off-diagonal -p/(1-p) with p = 1/d.  Singular by construction."""
        p = 1.0 / d
        off = -p / (1.0 - p)
        m = np.full((d, d), off)
        np.fill_diagonal(m, 1.0)
        return CovarianceModel(m)


def _cholesky_lower(s: np.ndarray) -> np.ndarray:
    """Outer-product Cholesky with an explicit pivot tolerance."""
    d = s.shape[0]
    a = np.array(s, dtype=float)
    for k in range(d):
        pivot = a[k, k]
        if pivot <= PIVOT_TOL:
            raise NotPositiveDefinite(
                f"pivot {pivot:.3e} <= {PIVOT_TOL:g} at index {k}"
            )
        a[k, k] = np.sqrt(pivot)
        if k + 1 < d:
            a[k + 1:, k] /= a[k, k]
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k + 1:, k])
    return np.tril(a)


def sup_norm_diff(s: CovarianceModel, q: CovarianceModel) -> float:
    """Entrywise sup-norm distance ``max_{jk} |S_jk - Q_jk|``."""
    if s.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {s.dim} vs {q.dim}")
    return float(np.max(np.abs(s.entries - q.entries)))


class RectangleSpec:
    """Product of intervals ``(a_j, b_j]``; infinite endpoints are allowed."""

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionMismatch("lower and upper must be 1-d vectors of equal length")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("rectangle endpoints may not be NaN")
        if np.any(lower > upper):
            raise DegenerateRectangle("lower_j > upper_j for some coordinate")
        self.lower = lower.copy()
        self.upper = upper.copy()
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def __eq__(self, other):
        return (isinstance(other, RectangleSpec)
                and np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper))

    def __repr__(self):  # pragma: no cover
        return f"RectangleSpec(lower={self.lower}, upper={self.upper})"

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership of rows of ``points`` in the rectangle."""
        pts = np.atleast_2d(points)
        return np.all((pts > self.lower) & (pts <= self.upper), axis=1)

    @staticmethod
    def one_sided(d: int, x: float) -> "RectangleSpec":
        return RectangleSpec(np.full(d, -np.inf), np.full(d, float(x)))


def enlarge(a: RectangleSpec, t: float) -> RectangleSpec:
    """Rectangle ``A^t`` with endpoints moved out by t (in by -t).

    Infinite endpoints stay infinite.  A negative t crossing lower past upper
    raises :class:`DegenerateRectangle`.
    """
    lower = a.lower - t
    upper = a.upper + t
    # -inf - t and inf + t stay infinite for finite t
    if np.any(lower > upper):
        raise DegenerateRectangle(f"enlargement by t={t} produced an empty rectangle")
    return RectangleSpec(lower, upper)
