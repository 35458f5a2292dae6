"""Dense symmetric linear algebra and rectangle geometry.

Covariance matrices are wrapped in :class:`CovarianceModel`, which computes
the smallest eigenvalue once, caches the Cholesky factor, and validates
symmetry / PSD-ness up to fixed tolerances.  Rectangles are products of
half-open intervals ``(a_j, b_j]`` with infinite endpoints allowed, so
one-sided max events ``{max_j W_j <= x}`` are representable.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import NotPositiveDefinite

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
PIVOT_TOL = 1e-12


class CovarianceModel:
    """Immutable d x d symmetric PSD matrix with lazily cached factorization.

    Construction validates symmetry (1e-12 absolute) and PSD-ness up to a
    1e-10 eigenvalue tolerance, which sets ``min_eig``, the smallest
    eigenvalue from a symmetric eigensolver.  Exactly singular matrices are
    representable; only :attr:`chol` requires strict positive definiteness.
    """

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("covariance entries must be finite")
        if np.max(np.abs(entries - entries.T)) > SYMMETRY_TOL:
            raise ValueError("matrix is not symmetric within 1e-12")
        self._entries = 0.5 * (entries + entries.T)
        self._entries.setflags(write=False)
        self._chol = None
        self._lock = threading.Lock()
        self.min_eig = float(np.linalg.eigvalsh(self._entries)[0])
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
    def chol(self) -> np.ndarray:
        """Lower-triangular L with L @ L.T == entries; raises
        :class:`NotPositiveDefinite` when a pivot falls below 1e-12."""
        if self._chol is None:
            with self._lock:
                if self._chol is None:
                    self._chol = _cholesky_lower(self._entries)
                    self._chol.setflags(write=False)
        return self._chol

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
    """LAPACK Cholesky factor, rejected when any pivot (squared diagonal
    entry of the factor) is at most PIVOT_TOL."""
    try:
        low = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"not positive definite: {exc}") from exc
    pivots = np.diag(low) ** 2
    bad = np.flatnonzero(pivots <= PIVOT_TOL)
    if bad.size:
        raise NotPositiveDefinite(
            f"pivot {pivots[bad[0]]:.3e} <= {PIVOT_TOL:g} at index {bad[0]}")
    return low


def sup_norm_diff(s: CovarianceModel, q: CovarianceModel) -> float:
    """Entrywise sup-norm distance ``max_{jk} |S_jk - Q_jk|``."""
    if s.dim != q.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {q.dim}")
    return float(np.max(np.abs(s.entries - q.entries)))


class RectangleSpec:
    """Product of intervals ``(a_j, b_j]``; infinite endpoints are allowed."""

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d vectors of equal length")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("rectangle endpoints may not be NaN")
        if np.any(lower > upper):
            raise ValueError("lower_j > upper_j for some coordinate")
        self.lower = lower.copy()
        self.upper = upper.copy()
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def __repr__(self):  # pragma: no cover
        return f"RectangleSpec(lower={self.lower}, upper={self.upper})"
