"""Test-only oracles of the smoothing layer.

The exact coefficient check of the Hermite derivative identity (C7),
rectangle membership, the smoothed rectangle indicator and the Monte Carlo
estimate of its Gaussian convolution that :func:`hdclt.smoothing.rho_eval`
is cross-checked against.
No experiment runs them, so they live beside the tests that do.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from hdclt.matcore import RectangleSpec
from hdclt.sampler import substream
from hdclt.smoothing import SmoothingParams, hermite_coefficients


def h_derivative_coefficient_check(nu: int) -> bool:
    """Exact coefficient check of d/dt h_nu = -h_{nu+1}.

    Equivalent polynomial identity: H'_{nu-1}(t) - t H_{nu-1}(t) = -H_nu(t).
    """
    c = hermite_coefficients(nu - 1)
    lhs = npoly.polysub(npoly.polyder(c), npoly.polymul([0.0, 1.0], c))
    rhs = -hermite_coefficients(nu)
    lhs = np.trim_zeros(lhs, "b")
    rhs = np.trim_zeros(rhs, "b")
    return len(lhs) == len(rhs) and np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def contains(rect: RectangleSpec, points) -> np.ndarray:
    """Membership of the rows of ``points`` in the half-open rectangle
    ``rect``, the indicator that :func:`m_indicator` ramps."""
    pts = np.atleast_2d(points)
    return np.all((pts > rect.lower) & (pts <= rect.upper), axis=1)


def m_indicator(w, params: SmoothingParams):
    """Smoothed rectangle indicator: the ramp of slope phi at the margin
    max_j[(w_j-b_j) v (a_j-w_j)].

    The margin is taken over the last axis of ``w``, so one point gives one
    value and a (reps, d) array one value per row.  The ramp is
    clip(1 - phi*margin, 0, 1), and the indicator 1{margin <= 0} at
    phi = inf, where inf * 0 would be NaN.
    """
    w = np.asarray(w, dtype=float)
    margin = np.max(np.maximum(w - params.rect.upper, params.rect.lower - w),
                    axis=-1)
    if math.isinf(params.phi):
        return (margin <= 0).astype(float)
    return np.clip(1.0 - params.phi * margin, 0.0, 1.0)


def rho_eval_mc(w, params: SmoothingParams, reps: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo cross-check of :func:`rho_eval`: the mean of the smoothed
    indicator at w + eps*Z over ``reps`` standard normal Z; returns
    (estimate, standard error)."""
    rng = substream(seed, 30)
    z = rng.standard_normal((reps, params.d))
    vals = m_indicator(w + params.eps * z, params)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps))
