"""Monte Carlo verification toolkit for Gaussian approximation of
high-dimensional scaled sums over rectangle classes.

Modules:

* :mod:`hdclt.matcore`: covariance models, Cholesky, rectangles.
* :mod:`hdclt.sampler`: seeded distribution families and scaled-sum draws.
* :mod:`hdclt.bounds`: the bound shapes the experiments report, as plain
  floats at unit constants (shapes, not certified bounds).
* :mod:`hdclt.bootstrap`: multiplier bootstrap draws, the empirical
  bootstrap among them as resample-count multipliers, and quantiles.
* :mod:`hdclt.distance`: Kolmogorov distances of max statistics, one-sample
  against an exact law or two-sample, and the sampler of scaled sums' max
  statistics.
* :mod:`hdclt.maxlaw`: exact CDFs and inverse-CDF samplers of one-sided max
  statistics whose coordinates factor, and of the local-means max.
* :mod:`hdclt.smoothing`: smoothed rectangle indicators and exact derivatives.
* :mod:`hdclt.lowerbound`: the Poisson approximation check, the exact
  Gaussian reference law and the power-law fit of the rate experiments.
* :mod:`hdclt.runner`: config-driven experiments (the rate curves are
  assembled here), CSV/JSON/SVG artifacts.
* :mod:`hdclt.errors`: :class:`HdcltError` and its subclasses, kept for what
  a run can meet (an invalid config, a failed write, a singular Cholesky
  factor, an unconverged quadrature); a bad argument raises ``ValueError``.
"""

from ._version import __version__
from .bootstrap import (empirical_cov_centered, multiplier_draws,
                        simultaneous_quantile)
from .bounds import (bound_bounded, bound_gaussian_comparison,
                     bounds_local_means, delta0, xlog_factor)
from .distance import (MaxStatSample, anticoncentration_probe, ks_distance,
                       ks_two_sample_critical, max_stat_sample)
from .errors import HdcltError
from .lowerbound import poisson_approx_check, threshold_xn
from .maxlaw import (EquicorrelatedGaussianMax, IsotropicGaussianMax,
                     LocalMeansMax, RademacherGaussianMax, TwoPointMax, law_of,
                     sup_distance, two_point_marginal_tail)
from .matcore import CovarianceModel, RectangleSpec
from .runner import ExperimentConfig, RunManifest, emit_plot, run
from .sampler import (DataMatrix, DistributionSpec, sample,
                      sample_scaled_sums, scaled_sum, substream)
from .smoothing import (SmoothingParams, derivative_sum, h_nu, rho_eval,
                        rho_partial, verify_lemmas)

__all__ = [
    "__version__", "HdcltError",
    "CovarianceModel", "RectangleSpec",
    "DataMatrix", "DistributionSpec", "sample", "sample_scaled_sums",
    "scaled_sum", "substream",
    "xlog_factor", "delta0", "bound_bounded", "bound_gaussian_comparison",
    "bounds_local_means",
    "multiplier_draws", "empirical_cov_centered", "simultaneous_quantile",
    "MaxStatSample", "ks_distance", "ks_two_sample_critical",
    "max_stat_sample", "anticoncentration_probe",
    "SmoothingParams", "rho_eval", "rho_partial",
    "derivative_sum", "h_nu", "verify_lemmas",
    "poisson_approx_check", "threshold_xn",
    "IsotropicGaussianMax", "EquicorrelatedGaussianMax", "TwoPointMax",
    "RademacherGaussianMax", "LocalMeansMax", "law_of", "sup_distance",
    "two_point_marginal_tail",
    "ExperimentConfig", "RunManifest", "run", "emit_plot",
]
