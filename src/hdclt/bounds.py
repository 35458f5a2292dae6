"""Published bound shapes with a configurable constants policy.

Every unspecified universal constant is drawn from a :class:`ConstantsPolicy`
(default: every constant equals 1) and the policy is stamped into each
:class:`BoundReport`, so bound values are comparable shapes rather than
certified numerical bounds.  The convention ``x * (1 v |log x|) := 0`` at
``x = 0`` is used throughout (continuity limit).

Accessor functions (``delta0``, ``delta1``, ...) raise
:class:`DegenerateSigma` on sigma_* <= 0; report-producing functions instead
return a +inf report flagged ``degenerate`` so degenerate-covariance pipelines
can fall back to a surrogate covariance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .errors import BadMomentOrder, DegenerateSigma, ZeroVariance
from .matcore import CovarianceModel, sup_norm_diff
from .sampler import DataMatrix, DistributionSpec


def lambda1(n: int, d: int) -> float:
    """(log d)^2 (log n) log(dn)."""
    return math.log(d) ** 2 * math.log(n) * math.log(d * n)


def xlog_factor(x: float) -> float:
    """x * (1 v |log x|), extended by continuity to 0 at x = 0."""
    if x < 0:
        raise ValueError("xlog_factor expects x >= 0")
    if x == 0.0:
        return 0.0
    return x * max(1.0, abs(math.log(x)))


@dataclass(frozen=True)
class ConstantsPolicy:
    """Named assignment for the unspecified universal constants."""

    name: str = "unit"
    values: dict = field(default_factory=dict)

    def get(self, key: str) -> float:
        return float(self.values.get(key, 1.0))


UNIT_CONSTANTS = ConstantsPolicy()


@dataclass(frozen=True)
class BoundInputs:
    """Snapshot of every quantity a bound formula may consume."""

    n: Optional[int] = None
    d: Optional[int] = None
    sigma_star: Optional[float] = None
    sigma_star_w: Optional[float] = None
    B: Optional[float] = None
    delta: Optional[float] = None
    q: Optional[float] = None
    psi: Optional[float] = None
    delta0: float = 0.0
    delta1: float = 0.0
    delta0_prime: float = 0.0
    delta1_prime: float = 0.0
    m_max: float = 0.0          # script-M: L4 norm of the grand max |X_ij|
    m_max_star: float = 0.0     # centered-data analogue
    m_psi: float = 0.0          # truncated fourth-moment level M(psi)
    m_psi_star: float = 0.0
    delta0_tilde: float = 0.0
    delta1_tilde: float = 0.0
    delta2_tilde: float = 0.0
    alpha: Optional[float] = None
    kappa_geom: Optional[int] = None
    moments: str = "population"  # or "plug-in"

    def __post_init__(self):
        for name in ("delta0", "delta1", "delta0_prime", "delta1_prime",
                     "delta0_tilde", "delta1_tilde", "delta2_tilde",
                     "m_max", "m_max_star", "m_psi", "m_psi_star"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class BoundReport:
    """Named bound value with its full input snapshot."""

    theorem_tag: str
    value: float
    inputs: BoundInputs
    constants_policy: ConstantsPolicy = UNIT_CONSTANTS
    degenerate: bool = False

    def __post_init__(self):
        if not (self.value >= 0.0 or math.isinf(self.value)):
            raise ValueError("bound value must be nonnegative")

    def to_json(self) -> str:
        flat = {
            "tag": self.theorem_tag,
            "value": self.value,
            "degenerate": self.degenerate,
            "constants_policy": self.constants_policy.name,
            **{f"constant_{k}": v for k, v in self.constants_policy.values.items()},
        }
        for k, v in asdict(self.inputs).items():
            flat[f"input_{k}"] = v
        return json.dumps(flat, sort_keys=True)


# -- data-dependent accessors ------------------------------------------------

def delta0(sigma: CovarianceModel, sigma_w: CovarianceModel,
           sigma_star: float, d: int) -> float:
    """(log d / sigma_*^2) * ||Sigma - Sigma_W||_inf."""
    if sigma_star <= 0:
        raise DegenerateSigma("delta0 requires sigma_* > 0")
    return math.log(d) / sigma_star**2 * sup_norm_diff(sigma, sigma_w)


def delta1(fourth_moments, n: int, d: int, sigma_star: float) -> float:
    """(log d)^2 / (n^2 sigma_*^4) * max_j sum_i E X_{ij}^4.

    ``fourth_moments`` is the d-vector of per-coordinate fourth-moment sums
    over observations (population or plug-in; the caller flags which in the
    report it assembles).
    """
    if sigma_star <= 0:
        raise DegenerateSigma("delta1 requires sigma_* > 0")
    fm = np.asarray(fourth_moments, dtype=float)
    if np.any(fm < 0):
        raise ValueError("fourth moments must be nonnegative")
    return math.log(d) ** 2 / (n**2 * sigma_star**4) * float(np.max(fm))


def delta1_tilde(third_moments, n: int, d: int, sigma_star_0: float) -> float:
    """(log d)^{3/2} / (n^{3/2} sigma_{*,0}^3) * max_j sum_i E X_{ij}^3."""
    if sigma_star_0 <= 0:
        raise DegenerateSigma("delta1_tilde requires sigma_{*,0} > 0")
    tm = np.asarray(third_moments, dtype=float)
    return math.log(d) ** 1.5 / (n**1.5 * sigma_star_0**3) * float(np.max(tm))


def delta2_tilde(fourth_moments, n: int, d: int, sigma_star_0: float) -> float:
    """(log d)^2 / (n^2 sigma_{*,0}^4) * max_j sum_i E X_{ij}^4."""
    if sigma_star_0 <= 0:
        raise DegenerateSigma("delta2_tilde requires sigma_{*,0} > 0")
    fm = np.asarray(fourth_moments, dtype=float)
    return math.log(d) ** 2 / (n**2 * sigma_star_0**4) * float(np.max(fm))


# -- bound shapes ------------------------------------------------------------

def _degenerate_report(tag: str, inputs: BoundInputs,
                       constants: ConstantsPolicy) -> BoundReport:
    return BoundReport(tag, math.inf, inputs, constants, degenerate=True)


def bound_gauss_bounded(inputs: BoundInputs,
                        constants: ConstantsPolicy = UNIT_CONSTANTS) -> BoundReport:
    """Gaussian approximation bound for a.s. bounded summands."""
    tag = "gauss_bounded"
    n, d = inputs.n, inputs.d
    s, dl = inputs.sigma_star, inputs.delta
    if dl is None or dl <= 0:
        raise ValueError("bound_gauss_bounded requires delta > 0")
    if s is None or s <= 0:
        return _degenerate_report(tag, inputs, constants)
    ld = math.log(d)
    arg = inputs.delta1 / ld + dl**2 * ld / s**2
    prefactor = 1.0 if arg == 0.0 else max(1.0, abs(math.log(arg)))
    core = inputs.delta0 + math.sqrt(inputs.delta1 * ld) + (dl * ld) ** 2 / s**2
    value = constants.get("C") * (prefactor * core + dl * ld**1.5 / s)
    return BoundReport(tag, value, inputs, constants)


def _unbounded_shape(tag: str, inputs: BoundInputs, constants: ConstantsPolicy,
                     delta0: float, delta1: float, m_max: float,
                     m_psi: float) -> BoundReport:
    """The unbounded-case bound with truncation level psi, evaluated on the
    given (Delta_0, Delta_1, M, M(psi)); n, d, sigma_* and psi come from
    ``inputs``."""
    n, d = inputs.n, inputs.d
    s, psi = inputs.sigma_star, inputs.psi
    if psi is None or psi <= 0:
        raise ValueError(f"bound_{tag} requires psi > 0")
    if s is None or s <= 0:
        return _degenerate_report(tag, inputs, constants)
    ld = math.log(d)
    value = constants.get("C") * (
        math.log(n) * (delta0 + math.sqrt(delta1 * ld)
                       + (m_max * ld) ** 2 / (n * s**2))
        + math.sqrt(lambda1(n, d) * m_psi / (n * s**4))
        + psi * ld**1.5 / (s * math.sqrt(n))
    )
    return BoundReport(tag, value, inputs, constants)


def bound_gauss_unbounded(inputs: BoundInputs,
                          constants: ConstantsPolicy = UNIT_CONSTANTS) -> BoundReport:
    """Gaussian approximation bound with truncation level psi."""
    return _unbounded_shape("gauss_unbounded", inputs, constants, inputs.delta0,
                            inputs.delta1, inputs.m_max, inputs.m_psi)


def bound_corollary_simple(case: str, inputs: BoundInputs,
                           constants: ConstantsPolicy = UNIT_CONSTANTS) -> BoundReport:
    """The three displayed simple-condition bounds (cases E1, E2, E3)."""
    case = case.upper()
    tag = f"corollary_simple_{case}"
    n, d, B = inputs.n, inputs.d, inputs.B
    s = inputs.sigma_star_w
    if s is None or s <= 0:
        return _degenerate_report(tag, inputs, constants)
    ld, ln = math.log(d), math.log(n)
    t1 = B * ld**1.5 * ln / (math.sqrt(n) * s**2)
    if case == "E1":
        value = constants.get("C") * t1
    elif case == "E2":
        value = constants.get("C") * (t1 + B * ld**2 / (math.sqrt(n) * s))
    elif case == "E3":
        q = inputs.q
        if q is None or q < 4:
            raise BadMomentOrder("case E3 requires q >= 4")
        t2 = B**2 * ld**2 * ln / (n ** (1 - 2 / q) * s**2)
        # the q-root term is assembled in log space: for large q the raw
        # powers B**q, n**(q/2-1) overflow long before the root tames them
        if B <= 0 or ld <= 0:
            t3 = 0.0
        else:
            log_t3 = (q * math.log(B) + (1.5 * q - 4) * math.log(ld)
                      + math.log(ln) + math.log(math.log(d * n))
                      - (q / 2 - 1) * math.log(n) - q * math.log(s)) / (q - 2)
            t3 = math.exp(log_t3)
        value = constants.get("C") * (t1 + t2 + t3)
    else:
        raise ValueError(f"unknown case {case!r}; expected E1, E2, or E3")
    return BoundReport(tag, value, inputs, constants)


def bound_gaussian_comparison(D: float, sigma_star_sq: float, d: int,
                              constants: ConstantsPolicy = UNIT_CONSTANTS) -> BoundReport:
    """Comparison of two Gaussian laws over rectangles in sup-norm distance D."""
    tag = "gaussian_comparison"
    if D < 0:
        raise ValueError("D must be nonnegative")
    inputs = BoundInputs(d=d, sigma_star=math.sqrt(sigma_star_sq) if sigma_star_sq > 0 else 0.0,
                         delta0=D)
    if sigma_star_sq <= 0:
        return _degenerate_report(tag, inputs, constants)
    value = constants.get("C") * xlog_factor(D / sigma_star_sq) * math.log(d)
    return BoundReport(tag, value, inputs, constants)


def bound_bootstrap_multiplier(delta0_prime: float, d: int,
                               constants: ConstantsPolicy = UNIT_CONSTANTS) -> BoundReport:
    """Multiplier-bootstrap bound C * D0' * (1 v |log(D0'/log d)|)."""
    tag = "bootstrap_multiplier"
    if delta0_prime < 0:
        raise ValueError("delta0_prime must be nonnegative")
    inputs = BoundInputs(d=d, delta0_prime=delta0_prime)
    ld = math.log(d)
    value = constants.get("C") * ld * xlog_factor(delta0_prime / ld)
    return BoundReport(tag, value, inputs, constants)


def bound_bootstrap_empirical(inputs: BoundInputs,
                              constants: ConstantsPolicy = UNIT_CONSTANTS) -> BoundReport:
    """Empirical-bootstrap bound: unbounded-case shape with primed inputs."""
    return _unbounded_shape("bootstrap_empirical", inputs, constants,
                            inputs.delta0_prime, inputs.delta1_prime,
                            inputs.m_max_star, inputs.m_psi_star)


def bound_smooth(delta0_tilde: float, delta1_tilde_value: float,
                 constants: ConstantsPolicy = UNIT_CONSTANTS,
                 inputs: Optional[BoundInputs] = None) -> BoundReport:
    """Smooth (quasi-Gaussian) case bound C * (D0~ + D1~)."""
    if inputs is None:
        inputs = BoundInputs(delta0_tilde=delta0_tilde, delta1_tilde=delta1_tilde_value)
    value = constants.get("C") * (delta0_tilde + delta1_tilde_value)
    return BoundReport("smooth", value, inputs, constants)


def bound_smooth_zeroskew(delta0_tilde: float, delta2_tilde_value: float,
                          constants: ConstantsPolicy = UNIT_CONSTANTS,
                          inputs: Optional[BoundInputs] = None) -> BoundReport:
    """Smooth, zero-skewness case bound C * (D0~ + D2~)."""
    if inputs is None:
        inputs = BoundInputs(delta0_tilde=delta0_tilde, delta2_tilde=delta2_tilde_value)
    value = constants.get("C") * (delta0_tilde + delta2_tilde_value)
    return BoundReport("smooth_zeroskew", value, inputs, constants)


def bounds_local_means(n: int, d: int, kappa_geom: int,
                       constants: ConstantsPolicy = UNIT_CONSTANTS
                       ) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The three many-local-means bound shapes: combined, prior-style, coupling.

    All three are evaluated with p = 1/d.
    """
    if d < 2 or n < 3:
        raise ValueError("bounds_local_means requires d >= 2, n >= 3")
    inputs = BoundInputs(n=n, d=d, kappa_geom=kappa_geom)
    ld, ln = math.log(d), math.log(n)
    p = 1.0 / d
    c = constants.get("C")

    surrogate = ld**2 / d + math.sqrt(d * ld**3 / n) * ln
    combined = c * min(surrogate, (d * ln**5 / n) ** 0.25)
    prior = c * (ld**2 / d
                 + (math.sqrt(d**3 * ld**4 * ln / n)
                    + math.sqrt(ld**7 * math.log(d * n) / n)) * ln)
    coupling = c * math.sqrt(ld) * (math.sqrt(ln / (n * p) ** (1.0 / kappa_geom))
                                    + math.sqrt(ln**2 / (n * p)))
    return (BoundReport("local_means_combined", combined, inputs, constants),
            BoundReport("local_means_prior", prior, inputs, constants),
            BoundReport("local_means_coupling", coupling, inputs, constants))


# -- condition checks --------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Per-condition verdicts with the attained statistics."""

    B: float
    holds: dict
    attained: dict
    proxy: dict
    source: str  # "population" or "data"


def check_conditions(x, B: float, q: float = 4.0) -> ConditionReport:
    """Check (M), (E.1) and the (E.2)/(E.3) empirical proxies against B.

    ``x`` is either a :class:`DistributionSpec` (population path) or a
    :class:`DataMatrix` (plug-in path).  Exact Orlicz norms are out of reach;
    the E.2 proxy uses the bounded-support inequality
    ``||X||_{psi_2} <= envelope / sqrt(log 2)`` and the E.3 proxy uses the
    empirical q-th moment of the standardized coordinate max.
    """
    if isinstance(x, DistributionSpec):
        sigma2 = x.coordinate_variance()
        if sigma2 <= 0:
            raise ZeroVariance("population coordinate variance is zero")
        sigma = math.sqrt(sigma2)
        env = x.envelope() / sigma
        fourth = x.fourth_moment() / sigma2**2
        e2 = env / math.sqrt(math.log(2.0))
        e3 = env  # max over j of |X/sigma| <= standardized envelope a.s.
        source = "population"
    elif isinstance(x, DataMatrix):
        v = x.values
        sigma2 = v.var(axis=0)
        if np.any(sigma2 <= 0):
            raise ZeroVariance("some plug-in coordinate variance is zero")
        std = v / np.sqrt(sigma2)
        env = float(np.max(np.abs(std)))
        fourth = float(np.max(np.mean(std**4, axis=0)))
        e2 = env / math.sqrt(math.log(2.0))
        e3 = float(np.mean(np.max(np.abs(std), axis=1) ** q) ** (1.0 / q))
        source = "data"
    else:
        raise TypeError("expected DistributionSpec or DataMatrix")

    attained = {"E1": env, "M": fourth, "E2": e2, "E3": e3}
    holds = {"E1": env <= B, "M": fourth <= B**2, "E2": e2 <= B, "E3": e3 <= B}
    proxy = {"E1": False, "M": False, "E2": True, "E3": True}
    return ConditionReport(B=B, holds=holds, attained=attained, proxy=proxy,
                           source=source)
