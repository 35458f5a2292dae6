"""Configuration-driven experiment orchestration: CSV/JSON/SVG emission.

Configs are flat ``key = value`` text files (grammar documented in the
README); every numeric output is a pure function of (config, seed), never of
the worker-thread count.  Each run appends a record to ``manifest.json`` in
its output directory and writes one CSV per experiment in the column order
of the experiment's rows, a ``summary.json`` with pass/fail verdicts, and a
best-effort SVG.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import bootstrap, bounds, distance, lowerbound, maxlaw, smoothing
from ._version import __version__
from .errors import ConfigInvalid, IoFailure, NotPositiveDefinite
from .matcore import PIVOT_TOL, CovarianceModel, sup_norm_diff
from .sampler import (DistributionSpec, derive_seed, sample, scaled_sum,
                      sample_scaled_sums, two_point_support)

RUN_KEYS = ("experiment", "seed")


def _key(parse, ok=None, need=None, default=None):
    """Declare a config key: ``parse`` reads its text value, and a value
    must satisfy ``ok(value, config)``, which ``need`` states in words."""
    return field(default=default,
                 metadata={"parse": parse, "ok": ok, "need": need})


def _at_least(lo):
    """Rule and its wording for a number key with a lower bound."""
    return (lambda v, cfg: v >= lo), f">= {lo}"


def _list(parse):
    return lambda raw: [parse(tok) for tok in raw.replace(",", " ").split()]


def _each(ok):
    """Rule of a list key: nonempty, and every entry satisfies ``ok``."""
    return lambda values, cfg: bool(values) and all(ok(v) for v in values)


def _fits_tuple_budget(v_list, cfg) -> bool:
    """Rule of v_list: supported derivative orders, and no (d, v) cell
    beyond the derivative-sum tuple budget."""
    return (_each(lambda v: 1 <= v <= smoothing.MAX_SUM_ORDER)(v_list, cfg)
            and all(d**v <= smoothing.TUPLE_BUDGET
                    for d in cfg.d_list for v in v_list))


def _two_point_law_takes(B, cfg) -> bool:
    """Rule of B: the two-point law of rate_vs_n and poisson_check takes it."""
    try:
        return bool(two_point_support(B))
    except ValueError:
        return False


def _enough_rows(n, cfg) -> bool:
    """Rule of n: two rows at least; bootstrap_agreement factors the centred
    empirical covariance, whose rank is at most n - 1, so it needs n > d."""
    return n >= 2 and (cfg.experiment != "bootstrap_agreement" or n > cfg.d)


def _has_cholesky_factors(rho_list, cfg) -> bool:
    """Rule of rho_list: the equicorrelation matrix of dimension d of every
    entry has the Cholesky factor its Gaussian draws use."""
    try:
        for rho in rho_list:
            CovarianceModel.equicorrelation(cfg.d, rho).chol
    except (ValueError, NotPositiveDefinite):
        return False
    return bool(rho_list)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted description of one experiment run.

    Each field is one config key with its parser and value rule.  An
    experiment reads the keys of its ``EXPERIMENTS[...].defaults`` plus
    ``RUN_KEYS``; the others must stay unset.
    """

    experiment: Optional[str] = _key(str)
    seed: int = _key(int, *_at_least(0), default=0)
    replications: Optional[int] = _key(int, *_at_least(1))
    n: Optional[int] = _key(int, _enough_rows,
                            ">= 2; > d for bootstrap_agreement")
    d: Optional[int] = _key(int, *_at_least(2))
    B: Optional[float] = _key(float, _two_point_law_takes,
                              ">= 2 with a finite B**2")
    n_list: Optional[list] = _key(
        _list(int),
        # rate_vs_n divides each distance by its bound, 0 at n = 1 (log 1 = 0)
        lambda v, c: (len(set(v)) >= 2 and v == sorted(v)
                      and v[0] >= (2 if c.experiment == "rate_vs_n" else 1)),
        "ascending, all >= 1 (>= 2 for rate_vs_n), with at least two "
        "distinct values")
    d_list: Optional[list] = _key(_list(int), _each(lambda d: d >= 2),
                                  "nonempty, all >= 2")
    level: Optional[float] = _key(float, lambda v, c: 0.0 < v < 1.0,
                                  "in (0, 1)")
    multiplier: Optional[str] = _key(
        str, lambda v, c: v in bootstrap.MULTIPLIER_KINDS,
        " or ".join(bootstrap.MULTIPLIER_KINDS))
    # the rate experiments measure the one-sided max only
    family: Optional[str] = _key(str, lambda v, c: v == "one_sided_max",
                                 "one_sided_max")
    inner_replications: Optional[int] = _key(
        int, *_at_least(bootstrap.MIN_QUANTILE_DRAWS))
    outer_replications: Optional[int] = _key(int, *_at_least(1))
    # retired: every exact-reference distance is one-sample, so nothing here
    # reads it; a valid key, ignored, while the benchmark harness reads it
    ref_factor: Optional[int] = _key(int, *_at_least(1))
    eps_list: Optional[list] = _key(_list(float),
                                    _each(lambda e: 0 < e < math.inf),
                                    "nonempty, all finite and > 0")
    phi_list: Optional[list] = _key(_list(float), _each(lambda p: p > 0),
                                    "nonempty, all > 0 (inf allowed)")
    v_list: Optional[list] = _key(
        _list(int), _fits_tuple_budget,
        f"nonempty, all in 1..{smoothing.MAX_SUM_ORDER}, with "
        f"d**v <= {smoothing.TUPLE_BUDGET} for every d in d_list")
    rho_list: Optional[list] = _key(
        _list(float), _has_cholesky_factors,
        f"nonempty, all with an equicorrelation matrix of dimension d whose "
        f"Cholesky pivots exceed {PIVOT_TOL:g}")

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalid(f"experiment must be one of "
                                f"{', '.join(EXPERIMENTS)}, not "
                                f"{self.experiment!r}")
        keys = EXPERIMENTS[self.experiment].defaults
        for f in fields(self):
            if getattr(self, f.name) is None:
                object.__setattr__(self, f.name, keys.get(f.name))
            elif f.name not in keys and f.name not in RUN_KEYS:
                raise ConfigInvalid(
                    f"{self.experiment} does not read {f.name!r}; its keys "
                    f"are {', '.join(list(keys) + list(RUN_KEYS))}")
        # every key is filled in before any rule runs, so a rule may read
        # the keys declared after its own
        for f in fields(self):
            value = getattr(self, f.name)
            ok = f.metadata["ok"]
            if value is not None and ok is not None and not ok(value, self):
                raise ConfigInvalid(f"{f.name} must be {f.metadata['need']}")

    @staticmethod
    def from_mapping(mapping: dict) -> "ExperimentConfig":
        unknown = set(mapping) - set(KEYS)
        if unknown:
            raise ConfigInvalid(f"unknown keys: {sorted(unknown)}")
        return ExperimentConfig(**mapping)

    def canonical_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, list):
                value = " ".join(repr(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


KEYS = {f.name: f for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> dict:
    """Parse the flat ``key = value`` config grammar into a typed mapping.

    Blank lines and lines starting with '#' are ignored; values for list
    keys are whitespace or comma separated; 'inf' is a valid float.
    """
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in KEYS:
            raise ConfigInvalid(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigInvalid(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = KEYS[key].metadata["parse"](raw)
        except ValueError as exc:
            raise ConfigInvalid(f"bad value for {key!r}: {raw!r}") from exc
    return out


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_mapping(parse_config_text(text))


def _pmap(threads: int):
    """Order-preserving map, optionally backed by a bounded thread pool.

    Work items must carry their own derived seeds; the pool only changes
    scheduling, never the result of any item.
    """
    if threads <= 1:
        return map

    def mapper(fn, items):
        items = list(items)
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return mapper


# -- experiments --------------------------------------------------------------

def _rate_result(cfg: ExperimentConfig, spec: DistributionSpec,
                 slope_band: tuple, pmap) -> tuple:
    """Distance-vs-n curve of :func:`lowerbound.reference_distance`, W's max
    statistic against its Gaussian reference, with a log-log OLS slope.

    Each n draws ``replications`` fresh data sets (the distance is over the
    sampling law of W, not conditional on a dataset), seeded by its index in
    ``n_list`` only, so the curve does not depend on scheduling.  The
    Gaussian reference is an exact law, so each distance is one-sample, and
    one reference serves every n, since the covariance of W does not depend
    on n for i.i.d. rows.
    """
    ref = lowerbound.reference_max_stats(spec)

    def point(item):
        i, n = item
        return lowerbound.reference_distance(
            spec, n, cfg.replications, derive_seed(cfg.seed, 1, i), ref)

    # every n has the same noise floor: same replications, same reference
    dists, ses, (floor, *_), exact = zip(*pmap(point, enumerate(cfg.n_list)))
    slope, slope_se, intercept = lowerbound.fit_power_law(
        cfg.n_list, [max(dist, 1e-300) for dist in dists])
    b = cfg.B if cfg.B is not None else math.nan
    rows = [{"experiment": cfg.experiment, "n": n, "d": cfg.d, "B": b,
             "family": cfg.family, "distance": dist, "se": se,
             "seed": cfg.seed} for n, dist, se in zip(cfg.n_list, dists, ses)]
    scale = b if cfg.B is not None else 1.0
    norm = [row["distance"] * math.sqrt(row["n"])
            / (scale * math.log(cfg.d) ** 1.5) for row in rows]
    exact_slope = lowerbound.fit_power_law(cfg.n_list, exact)[0]
    summary = {
        "slope": slope, "slope_se": slope_se,
        "intercept": intercept, "normalized": norm,
        "exact_distance": exact, "exact_slope": exact_slope,
        "noise_floor": floor,
        "distance_below_noise_floor": [e < floor for e in exact],
        "metadata": {"envelope_over_sqrt_logd":
                     (b / math.sqrt(math.log(cfg.d))) if cfg.B else None},
        "checks": {"slope_in_band":
                   slope_band[0] <= slope <= slope_band[1]},
        # the same criteria on the exact values: a report, never a check
        "exact_checks": {"slope_in_band":
                         slope_band[0] <= exact_slope <= slope_band[1]},
    }
    return rows, summary


def _run_rate_vs_n(cfg, pmap):
    spec = DistributionSpec.two_point(cfg.B, cfg.d)
    rows, summary = _rate_result(cfg, spec, (-0.65, -0.35), pmap)
    norm = summary["normalized"]
    summary["checks"]["normalized_band_le_3"] = max(norm) / min(norm) <= 3.0
    # the headline bounded-case shape at C = 1, beside the distances it
    # bounds; observables, not checks
    bound = [bounds.bound_bounded(row["n"], cfg.d, cfg.B) for row in rows]
    summary["bound"] = bound
    summary["distance_over_bound"] = [row["distance"] / b
                                      for row, b in zip(rows, bound)]
    return rows, summary


def _run_zero_skew_rate(cfg, pmap):
    return _rate_result(cfg, DistributionSpec.quasi_gaussian(cfg.d),
                        (-1.35, -0.65), pmap)


def _run_bootstrap_coverage(cfg, pmap):
    # scaling the data by c scales both the max statistic and its bootstrap
    # quantile by c, so coverage does not depend on the uniform law's bound;
    # B = 2 fixes only the units of the quantile and max_stat columns
    spec = DistributionSpec.uniform_bounded(2.0, cfg.d)

    def replication(r):
        x = sample(spec, cfg.n, derive_seed(cfg.seed, 100, r))
        draws = bootstrap.multiplier_draws(x, cfg.inner_replications,
                                           cfg.multiplier,
                                           derive_seed(cfg.seed, 101, r))
        quantile = bootstrap.simultaneous_quantile(draws, cfg.level)
        stat = float(distance.max_statistic(scaled_sum(x), "two_sided")[0])
        return {"rep": r, "covered": int(stat <= quantile),
                "quantile": quantile, "max_stat": stat}

    # fixed chunks of 50 so the work split never depends on the thread count
    reps = cfg.outer_replications
    chunks = [range(start, min(start + 50, reps))
              for start in range(0, reps, 50)]
    rows = [row for part in pmap(lambda rs: [replication(r) for r in rs],
                                 chunks) for row in part]
    coverage = float(np.mean([row["covered"] for row in rows]))
    se = math.sqrt(max(coverage * (1 - coverage), 1e-300) / reps)
    lo, hi = cfg.level - 0.02, cfg.level + 0.02
    summary = {"coverage": coverage, "se": se, "level": cfg.level,
               "checks": {"coverage_in_band": lo <= coverage <= hi}}
    return rows, summary


def _run_bootstrap_agreement(cfg, pmap):
    spec = DistributionSpec.gaussian(CovarianceModel.identity(cfg.d))
    x = sample(spec, cfg.n, derive_seed(cfg.seed, 1))
    # each side's reps x d draws are reduced to their max statistics before
    # the other side's are drawn, so only one such array is held at a time
    mult = distance.MaxStatSample.from_draws(bootstrap.multiplier_draws(
        x, cfg.replications, "gaussian", derive_seed(cfg.seed, 2)), "one_sided")
    sigma_hat = bootstrap.empirical_cov_centered(x)
    direct = distance.MaxStatSample.from_draws(sample_scaled_sums(
        DistributionSpec.gaussian(sigma_hat), 1, cfg.replications,
        derive_seed(cfg.seed, 3)), "one_sided")
    ks = distance.ks_distance(mult, direct)
    crit = distance.ks_two_sample_critical(cfg.replications, cfg.replications)
    rows = [{"n": cfg.n, "d": cfg.d, "replications": cfg.replications,
             "ks": ks, "critical": crit}]
    summary = {"ks": ks, "critical": crit,
               "checks": {"ks_below_critical": ks <= crit}}
    return rows, summary


def _run_local_means(cfg, pmap):
    def point(d):
        n = 50 * d
        identity = CovarianceModel.identity(d)
        dist, se, floor, exact = lowerbound.reference_distance(
            DistributionSpec.local_means(d), n, cfg.replications,
            derive_seed(cfg.seed, 30, d),
            lowerbound.reference_max_stats(DistributionSpec.gaussian(identity)))
        sigma_w = CovarianceModel.local_means(d)
        gap = sup_norm_diff(identity, sigma_w)
        combined, prior, coupling = bounds.bounds_local_means(n, d, 1)
        return {"d": d, "n": n, "distance": dist, "se": se,
                "noise_floor": floor, "exact_distance": exact,
                "delta0": bounds.delta0(identity, sigma_w, d),
                "comparison_bound": bounds.bound_gaussian_comparison(gap, d),
                "combined_bound": combined, "prior_bound": prior,
                "coupling_bound": coupling}

    rows = list(pmap(point, cfg.d_list))
    checks = {
        "bounds_finite": all(math.isfinite(row[k]) for row in rows
                             for k in ("comparison_bound", "combined_bound",
                                       "prior_bound", "coupling_bound")),
        "delta0_consistent": all(
            row["delta0"] <= math.log(row["d"]) / (row["d"] - 1)
            / (1 - 1 / row["d"]) + 1e-12 for row in rows),
    }

    def below_10x(key):
        return all(row[key] <= 10.0 * row["combined_bound"] for row in rows)
    checks["distance_below_10x_combined"] = below_10x("distance")
    return rows, {"rows": rows, "checks": checks, "exact_checks": {
        "distance_below_10x_combined": below_10x("exact_distance")}}


def _ratio_check(values) -> bool:
    values = [v for v in values if math.isfinite(v) and v > 0]
    return len(values) >= 2 and max(values) / min(values) <= 2.0


def _run_smoothing_verify(cfg, pmap):
    # one serial call at any --threads: its GIL-bound cells run slower threaded
    rows = smoothing.verify_lemmas(cfg.d_list, cfg.v_list, cfg.phi_list,
                                   cfg.eps_list)
    checks = {}
    for v in cfg.v_list:
        checks[f"c61_stable_v{v}"] = _ratio_check(
            [row["attained_C61"] for row in rows if row["v"] == v
             and row["eps"] == 1.0 and math.isfinite(row["phi"])])
        checks[f"c62_stable_v{v}"] = _ratio_check(
            [row["attained_C62"] for row in rows
             if row["v"] == v and math.isinf(row["phi"])])

    # a far sum that underflowed to 0 (ratio inf) measures no decay
    decay_rows = [row for row in rows if row["v"] == 1]
    checks["decay_v1"] = bool(decay_rows) and all(
        smoothing.decay_bound(row["d"]) <= row["decay_ratio"] < math.inf
        for row in decay_rows)
    # S_v is a summary series, not a CSV column
    return rows, {"checks": checks, "S_v": [row.pop("S_v") for row in rows]}


def _run_gaussian_comparison(cfg, pmap):
    identity = CovarianceModel.identity(cfg.d)
    # the exact isotropic reference law is shared across rho
    ref = lowerbound.reference_max_stats(DistributionSpec.gaussian(identity))

    def point(i):
        rho = cfg.rho_list[i]
        other = CovarianceModel.equicorrelation(cfg.d, rho)
        gap = sup_norm_diff(identity, other)
        # exact is nan for rho < 0, where the max has no exact law here
        measured, se, floor, exact = lowerbound.reference_distance(
            DistributionSpec.gaussian(other), 1, cfg.replications,
            derive_seed(cfg.seed, 61, i), ref)
        return {"rho": rho, "D": gap, "measured": measured,
                "bound": bounds.bound_gaussian_comparison(gap, cfg.d),
                "se": se, "noise_floor": floor, "exact_distance": exact}

    rows = list(pmap(point, range(len(cfg.rho_list))))
    checks = {"measured_below_bound": all(row["measured"] <= row["bound"]
                                         for row in rows)}
    # a row with no exact law gives no exact verdict; no row, none at all
    exact = [row for row in rows if not math.isnan(row["exact_distance"])]
    return rows, {"rows": rows, "checks": checks, "exact_checks": {
        "measured_below_bound": all(row["exact_distance"] <= row["bound"]
                                    for row in exact) if exact else None}}


def _run_poisson_check(cfg, pmap):
    rec = lowerbound.poisson_approx_check(
        DistributionSpec.two_point(cfg.B, cfg.d), cfg.n, cfg.replications,
        derive_seed(cfg.seed, 40))
    row = {"n": cfg.n, "d": cfg.d, "B": cfg.B, **rec}
    checks = {
        "residual_within_bound":
            rec["residual"] <= rec["residual_bound"] + 4.0 * rec["propagated_se"],
        "lambda_le_10": rec["lambda_hat"] <= 10.0,
    }
    return [row], {"record": row, "checks": checks, "exact_checks": {
        "residual_within_bound":
            rec["exact_residual"] <= rec["exact_lambda"] ** 2 / cfg.d}}


def _run_anticoncentration(cfg, pmap):
    # the probe's exact value, max_z P(z < max Z <= z + eps), over the
    # quantile grid of the exact law of max Z
    law = maxlaw.IsotropicGaussianMax(cfg.d)
    z = maxlaw.quantile_grid(law)

    def point(i):
        eps = cfg.eps_list[i]
        probe = distance.anticoncentration_probe(
            cfg.d, eps, cfg.replications, seed=derive_seed(cfg.seed, 50, i))
        return {"d": cfg.d, "eps": eps, "probe": probe,
                "nazarov_shape": eps * math.sqrt(math.log(cfg.d)),
                "se": math.sqrt(probe * (1 - probe) / cfg.replications),
                "exact_probe": float(np.max(law.cdf(z + eps) - law.cdf(z)))}

    rows = list(pmap(point, range(len(cfg.eps_list))))
    doubling = [(a, b) for a, b in zip(rows, rows[1:])
                if abs(b["eps"] - 2 * a["eps"]) < 1e-12]

    def verdicts(key):
        return {"below_2x_shape": all(row[key] <= 2.0 * row["nazarov_shape"]
                                      for row in rows),
                "linear_in_eps": bool(doubling) and all(
                    1.5 <= b[key] / a[key] <= 2.5 for a, b in doubling)}
    return rows, {"rows": rows, "checks": verdicts("probe"),
                  "exact_checks": verdicts("exact_probe")}


@dataclass(frozen=True)
class Experiment:
    """One experiment: its keys with their desk-scale defaults (besides
    RUN_KEYS it accepts exactly these, and any of them can be overridden),
    its body ``body(config, pmap) -> (rows, summary)``, whose row dicts are
    its CSV rows, and the ``(x, y, se, kind)`` row keys it plots (se None:
    no bars)."""

    defaults: dict
    body: Callable
    plot: Optional[tuple] = None


EXPERIMENTS = {
    "rate_vs_n": Experiment(
        {"B": 2.0, "d": 50, "n_list": [250, 500, 1000, 2000],
         "replications": 200_000, "ref_factor": 10, "family": "one_sided_max"},
        _run_rate_vs_n, plot=("n", "distance", "se", "loglog")),
    "zero_skew_rate": Experiment(
        {"d": 20, "n_list": [100, 200, 400], "replications": 1_000_000,
         "ref_factor": 2, "family": "one_sided_max"},
        _run_zero_skew_rate, plot=("n", "distance", "se", "loglog")),
    "bootstrap_coverage": Experiment(
        {"n": 500, "d": 20, "level": 0.9, "multiplier": "gaussian",
         "inner_replications": 2000, "outer_replications": 2000},
        _run_bootstrap_coverage),
    "bootstrap_agreement": Experiment(
        {"n": 200, "d": 10, "replications": 100_000},
        _run_bootstrap_agreement),
    "local_means": Experiment(
        {"d_list": [10, 40], "replications": 100_000, "ref_factor": 10},
        _run_local_means, plot=("d", "distance", None, "linear")),
    "smoothing_verify": Experiment(
        {"d_list": [3], "v_list": [1, 2],
         "phi_list": [4.0, 8.0, 16.0, 32.0, math.inf],
         "eps_list": [1.0, 0.5, 0.25]},
        _run_smoothing_verify),
    "gaussian_comparison": Experiment(
        {"d": 10, "rho_list": [0.05, 0.1, 0.2], "replications": 200_000},
        _run_gaussian_comparison, plot=("rho", "measured", None, "linear")),
    "poisson_check": Experiment(
        {"B": 2.0, "n": 1000, "d": 50, "replications": 200_000},
        _run_poisson_check),
    "anticoncentration": Experiment(
        {"d": 20, "eps_list": [0.05, 0.1, 0.2], "replications": 200_000},
        _run_anticoncentration, plot=("eps", "probe", None, "linear")),
}


# -- persistence --------------------------------------------------------------

def _write_text(path: str, text: str) -> None:
    """Write one artifact; a failed write raises IoFailure."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write_csv(path: str, rows) -> None:
    """Write the row dicts under a header of the first row's keys: the code
    that builds a row is the one statement of its column order.  A float
    cell is its ``str``, which is its shortest round-trip ``repr``."""
    lines = [",".join(rows[0])]
    lines += [",".join(str(row[c]) for c in rows[0]) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


@dataclass(frozen=True)
class RunManifest:
    """Record of one completed experiment run."""

    experiment: str
    config_hash: str
    tool_version: str
    seed: int
    started: str
    finished: str
    csv_paths: list
    summary_path: str
    plot_paths: list
    summary: dict = field(compare=False)

    def to_record(self) -> dict:
        """The manifest.json record: every field but the summary."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "summary"}

    @property
    def all_checks_pass(self) -> bool:
        """True when the summary has at least one check and all pass."""
        checks = self.summary.get("checks", {})
        return bool(checks) and all(checks.values())


def run(config: ExperimentConfig, out_dir=None, threads: int = 1) -> RunManifest:
    """Execute one experiment and persist CSV, summary JSON, SVG, manifest."""
    out_dir = out_dir or os.path.join("hdclt_runs", config.experiment)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir}: {exc}") from exc

    _read_manifest(os.path.join(out_dir, "manifest.json"))  # fail early
    exp = EXPERIMENTS[config.experiment]
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    rows, summary = exp.body(config, _pmap(threads))
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()

    csv_path = os.path.join(out_dir, f"{config.experiment}.csv")
    _write_csv(csv_path, rows)

    summary_path = os.path.join(out_dir, "summary.json")
    summary = {"experiment": config.experiment, "seed": config.seed,
               **_json_safe(summary)}
    _write_text(summary_path,
                json.dumps(summary, indent=2, sort_keys=True) + "\n")

    plot_paths = []
    if exp.plot is not None:
        x, y, se, kind = exp.plot
        series = [(row[x], row[y], row[se] if se else 0.0) for row in rows]
        plot_path = os.path.join(out_dir, f"{config.experiment}.svg")
        emit_plot(series, kind, plot_path)
        plot_paths.append(plot_path)

    manifest = RunManifest(experiment=config.experiment,
                           config_hash=config.digest(),
                           tool_version=__version__, seed=config.seed,
                           started=started, finished=finished,
                           csv_paths=[csv_path], summary_path=summary_path,
                           plot_paths=plot_paths, summary=summary)
    _append_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _read_manifest(path: str) -> list:
    if not os.path.exists(path):
        return []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot append to {path}: {exc}") from exc
    if not isinstance(records, list):
        raise IoFailure(f"cannot append to {path}: not a JSON array")
    return records


def _append_manifest(path: str, manifest: RunManifest) -> None:
    records = _read_manifest(path) + [manifest.to_record()]
    _write_text(path, json.dumps(records, indent=2) + "\n")


# -- SVG plotting -------------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_MARGIN = 64


def emit_plot(series, kind: str, path) -> Optional[float]:
    """Write a self-contained SVG of (x, y, se) points.

    ``kind`` is "loglog" (log10 axes, fitted-slope annotation, returns the
    slope) or "linear" (returns None).  Error bars span y +- se.
    """
    series = list(series)
    if not series:
        raise ValueError("emit_plot requires a non-empty series")
    if kind not in ("loglog", "linear"):
        raise ValueError(f"unknown plot kind {kind!r}")
    xs = np.array([float(p[0]) for p in series])
    ys = np.array([float(p[1]) for p in series])
    ses = np.array([float(p[2]) for p in series])

    slope = None
    if kind == "loglog":
        if np.any(xs <= 0) or np.any(ys <= 0):
            raise ValueError("loglog plot requires positive x and y")
        if xs.size >= 2:
            slope, _, _ = lowerbound.fit_power_law(xs, ys)
        tx, ty = np.log10(xs), np.log10(ys)
        lo_y = np.log10(np.maximum(ys - ses, ys * 1e-3))
        hi_y = np.log10(ys + ses)
    else:
        tx, ty = xs, ys
        lo_y, hi_y = ys - ses, ys + ses

    x0, x1 = float(tx.min()), float(tx.max())
    y0, y1 = float(min(lo_y.min(), ty.min())), float(max(hi_y.max(), ty.max()))
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(v):
        return _MARGIN + (v - x0) / (x1 - x0) * (_SVG_W - 2 * _MARGIN)

    def py(v):
        return _SVG_H - _MARGIN - (v - y0) / (y1 - y0) * (_SVG_H - 2 * _MARGIN)

    def label(v):
        return f"{10**v:.3g}" if kind == "loglog" else f"{v:.3g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
    ]
    for t in np.linspace(x0, x1, 5):
        parts.append(f'<text x="{px(t):.1f}" y="{_SVG_H - _MARGIN + 20}" '
                     f'font-size="11" text-anchor="middle">{label(t)}</text>')
    for t in np.linspace(y0, y1, 5):
        parts.append(f'<text x="{_MARGIN - 8}" y="{py(t):.1f}" font-size="11" '
                     f'text-anchor="end">{label(t)}</text>')

    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(tx, ty))
    if tx.size > 1:
        parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
                     f'stroke-width="1.5"/>')
    for a, b, lo, hi in zip(tx, ty, lo_y, hi_y):
        parts.append(f'<line x1="{px(a):.2f}" y1="{py(lo):.2f}" '
                     f'x2="{px(a):.2f}" y2="{py(hi):.2f}" stroke="gray"/>')
        parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" '
                     f'fill="steelblue"/>')
    if slope is not None:
        parts.append(f'<text x="{_SVG_W - _MARGIN}" y="{_MARGIN - 10}" '
                     f'font-size="13" text-anchor="end">'
                     f'slope = {slope:.6f}</text>')
    parts.append("</svg>")

    _write_text(path, "\n".join(parts) + "\n")
    return slope
