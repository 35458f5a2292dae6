"""Configuration-driven experiment orchestration: CSV/JSON/SVG emission.

Configs are flat ``key = value`` text files (grammar documented in the
README); every numeric output is a pure function of (config, seed), never of
the worker-thread count.  Each run appends a record to ``manifest.json`` in
its output directory and writes one CSV per experiment with a fixed column
order, a ``summary.json`` with pass/fail verdicts, and a best-effort SVG.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import bootstrap, bounds, distance, lowerbound, smoothing
from ._version import __version__
from .errors import ConfigInvalid, IoFailure
from .matcore import CovarianceModel, sup_norm_diff
from .sampler import (DistributionSpec, derive_seed, sample, scaled_sum,
                      sample_scaled_sums)

EXPERIMENTS = ("rate_vs_n", "zero_skew_rate", "bootstrap_coverage",
               "bootstrap_agreement", "local_means", "smoothing_verify",
               "gaussian_comparison", "poisson_check", "anticoncentration")

# config key -> value type tag; any key outside this table is rejected
SCHEMA = {
    "experiment": "str", "seed": "int", "replications": "int",
    "n": "int", "d": "int", "B": "float",
    "n_list": "int_list", "d_list": "int_list",
    "kappa_geom": "int", "q": "float", "level": "float",
    "multiplier": "str", "family": "str",
    "inner_replications": "int", "outer_replications": "int",
    "ref_factor": "int",
    "eps_list": "float_list", "phi_list": "float_list", "v_list": "int_list",
    "K": "float", "kappa": "float", "half_width": "float",
    "rho_list": "float_list",
    "constants_c": "float", "out_dir": "str", "threads": "int",
}

# desk-scale defaults per experiment; every value is overridable
DEFAULTS = {
    "rate_vs_n": {"B": 2.0, "d": 50, "n_list": [250, 500, 1000, 2000],
                  "replications": 200_000, "ref_factor": 10,
                  "family": "one_sided_max"},
    "zero_skew_rate": {"d": 20, "n_list": [100, 200, 400],
                       "replications": 1_000_000, "ref_factor": 2,
                       "family": "one_sided_max"},
    "bootstrap_coverage": {"n": 500, "d": 20, "B": 2.0, "level": 0.9,
                           "multiplier": "gaussian",
                           "inner_replications": 2000,
                           "outer_replications": 2000},
    "bootstrap_agreement": {"n": 200, "d": 10, "replications": 100_000},
    "local_means": {"d_list": [10, 40], "kappa_geom": 1,
                    "replications": 100_000, "ref_factor": 10},
    "smoothing_verify": {"d_list": [3], "v_list": [1, 2],
                         "phi_list": [4.0, 8.0, 16.0, 32.0, math.inf],
                         "eps_list": [1.0, 0.5, 0.25],
                         "K": 4.0, "kappa": 4.0, "half_width": 1.5},
    "gaussian_comparison": {"d": 10, "rho_list": [0.05, 0.1, 0.2],
                            "replications": 200_000},
    "poisson_check": {"B": 2.0, "n": 1000, "d": 50, "replications": 200_000},
    "anticoncentration": {"d": 20, "eps_list": [0.05, 0.1, 0.2],
                          "replications": 200_000},
}


def _parse_value(key: str, raw: str):
    kind = SCHEMA[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "int_list":
            return [int(tok) for tok in raw.replace(",", " ").split()]
        if kind == "float_list":
            return [float(tok) for tok in raw.replace(",", " ").split()]
        return raw
    except ValueError as exc:
        raise ConfigInvalid(f"bad value for {key!r}: {raw!r}") from exc


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
        if key not in SCHEMA:
            raise ConfigInvalid(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigInvalid(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(key, raw)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted description of one experiment run."""

    experiment: str
    seed: int = 0
    replications: Optional[int] = None
    n: Optional[int] = None
    d: Optional[int] = None
    B: Optional[float] = None
    n_list: Optional[list] = None
    d_list: Optional[list] = None
    kappa_geom: Optional[int] = None
    q: Optional[float] = None
    level: Optional[float] = None
    multiplier: Optional[str] = None
    family: Optional[str] = None
    inner_replications: Optional[int] = None
    outer_replications: Optional[int] = None
    ref_factor: Optional[int] = None
    eps_list: Optional[list] = None
    phi_list: Optional[list] = None
    v_list: Optional[list] = None
    K: Optional[float] = None
    kappa: Optional[float] = None
    half_width: Optional[float] = None
    rho_list: Optional[list] = None
    constants_c: float = 1.0
    out_dir: Optional[str] = None
    threads: Optional[int] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalid(f"unknown experiment {self.experiment!r}")
        for key in ("replications", "n", "d", "inner_replications",
                    "outer_replications", "ref_factor", "kappa_geom"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigInvalid(f"{key} must be >= 1")
        if self.level is not None and not 0.0 < self.level < 1.0:
            raise ConfigInvalid("level must lie in (0, 1)")
        if self.multiplier is not None and self.multiplier not in bootstrap.MULTIPLIER_KINDS:
            raise ConfigInvalid(f"unknown multiplier {self.multiplier!r}")
        if self.family is not None and self.family not in ("one_sided_max",
                                                           "two_sided_max"):
            raise ConfigInvalid(f"unknown family {self.family!r}")
        if self.constants_c <= 0:
            raise ConfigInvalid("constants_c must be > 0")
        for key in ("n_list", "d_list"):
            value = getattr(self, key)
            if value is not None and (not value or any(v < 1 for v in value)):
                raise ConfigInvalid(f"{key} must be a nonempty positive list")
        for key in ("eps_list", "phi_list", "v_list", "rho_list"):
            if getattr(self, key) == []:
                raise ConfigInvalid(f"{key} must be nonempty")
        self._check_experiment()

    def _check_experiment(self):
        """Reject values the experiment's own code cannot run, before any
        output directory exists."""
        exp = self.experiment
        if exp in ("rate_vs_n", "zero_skew_rate") and self.d is not None \
                and self.d < 2:
            raise ConfigInvalid("d must be >= 2 (the normalization divides "
                                "by log d)")
        if exp in ("rate_vs_n", "poisson_check") and self.B is not None \
                and not self.B >= 2.0:
            raise ConfigInvalid("B must be >= 2 for the two-point family")
        if exp == "bootstrap_coverage" and self.inner_replications is not None \
                and self.inner_replications < bootstrap.MIN_QUANTILE_DRAWS:
            raise ConfigInvalid("inner_replications must be >= "
                                f"{bootstrap.MIN_QUANTILE_DRAWS}")
        if exp in ("local_means", "smoothing_verify") and any(
                d < 2 for d in self.d_list or ()):
            raise ConfigInvalid("d_list entries must be >= 2")
        if exp == "smoothing_verify":
            self._check_smoothing()

    def _check_smoothing(self):
        """Reject grids the derivative sums cannot evaluate."""
        if any(not phi > 0 for phi in self.phi_list or ()):
            raise ConfigInvalid("phi_list entries must be > 0 (inf allowed)")
        if any(not eps > 0 for eps in self.eps_list or ()):
            raise ConfigInvalid("eps_list entries must be > 0")
        if any(not 1 <= v <= smoothing.MAX_SUM_ORDER for v in self.v_list or ()):
            raise ConfigInvalid(
                f"v_list entries must lie in 1..{smoothing.MAX_SUM_ORDER}")
        for d in self.d_list or ():
            for v in self.v_list or ():
                if d**v > smoothing.TUPLE_BUDGET:
                    raise ConfigInvalid(f"d^v = {d}^{v} exceeds the tuple "
                                        f"budget {smoothing.TUPLE_BUDGET}")

    @staticmethod
    def from_mapping(mapping: dict) -> "ExperimentConfig":
        if "experiment" not in mapping:
            raise ConfigInvalid("config must set 'experiment'")
        unknown = set(mapping) - set(SCHEMA)
        if unknown:
            raise ConfigInvalid(f"unknown keys: {sorted(unknown)}")
        merged = {**DEFAULTS[mapping["experiment"]], **mapping} \
            if mapping["experiment"] in EXPERIMENTS \
            else dict(mapping)
        return ExperimentConfig(**merged)

    def canonical_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or f.name in ("out_dir", "threads"):
                continue
            if isinstance(value, list):
                value = " ".join(repr(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def policy(self) -> bounds.ConstantsPolicy:
        return bounds.ConstantsPolicy("config", {"C": self.constants_c})


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


# -- experiment bodies --------------------------------------------------------

@dataclass
class ExperimentResult:
    columns: tuple
    rows: list
    summary: dict
    plot: Optional[tuple] = None  # (series, kind)


def _rate_result(cfg: ExperimentConfig, spec: DistributionSpec,
                 slope_band: tuple, pmap) -> ExperimentResult:
    curve = lowerbound.rate_curve(spec, cfg.d, cfg.n_list, cfg.replications,
                                  cfg.family, cfg.seed, cfg.ref_factor, pmap)
    b = cfg.B if cfg.B is not None else math.nan
    rows = [{"experiment": cfg.experiment, "n": p.n, "d": cfg.d, "B": b,
             "family": cfg.family, "distance": p.distance, "se": p.se,
             "seed": cfg.seed} for p in curve.points]
    scale = b if cfg.B is not None else 1.0
    norm = [p.distance * math.sqrt(p.n) / (scale * math.log(cfg.d) ** 1.5)
            for p in curve.points]
    checks = {"slope_in_band": slope_band[0] <= curve.slope <= slope_band[1]}
    summary = {
        "slope": curve.slope, "slope_se": curve.slope_se,
        "intercept": curve.intercept, "normalized": norm,
        "metadata": {"envelope_over_sqrt_logd":
                     (b**4 / math.sqrt(math.log(cfg.d))) if cfg.B else None},
        "checks": checks,
    }
    if cfg.experiment == "rate_vs_n":
        checks["normalized_band_le_3"] = max(norm) / min(norm) <= 3.0
    series = [(p.n, p.distance, p.se) for p in curve.points]
    return ExperimentResult(
        columns=("experiment", "n", "d", "B", "family", "distance", "se", "seed"),
        rows=rows, summary=summary, plot=(series, "loglog"))


def _run_rate_vs_n(cfg, pmap):
    spec = DistributionSpec.two_point(cfg.B, cfg.d)
    return _rate_result(cfg, spec, (-0.65, -0.35), pmap)


def _run_zero_skew_rate(cfg, pmap):
    spec = DistributionSpec.quasi_gaussian(DistributionSpec.rademacher(cfg.d),
                                           CovarianceModel.identity(cfg.d))
    return _rate_result(cfg, spec, (-1.35, -0.65), pmap)


def _coverage_chunk(args):
    cfg, start, stop = args
    spec = DistributionSpec.uniform_bounded(cfg.B, cfg.d)
    rows = []
    for r in range(start, stop):
        x = sample(spec, cfg.n, derive_seed(cfg.seed, 100, r))
        draws = bootstrap.multiplier_draws(x, cfg.inner_replications,
                                           cfg.multiplier,
                                           derive_seed(cfg.seed, 101, r))
        quantile = bootstrap.simultaneous_quantile(draws, cfg.level, "two_sided")
        stat = float(np.max(np.abs(scaled_sum(x))))
        rows.append({"rep": r, "covered": int(stat <= quantile),
                     "quantile": quantile, "max_stat": stat})
    return rows


def _run_bootstrap_coverage(cfg, pmap):
    # fixed chunk size so the work split never depends on the thread count
    chunk = 50
    reps = cfg.outer_replications
    tasks = [(cfg, start, min(start + chunk, reps))
             for start in range(0, reps, chunk)]
    rows = [row for part in pmap(_coverage_chunk, tasks) for row in part]
    coverage = float(np.mean([row["covered"] for row in rows]))
    se = math.sqrt(max(coverage * (1 - coverage), 1e-300) / reps)
    lo, hi = cfg.level - 0.02, cfg.level + 0.02
    summary = {"coverage": coverage, "se": se, "level": cfg.level,
               "checks": {"coverage_in_band": lo <= coverage <= hi}}
    return ExperimentResult(columns=("rep", "covered", "quantile", "max_stat"),
                            rows=rows, summary=summary)


def _run_bootstrap_agreement(cfg, pmap):
    spec = DistributionSpec.gaussian(CovarianceModel.identity(cfg.d))
    x = sample(spec, cfg.n, derive_seed(cfg.seed, 1))
    mult = bootstrap.multiplier_draws(x, cfg.replications, "gaussian",
                                      derive_seed(cfg.seed, 2))
    sigma_hat = bootstrap.empirical_cov_centered(x)
    direct = sample_scaled_sums(DistributionSpec.gaussian(sigma_hat), 1,
                                cfg.replications, derive_seed(cfg.seed, 3))
    ks = distance.ks_distance(
        distance.MaxStatSample.from_draws(mult, "one_sided"),
        distance.MaxStatSample.from_draws(direct, "one_sided"))
    crit = distance.ks_two_sample_critical(cfg.replications, cfg.replications)
    rows = [{"n": cfg.n, "d": cfg.d, "replications": cfg.replications,
             "ks": ks, "critical": crit}]
    summary = {"ks": ks, "critical": crit,
               "checks": {"ks_below_critical": ks <= crit}}
    return ExperimentResult(columns=("n", "d", "replications", "ks", "critical"),
                            rows=rows, summary=summary)


def _local_means_row(args):
    cfg, d = args
    n = 50 * d
    spec = DistributionSpec.local_means(d)
    draws = sample_scaled_sums(spec, n, cfg.replications,
                               derive_seed(cfg.seed, 30, d))
    ref_spec = DistributionSpec.gaussian(CovarianceModel.identity(d))
    ref = lowerbound.reference_max_stats(ref_spec,
                                         cfg.replications * cfg.ref_factor,
                                         derive_seed(cfg.seed, 31, d))
    dist = distance.ks_distance(
        distance.MaxStatSample.from_draws(draws, "one_sided"), ref)
    identity = CovarianceModel.identity(d)
    sigma_w = CovarianceModel.local_means(d)
    gap = sup_norm_diff(identity, sigma_w)
    d0 = bounds.delta0(identity, sigma_w, 1.0, d)
    comparison = bounds.bound_gaussian_comparison(gap, 1.0, d, cfg.policy())
    combined, prior, coupling = bounds.bounds_local_means(n, d, cfg.kappa_geom,
                                                          cfg.policy())
    return {"d": d, "n": n, "distance": dist, "delta0": d0,
            "comparison_bound": comparison.value,
            "combined_bound": combined.value, "prior_bound": prior.value,
            "coupling_bound": coupling.value}


def _run_local_means(cfg, pmap):
    rows = list(pmap(_local_means_row, [(cfg, d) for d in cfg.d_list]))
    checks = {
        "bounds_finite": all(math.isfinite(row[k]) for row in rows
                             for k in ("comparison_bound", "combined_bound",
                                       "prior_bound", "coupling_bound")),
        "delta0_consistent": all(
            row["delta0"] <= math.log(row["d"]) / (row["d"] - 1)
            / (1 - 1 / row["d"]) + 1e-12 for row in rows),
        "distance_below_10x_combined": all(
            row["distance"] <= 10.0 * row["combined_bound"] for row in rows),
    }
    summary = {"rows": rows, "checks": checks}
    series = [(row["d"], row["distance"], 0.0) for row in rows]
    return ExperimentResult(
        columns=("d", "n", "distance", "delta0", "comparison_bound",
                 "combined_bound", "prior_bound", "coupling_bound"),
        rows=rows, summary=summary, plot=(series, "linear"))


def _smoothing_cell(args):
    cfg, phi, eps = args
    return smoothing.verify_lemmas(cfg.d_list, cfg.v_list, [phi], [eps],
                                   cfg.K, cfg.kappa, cfg.half_width)


def _ratio_check(values) -> bool:
    values = [v for v in values if math.isfinite(v) and v > 0]
    return bool(values) and max(values) / min(values) <= 2.0


def _run_smoothing_verify(cfg, pmap):
    cells = [(cfg, phi, eps) for phi in cfg.phi_list for eps in cfg.eps_list]
    rows = [row for part in pmap(_smoothing_cell, cells) for row in part]
    checks = {}
    for v in cfg.v_list:
        c61 = [row["attained_C61"] for row in rows
               if row["v"] == v and row["eps"] == 1.0
               and math.isfinite(row["phi"])]
        if c61:
            checks[f"c61_stable_v{v}"] = _ratio_check(c61)
        c62 = [row["attained_C62"] for row in rows
               if row["v"] == v and math.isinf(row["phi"])]
        if c62:
            checks[f"c62_stable_v{v}"] = _ratio_check(c62)
    decay_rows = [row for row in rows if row["v"] == 1]
    if decay_rows:
        checks["decay_v1"] = all(
            row["decay_ratio"] >= math.exp(
                (cfg.kappa - cfg.K / math.sqrt(math.log(row["d"]))) ** 2 / 8.0)
            for row in decay_rows)
    summary = {"checks": checks}
    return ExperimentResult(columns=smoothing.VERIFY_COLUMNS, rows=rows,
                            summary=summary)


def _gaussian_comparison_row(args):
    cfg, i, rho = args
    identity = CovarianceModel.identity(cfg.d)
    other = CovarianceModel.equicorrelation(cfg.d, rho)
    gap = sup_norm_diff(identity, other)
    draws_a = sample_scaled_sums(DistributionSpec.gaussian(identity), 1,
                                 cfg.replications, derive_seed(cfg.seed, 60, i))
    draws_b = sample_scaled_sums(DistributionSpec.gaussian(other), 1,
                                 cfg.replications, derive_seed(cfg.seed, 61, i))
    measured = distance.ks_distance(
        distance.MaxStatSample.from_draws(draws_a, "one_sided"),
        distance.MaxStatSample.from_draws(draws_b, "one_sided"))
    bound = bounds.bound_gaussian_comparison(gap, 1.0, cfg.d, cfg.policy())
    return {"rho": rho, "D": gap, "measured": measured, "bound": bound.value}


def _run_gaussian_comparison(cfg, pmap):
    tasks = [(cfg, i, rho) for i, rho in enumerate(cfg.rho_list)]
    rows = list(pmap(_gaussian_comparison_row, tasks))
    checks = {"measured_below_bound": all(row["measured"] <= row["bound"]
                                         for row in rows)}
    summary = {"rows": rows, "checks": checks}
    series = [(row["rho"], row["measured"], 0.0) for row in rows]
    return ExperimentResult(columns=("rho", "D", "measured", "bound"),
                            rows=rows, summary=summary,
                            plot=(series, "linear"))


def _run_poisson_check(cfg, pmap):
    spec = DistributionSpec.two_point(cfg.B, cfg.d)
    rec = lowerbound.poisson_approx_check(spec, cfg.n, cfg.d,
                                          cfg.replications,
                                          derive_seed(cfg.seed, 40))
    exact_tail = lowerbound.two_point_marginal_tail(cfg.B, cfg.n, rec.x_n)
    rows = [{"n": cfg.n, "d": cfg.d, "B": cfg.B, "x_n": rec.x_n,
             "f_hat": rec.f_hat, "lambda_hat": rec.lambda_hat,
             "exact_tail": exact_tail, "residual": rec.residual,
             "residual_bound": rec.residual_bound,
             "propagated_se": rec.propagated_se}]
    checks = {
        "residual_within_bound":
            rec.residual <= rec.residual_bound + 4.0 * rec.propagated_se,
        "lambda_le_10": rec.lambda_hat <= 10.0,
    }
    summary = {"record": rows[0], "checks": checks}
    return ExperimentResult(
        columns=("n", "d", "B", "x_n", "f_hat", "lambda_hat", "exact_tail",
                 "residual", "residual_bound", "propagated_se"),
        rows=rows, summary=summary)


def _anticoncentration_row(args):
    cfg, i, eps = args
    sigma = CovarianceModel.identity(cfg.d)
    probe = distance.anticoncentration_probe(sigma, eps, cfg.replications,
                                             seed=derive_seed(cfg.seed, 50, i))
    shape = eps * math.sqrt(math.log(cfg.d))
    return {"d": cfg.d, "eps": eps, "probe": probe, "nazarov_shape": shape}


def _run_anticoncentration(cfg, pmap):
    tasks = [(cfg, i, eps) for i, eps in enumerate(cfg.eps_list)]
    rows = list(pmap(_anticoncentration_row, tasks))
    checks = {"below_2x_shape": all(row["probe"] <= 2.0 * row["nazarov_shape"]
                                    for row in rows)}
    doubling = [(a, b) for a, b in zip(rows, rows[1:])
                if abs(b["eps"] - 2 * a["eps"]) < 1e-12]
    if doubling:
        checks["linear_in_eps"] = all(
            1.5 <= b["probe"] / a["probe"] <= 2.5 for a, b in doubling)
    summary = {"rows": rows, "checks": checks}
    series = [(row["eps"], row["probe"], 0.0) for row in rows]
    return ExperimentResult(columns=("d", "eps", "probe", "nazarov_shape"),
                            rows=rows, summary=summary,
                            plot=(series, "linear"))


_EXPERIMENT_FUNCS = {
    "rate_vs_n": _run_rate_vs_n,
    "zero_skew_rate": _run_zero_skew_rate,
    "bootstrap_coverage": _run_bootstrap_coverage,
    "bootstrap_agreement": _run_bootstrap_agreement,
    "local_means": _run_local_means,
    "smoothing_verify": _run_smoothing_verify,
    "gaussian_comparison": _run_gaussian_comparison,
    "poisson_check": _run_poisson_check,
    "anticoncentration": _run_anticoncentration,
}


# -- persistence --------------------------------------------------------------

def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, columns, rows) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt_cell(row[c]) for c in columns) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _json_safe(float(obj))
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
        return {"experiment": self.experiment, "config_hash": self.config_hash,
                "tool_version": self.tool_version, "seed": self.seed,
                "started": self.started, "finished": self.finished,
                "csv_paths": self.csv_paths, "summary_path": self.summary_path,
                "plot_paths": self.plot_paths}

    @property
    def all_checks_pass(self) -> bool:
        """True when the summary has at least one check and all pass."""
        checks = self.summary.get("checks", {})
        return bool(checks) and all(checks.values())


def run(config: ExperimentConfig, out_dir=None, threads: int = 1) -> RunManifest:
    """Execute one experiment and persist CSV, summary JSON, SVG, manifest."""
    out_dir = out_dir or config.out_dir or os.path.join("hdclt_runs",
                                                        config.experiment)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir}: {exc}") from exc

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    result = _EXPERIMENT_FUNCS[config.experiment](config, _pmap(threads))
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()

    csv_path = os.path.join(out_dir, f"{config.experiment}.csv")
    _write_csv(csv_path, result.columns, result.rows)

    summary_path = os.path.join(out_dir, "summary.json")
    summary = {"experiment": config.experiment, "seed": config.seed,
               **_json_safe(result.summary)}
    try:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {summary_path}: {exc}") from exc

    plot_paths = []
    if result.plot is not None:
        series, kind = result.plot
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


def _append_manifest(path: str, manifest: RunManifest) -> None:
    records = []
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                records = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise IoFailure(f"cannot append to {path}: {exc}") from exc
    records.append(manifest.to_record())
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# -- SVG plotting -------------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_MARGIN = 64


def _axis_ticks(lo: float, hi: float, count: int = 5):
    return np.linspace(lo, hi, count)


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
    for t in _axis_ticks(x0, x1):
        parts.append(f'<text x="{px(t):.1f}" y="{_SVG_H - _MARGIN + 20}" '
                     f'font-size="11" text-anchor="middle">{label(t)}</text>')
    for t in _axis_ticks(y0, y1):
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

    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return slope
