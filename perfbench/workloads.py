"""Benchmark workloads: the experiment configs each one runs, its thread
count, and the amount of work its configs define.

Work is counted from the validated configs, never from calls into the
program, so a change that does fewer internal operations for the same
output is credited rather than hidden.
"""

from __future__ import annotations

import math
import os

# the (phi, eps) grid of the default smoothing_verify config
SMOOTHING_PHI = (4.0, 8.0, 16.0, 32.0, math.inf)
SMOOTHING_EPS = (1.0, 0.5, 0.25)

# label -> config overrides on top of the experiment's own defaults
WORKLOADS = {
    # Gaussian-approximation and lower-bound path: exact scaled-sum
    # transforms, Gaussian reference draws and KS sorting; no bootstrap
    # and no smoothing.  Sets the peak memory.
    "max_stat": {
        "threads": 1,
        "work_unit": "draws",
        "experiments": [
            ("rate_vs_n", {"experiment": "rate_vs_n"}),
            ("poisson_check", {"experiment": "poisson_check"}),
            ("local_means", {"experiment": "local_means"}),
            ("gaussian_comparison", {"experiment": "gaussian_comparison"}),
            ("anticoncentration", {"experiment": "anticoncentration"}),
        ],
    },
    # Multiplier bootstrap on explicit data matrices.  outer_replications is
    # cut from the default 2000 so one pass takes seconds, not a minute; the
    # mammen half has no Gaussian shortcut and serves as the control.
    "bootstrap": {
        "threads": 2,
        "work_unit": "draws",
        "experiments": [
            ("bootstrap_coverage.gaussian",
             {"experiment": "bootstrap_coverage", "outer_replications": 400,
              "multiplier": "gaussian"}),
            ("bootstrap_coverage.mammen",
             {"experiment": "bootstrap_coverage", "outer_replications": 400,
              "multiplier": "mammen"}),
            ("bootstrap_agreement", {"experiment": "bootstrap_agreement"}),
        ],
    },
    # Deterministic quadrature sweep: pure Python plus Gauss-Legendre, no
    # RNG, no sampler, bootstrap or distance code.  The default grid runs as
    # one call per (phi, eps) cell, about 1.6 s each, so the machine-speed
    # reference (machine_speed.py) is sampled often enough to follow the
    # host's drift; the cells together are the default config's work.
    "smoothing": {
        "threads": 1,
        "work_unit": "partials",
        "experiments": [
            (f"smoothing_verify.phi{phi:g}.eps{eps:g}",
             {"experiment": "smoothing_verify", "phi_list": phi,
              "eps_list": eps})
            for phi in SMOOTHING_PHI for eps in SMOOTHING_EPS
        ],
    },
}


def write_configs(workload: str, seed: int, directory: str) -> list:
    """Write one ``key = value`` config file per experiment of the workload,
    with the workload seed as each config's seed; returns (label, path)."""
    out = []
    for label, overrides in WORKLOADS[workload]["experiments"]:
        path = os.path.join(directory, f"{label}.cfg")
        lines = [f"{key} = {value}" for key, value in overrides.items()]
        lines.append(f"seed = {seed}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out.append((label, path))
    return out


def draws(cfg) -> int:
    """d-vectors the config defines: W side + Gaussian reference +
    bootstrap inner x outer (plus one data scaled sum per outer rep)."""
    e = cfg.experiment
    if e == "rate_vs_n":
        return cfg.replications * (len(cfg.n_list) + cfg.ref_factor)
    if e == "poisson_check":
        return cfg.replications
    if e == "local_means":
        return len(cfg.d_list) * cfg.replications * (1 + cfg.ref_factor)
    if e == "gaussian_comparison":
        return 2 * len(cfg.rho_list) * cfg.replications
    if e == "anticoncentration":
        return len(cfg.eps_list) * cfg.replications
    if e == "bootstrap_coverage":
        return cfg.outer_replications * (cfg.inner_replications + 1)
    if e == "bootstrap_agreement":
        return 2 * cfg.replications
    return 0


def partials(cfg) -> int:
    """(w, index profile, perturbation) evaluations the smoothing config
    defines: per (d, v, phi, eps) cell, the boundary w-grid (center, upper
    corner and d face centers) plus the far point, times the index profiles
    C(d+v-1, v), times the perturbation grid (2^d corners + center for
    d <= 6, else 2d axis points + center)."""
    if cfg.experiment != "smoothing_verify":
        return 0
    total = 0
    for d in cfg.d_list:
        w_points = (d + 2 if d >= 2 else 2) + 1
        ys = (2**d if d <= 6 else 2 * d) + 1
        for v in cfg.v_list:
            profiles = math.comb(d + v - 1, v)
            total += (len(cfg.phi_list) * len(cfg.eps_list)
                      * w_points * profiles * ys)
    return total


def work(workload: str, cfg) -> int:
    unit = WORKLOADS[workload]["work_unit"]
    return draws(cfg) if unit == "draws" else partials(cfg)
