"""Correctness gates on the outputs an experiment run wrote.

Every gate is a statistical or exact statement about the experiment's law,
never about the bits of one RNG stream, so a change that alters a stream
but keeps the law still passes.  Statistical gates use a per-gate false
alarm rate of ALPHA (1e-4) unless stated.  The program's own ``checks`` are
not gates, except where this module says so; the honest-failing C3/C6
checks are never gates.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import binom, norm

ALPHA = 1e-4
AGREEMENT_ALPHA = 0.001
SMOOTHING_RTOL = 1e-8
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def _rows(out_dir: str, experiment: str) -> list:
    with open(os.path.join(out_dir, f"{experiment}.csv"), encoding="utf-8",
              newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _dkw(m: int, alpha: float) -> float:
    """Massart's DKW radius: P(sup |F_hat - F| > eps) <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))


def _two_point_grid(B: float, n: int):
    p = 1.0 / B**2
    a, b = math.sqrt((1.0 - p) / p), -math.sqrt(p / (1.0 - p))
    k = np.arange(n + 1)
    return k, (k * a + (n - k) * b) / math.sqrt(n), p


def exact_two_point_distance(B: float, n: int, d: int) -> float:
    """Exact sup_x |P(max_j W_j <= x) - Phi(x)^d| for the two-point family.

    max_j W_j <= w_k exactly when every binomial count is <= k, so the data
    side is BinomCDF(k)^d, a step function on the n+1 support points; the
    sup is attained at a support point or just left of one.
    """
    k, w, p = _two_point_grid(B, n)
    right = binom.cdf(k, n, p) ** d
    left = np.concatenate([[0.0], right[:-1]])
    gauss = ndtr(w) ** d
    return float(max(np.max(np.abs(right - gauss)), np.max(np.abs(left - gauss))))


def exact_two_point_tail(B: float, n: int, x: float) -> float:
    k, w, p = _two_point_grid(B, n)
    return float(binom.pmf(k[w > x], n, p).sum())


def _rate_vs_n(cfg, out_dir):
    if cfg.family != "one_sided_max":
        return [("exact_oracle", False, f"no oracle for family {cfg.family}")]
    ref = cfg.replications * cfg.ref_factor
    # alpha is split between the W-side and the reference empirical CDFs
    tol = _dkw(cfg.replications, ALPHA / 2) + _dkw(ref, ALPHA / 2)
    rows = _rows(out_dir, cfg.experiment)
    out = [("rows_cover_n_list", [int(r["n"]) for r in rows] == list(cfg.n_list),
            f"n = {[int(r['n']) for r in rows]}")]
    for row in rows:
        n = int(row["n"])
        mc = float(row["distance"])
        exact = exact_two_point_distance(cfg.B, n, cfg.d)
        out.append((f"exact_oracle.n{n}", abs(mc - exact) <= tol,
                    f"|{mc:.5f} - exact {exact:.5f}| <= {tol:.5f}"))
    return out


def _poisson_check(cfg, out_dir):
    (row,) = _rows(out_dir, cfg.experiment)
    x_n = float(ndtri(math.exp(-1.0 / cfg.d)))
    exact = exact_two_point_tail(cfg.B, cfg.n, x_n)
    reported = float(row["exact_tail"])
    # the reps*d coordinate values are i.i.d. Bernoulli(exact) indicators
    tail_hat = float(row["lambda_hat"]) / cfg.d
    se = math.sqrt(exact * (1.0 - exact) / (cfg.replications * cfg.d))
    z = float(norm.isf(ALPHA / 2))
    return [
        ("exact_tail_value", abs(reported - exact) <= 1e-9 * exact,
         f"reported {reported:.6e} vs oracle {exact:.6e}"),
        ("tail_vs_exact", abs(tail_hat - exact) <= z * se,
         f"|{tail_hat:.6e} - {exact:.6e}| <= {z:.2f} * {se:.2e}"),
    ]


def _bootstrap_coverage(cfg, out_dir):
    rows = _rows(out_dir, cfg.experiment)
    reps = cfg.outer_replications
    coverage = float(np.mean([int(r["covered"]) for r in rows]))
    z = float(norm.isf(ALPHA / 2))
    half = z * math.sqrt(cfg.level * (1.0 - cfg.level) / reps)
    return [
        ("rows_match_summary", len(rows) == reps
         and abs(coverage - float(_summary(out_dir)["coverage"])) <= 1e-12,
         f"{reps} rows, coverage {coverage:.4f}"),
        ("coverage_band", abs(coverage - cfg.level) <= half,
         f"|{coverage:.4f} - {cfg.level}| <= {half:.4f}"),
    ]


def _bootstrap_agreement(cfg, out_dir):
    (row,) = _rows(out_dir, cfg.experiment)
    m = cfg.replications
    c = math.sqrt(-math.log(AGREEMENT_ALPHA / 2.0) / 2.0)
    crit = c * math.sqrt(2.0 / m)
    ks = float(row["ks"])
    return [("ks_below_critical", ks <= crit,
             f"{ks:.5f} <= {crit:.5f} (alpha {AGREEMENT_ALPHA})")]


def _own_checks(cfg, out_dir):
    checks = _summary(out_dir).get("checks", {})
    if not checks:
        return [("checks_present", False, "summary has no checks")]
    return [(name, bool(ok), "summary check") for name, ok in sorted(checks.items())]


def _same_value(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(b) or math.isinf(b):
        return math.isnan(a) if math.isnan(b) else a == b
    return math.isfinite(a) and abs(a - b) <= SMOOTHING_RTOL * abs(b)


def _smoothing_verify(cfg, out_dir):
    path = os.path.join(out_dir, f"{cfg.experiment}.csv")
    with open(path, encoding="utf-8", newline="") as fh:
        got = list(csv.reader(fh))
    with open(os.path.join(REFERENCE_DIR, "smoothing_verify.csv"),
              encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    # the reference holds the default (phi, eps) grid; a config that runs
    # part of it must reproduce those cells' rows, in the same order
    phi, eps = header.index("phi"), header.index("eps")
    cells = {(p, e) for p in cfg.phi_list for e in cfg.eps_list}
    want = [header] + [r for r in rows
                       if (float(r[phi]), float(r[eps])) in cells]
    bad = sum(1 for g, w in zip(got, want) for a, b in zip(g, w)
              if not _same_value(a, b))
    shape_ok = len(got) == len(want) and all(len(g) == len(w)
                                              for g, w in zip(got, want))
    return [("reference_csv", shape_ok and bad == 0 and got[0] == want[0],
             f"{len(got) - 1} rows, {bad} cells off by > {SMOOTHING_RTOL:g} rel")]


GATES = {
    "rate_vs_n": _rate_vs_n,
    "poisson_check": _poisson_check,
    "bootstrap_coverage": _bootstrap_coverage,
    "bootstrap_agreement": _bootstrap_agreement,
    "local_means": _own_checks,
    "gaussian_comparison": _own_checks,
    "anticoncentration": _own_checks,
    "smoothing_verify": _smoothing_verify,
}


def check(label: str, cfg, out_dir: str) -> list:
    """[(gate name, passed, detail)] for one experiment run's outputs."""
    try:
        results = GATES[cfg.experiment](cfg, out_dir)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [(f"{label}.outputs", False, f"unreadable outputs: {exc!r}")]
    return [(f"{label}.{name}", bool(ok), detail) for name, ok, detail in results]
