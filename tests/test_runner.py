import csv
import itertools
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from distance_oracles import brute_force_ks_to_law
from hdclt import maxlaw, sampler
from hdclt.bootstrap import MULTIPLIER_KINDS
from hdclt.cli import main as cli_main
from hdclt.distance import max_stat_sample
from hdclt.errors import ConfigInvalid, IoFailure
from hdclt.lowerbound import fit_power_law
from hdclt.matcore import CovarianceModel
from hdclt.maxlaw import IsotropicGaussianMax, two_point_marginal_tail
from hdclt.runner import (EXPERIMENTS, KEYS, RUN_KEYS,
                          ExperimentConfig, emit_plot, load_config,
                          parse_config_text, run)
from hdclt.sampler import DistributionSpec, derive_seed

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# the 1% one-sample KS critical value at 2000 draws, c(alpha) / sqrt(2000)
FLOOR_2000 = math.sqrt(-math.log(0.005) / 2.0) / math.sqrt(2000)

# the benchmark's smoothing gate compares its reference CSV's header too
with open(ROOT / "perfbench" / "reference" / "smoothing_verify.csv",
          newline="") as _fh:
    _SMOOTHING_HEADER = tuple(next(csv.reader(_fh)))

_RATE_HEADER = ("experiment", "n", "d", "B", "family", "distance", "se",
                "seed")

# each experiment's CSV header, which its row dicts are the only statement of
HEADERS = {
    "rate_vs_n": _RATE_HEADER,
    "zero_skew_rate": _RATE_HEADER,
    "bootstrap_coverage": ("rep", "covered", "quantile", "max_stat"),
    "bootstrap_agreement": ("n", "d", "replications", "ks", "critical"),
    "local_means": ("d", "n", "distance", "se", "noise_floor",
                    "exact_distance", "delta0", "comparison_bound",
                    "combined_bound", "prior_bound", "coupling_bound"),
    "smoothing_verify": _SMOOTHING_HEADER,
    "gaussian_comparison": ("rho", "D", "measured", "bound", "se",
                            "noise_floor", "exact_distance"),
    "poisson_check": ("n", "d", "B", "x_n", "f_hat", "lambda_hat",
                      "exact_tail", "residual", "residual_bound",
                      "propagated_se", "exact_f", "exact_lambda",
                      "exact_residual"),
    "anticoncentration": ("d", "eps", "probe", "nazarov_shape", "se",
                          "exact_probe"),
}

# a config of each experiment small enough to run in well under a second
TINY = {
    "rate_vs_n": {"replications": 100, "ref_factor": 1},
    "zero_skew_rate": {"n_list": [1, 2], "replications": 100,
                       "ref_factor": 1},
    "bootstrap_coverage": {"n": 20, "d": 3, "inner_replications": 100,
                           "outer_replications": 2},
    "bootstrap_agreement": {"n": 20, "d": 3, "replications": 100},
    "local_means": {"d_list": [2], "replications": 100, "ref_factor": 1},
    "smoothing_verify": {"d_list": [2], "v_list": [1], "phi_list": [8.0],
                         "eps_list": [1.0]},
    "gaussian_comparison": {"d": 3, "rho_list": [0.1], "replications": 100},
    "poisson_check": {"n": 10, "d": 3, "replications": 100},
    "anticoncentration": {"d": 3, "eps_list": [0.1], "replications": 100},
}


class TestConfigParsing:
    def test_basic_grammar(self):
        text = """
        # comment line
        experiment = poisson_check
        seed = 42
        replications = 1000
        eps_list = 0.1, 0.2 0.4
        phi_list = 4 inf
        """
        mapping = parse_config_text(text)
        assert mapping["experiment"] == "poisson_check"
        assert mapping["seed"] == 42
        assert mapping["eps_list"] == [0.1, 0.2, 0.4]
        assert math.isinf(mapping["phi_list"][1])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("experiment = poisson_check\nbogus = 1\n")
        with pytest.raises(ConfigInvalid, match="bogus"):
            ExperimentConfig.from_mapping({"experiment": "poisson_check",
                                           "bogus": 1})

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("seed = notanint\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("just some words\n")


class TestExperimentConfig:
    def test_defaults_fill_in(self):
        cfg = ExperimentConfig.from_mapping({"experiment": "rate_vs_n"})
        assert cfg.B == 2.0
        assert cfg.n_list == EXPERIMENTS["rate_vs_n"].defaults["n_list"]

    def test_unknown_experiment(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_mapping({"experiment": "nope"})

    def test_experiment_required(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_mapping({"seed": 1})

    def test_bad_level(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_mapping({"experiment": "bootstrap_coverage",
                                           "level": 1.5})

    def test_empty_lists_rejected(self):
        for name, exp in EXPERIMENTS.items():
            for key in (k for k, v in exp.defaults.items()
                        if isinstance(v, list)):
                with pytest.raises(ConfigInvalid, match=key):
                    ExperimentConfig.from_mapping({"experiment": name, key: []})

    def test_n_of_one_valid_for_zero_skew_rate(self):
        # only rate_vs_n divides by a bound that is 0 at n = 1
        cfg = ExperimentConfig.from_mapping({"experiment": "zero_skew_rate",
                                             "n_list": [1, 2]})
        assert cfg.n_list == [1, 2]

    def test_unread_keys_stay_unset(self):
        for name in EXPERIMENTS:
            cfg = ExperimentConfig.from_mapping({"experiment": name})
            set_keys = {k for k in KEYS if getattr(cfg, k) is not None}
            assert set_keys == set(EXPERIMENTS[name].defaults) | set(RUN_KEYS)


class TestRegistry:
    def test_records_name_config_keys_and_csv_columns(self):
        # a default key that names no field would leave the real key unset
        for name, exp in EXPERIMENTS.items():
            assert set(exp.defaults) <= set(KEYS) - set(RUN_KEYS), name
            if exp.plot is not None:
                x, y, se, kind = exp.plot
                assert {x, y, se} - {None} <= set(HEADERS[name]), name
                assert kind in ("loglog", "linear"), name


def _readme_table(header):
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


class TestReadmeKeyTable:
    """The README's key tables must match the schema."""

    def test_keys_and_defaults_per_experiment(self):
        documented = {}
        for name, cell in _readme_table("| experiment | keys and defaults |"):
            documented[name.strip("`")] = {
                key: KEYS[key].metadata["parse"](raw) if raw else None
                for key, raw in re.findall(r"`(\w+)(?: = ([^`]*))?`", cell)}
        assert documented.pop("every experiment") == {
            key: KEYS[key].default for key in RUN_KEYS}
        assert documented == {name: exp.defaults
                              for name, exp in EXPERIMENTS.items()}

    def test_rule_per_key(self):
        rules = {key.strip("`"): rule.replace("`", "")
                 for key, _, rule in _readme_table("| key | value | rule |")}
        assert rules == {key: f.metadata["need"] or ""
                         for key, f in KEYS.items()}


class TestReadmeFamilyList:
    def test_sampler_row_names_every_family(self):
        contents = {cells[0]: cells[1]
                    for cells in _readme_table("| module | contents |")}
        named = set(re.findall(r"`(\w+)`", contents["`hdclt.sampler`"]))
        assert set(sampler.FAMILIES) == named


class TestRun:
    def test_rate_smoke(self, tmp_path):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "rate_vs_n", "replications": 100,
             "ref_factor": 2, "seed": 5})
        manifest = run(cfg, out_dir=str(tmp_path))
        csv_lines = open(manifest.csv_paths[0]).read().strip().splitlines()
        assert len(csv_lines) == 5  # header + one row per n
        for line in csv_lines[1:]:
            assert math.isfinite(float(line.split(",")[5]))
        svg = ET.parse(manifest.plot_paths[0]).getroot()
        assert svg.tag.endswith("svg")
        records = json.load(open(str(tmp_path / "manifest.json")))
        assert records[-1]["config_hash"] == cfg.digest()

    @pytest.mark.parametrize("experiment", ["rate_vs_n", "local_means"])
    def test_ref_factor_is_read_by_nothing(self, tmp_path, experiment):
        # the reference is an exact law, so no draw count of it exists
        csvs = [open(run(ExperimentConfig.from_mapping(
            {"experiment": experiment, **TINY[experiment], "ref_factor": k}),
            out_dir=str(tmp_path / str(k))).csv_paths[0], "rb").read()
            for k in (1, 7)]
        assert csvs[0] == csvs[1]

    # at 2000 draws the one-sample noise floor is 0.0364: below the exact
    # rate_vs_n distance at n = 2000 (0.0370), above every zero-skew one
    @pytest.mark.parametrize("experiment, below", [
        ("rate_vs_n", [False, False, False, False]),
        ("zero_skew_rate", [True, True, True])])
    def test_rate_summary_reports_exact_values(self, tmp_path, experiment,
                                               below):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": experiment, "replications": 2000,
             "ref_factor": 2, "seed": 5})
        summary = run(cfg, out_dir=str(tmp_path)).summary
        exact = summary["exact_distance"]
        assert len(exact) == len(cfg.n_list) and all(e > 0 for e in exact)
        assert summary["exact_slope"] == fit_power_law(cfg.n_list, exact)[0]
        assert summary["noise_floor"] == FLOOR_2000
        assert summary["distance_below_noise_floor"] == below
        # the headline bounded-case shape B log^{3/2} d log n / sqrt(n) at
        # C = 1 beside each distance; zero_skew_rate has no B, so no bound
        if experiment == "rate_vs_n":
            with open(tmp_path / "rate_vs_n.csv", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            for n, b, ratio, row in zip(cfg.n_list, summary["bound"],
                                        summary["distance_over_bound"], rows):
                assert b == cfg.B * math.log(cfg.d) ** 1.5 * math.log(n) \
                    / math.sqrt(n)
                assert ratio == float(row["distance"]) / b
            # the envelope B over sqrt(log d): 2 / sqrt(log 50) = 1.011
            assert summary["metadata"]["envelope_over_sqrt_logd"] == \
                cfg.B / math.sqrt(math.log(cfg.d))
        else:
            assert "bound" not in summary
            assert "distance_over_bound" not in summary
            assert summary["metadata"]["envelope_over_sqrt_logd"] is None
        # observables only: the checks are unchanged
        for key in ("exact_slope", "bound", "distance_over_bound"):
            assert key not in summary["checks"]

    def test_gaussian_comparison_reports_noise_and_exact(self, tmp_path):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "gaussian_comparison", "replications": 2000,
             "rho_list": [0.05, 0.1, 0.2, -0.05], "seed": 5})
        rows = run(cfg, out_dir=str(tmp_path)).summary["rows"]
        # each row is the one-sample KS of its redrawn equicorrelated max
        # statistics to the exact isotropic law, by brute force
        ref = IsotropicGaussianMax(cfg.d)
        for i, row in enumerate(rows):
            w = max_stat_sample(DistributionSpec.gaussian(
                CovarianceModel.equicorrelation(cfg.d, row["rho"])), 1, 2000,
                derive_seed(5, 61, i)).values
            assert (row["measured"], row["se"]) == \
                brute_force_ks_to_law(w, ref.cdf)
            assert row["noise_floor"] == FLOOR_2000
            assert 0 < row["se"] < 0.02
        # the exact sup distances of the equicorrelated Gaussian max to the
        # isotropic one; a negative rho has no exact law here, and
        # summary.json writes the nan as its repr
        exact = [row["exact_distance"] for row in rows]
        assert exact[:3] == pytest.approx([0.0323, 0.0630, 0.1208], abs=5e-5)
        assert exact[3] == "nan"
        assert set(rows[0]) == set(HEADERS["gaussian_comparison"])

    def test_gaussian_comparison_looks_up_each_law_once(self, tmp_path,
                                                        monkeypatch):
        # one lookup for the shared isotropic reference, and one per rho,
        # both to draw and for the exact distance; a negative rho's lookup
        # gives None and still counts once
        calls = []
        real = maxlaw.law_of
        monkeypatch.setattr(maxlaw, "law_of",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        run(ExperimentConfig.from_mapping(
            {"experiment": "gaussian_comparison", "d": 3,
             "rho_list": [0.1, -0.1], "replications": 100}),
            out_dir=str(tmp_path))
        assert len(calls) == 3

    def test_anticoncentration_reports_se_and_exact(self, tmp_path):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "anticoncentration", "replications": 2000,
             "seed": 5})
        rows = run(cfg, out_dir=str(tmp_path)).summary["rows"]
        for row in rows:
            p = row["probe"]
            assert row["se"] == math.sqrt(p * (1 - p) / 2000)
        # max_z P(z < max Z <= z + eps) for the max of 20 standard normals
        assert [row["exact_probe"] for row in rows] == pytest.approx(
            [0.0397, 0.0792, 0.1576], abs=5e-5)
        assert set(rows[0]) == set(HEADERS["anticoncentration"])

    def test_poisson_check_reports_exact_values(self, tmp_path):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "poisson_check", "replications": 2000, "seed": 5})
        manifest = run(cfg, out_dir=str(tmp_path))
        rec = manifest.summary["record"]
        # at B = 2, n = 1000, d = 50 the exact tail q at x_n is recomputed
        # from the binomial enumeration; the max is below x_n exactly when
        # all 50 i.i.d. coordinates are
        q = two_point_marginal_tail(2.0, 1000, rec["x_n"])
        exact_f = (1 - q) ** 50
        assert rec["exact_tail"] == q
        assert rec["exact_f"] == pytest.approx(exact_f, rel=1e-12)
        assert rec["exact_lambda"] == pytest.approx(50 * q, rel=1e-12)
        assert rec["exact_residual"] == pytest.approx(
            abs(exact_f - math.exp(-50 * q)), rel=1e-9)
        assert [rec["exact_f"], rec["exact_lambda"]] == pytest.approx(
            [0.371899, 0.979413], abs=5e-7)
        assert rec["exact_residual"] == pytest.approx(3.632e-3, abs=5e-7)
        # appended after the earlier columns; a report, not a check
        header = HEADERS["poisson_check"]
        assert header[-3:] == ("exact_f", "exact_lambda", "exact_residual")
        with open(manifest.csv_paths[0], newline="") as fh:
            assert tuple(next(csv.reader(fh))) == header
        assert set(manifest.summary["checks"]) == {"residual_within_bound",
                                                   "lambda_le_10"}

    # a config of each experiment that maps over two points or more (but
    # poisson_check, which has one), small enough to run in about a second
    @pytest.mark.parametrize("mapping", [
        {"experiment": "rate_vs_n", "replications": 2000, "ref_factor": 1},
        {"experiment": "zero_skew_rate", "n_list": [1, 2],
         "replications": 2000, "ref_factor": 1},
        {"experiment": "local_means", "d_list": [2, 3], "replications": 2000,
         "ref_factor": 1},
        {"experiment": "gaussian_comparison", "rho_list": [0.05, 0.1, -0.05],
         "replications": 2000},
        {"experiment": "anticoncentration", "eps_list": [0.1, 0.2],
         "replications": 2000},
        {"experiment": "poisson_check", "replications": 5000}],
        ids=lambda mapping: mapping["experiment"])
    def test_same_at_one_and_two_threads(self, tmp_path, mapping):
        cfg = ExperimentConfig.from_mapping({**mapping, "seed": 3})
        csvs = [open(run(cfg, out_dir=str(tmp_path / f"t{t}"),
                         threads=t).csv_paths[0], "rb").read()
                for t in (1, 2)]
        assert csvs[0] == csvs[1]

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "poisson_check", "replications": 2000, "seed": 9})
        m1 = run(cfg, out_dir=str(tmp_path / "a"))
        m2 = run(cfg, out_dir=str(tmp_path / "b"))
        assert (open(m1.csv_paths[0], "rb").read()
                == open(m2.csv_paths[0], "rb").read())

    @pytest.mark.parametrize("multiplier", MULTIPLIER_KINDS)
    def test_bootstrap_coverage_same_at_one_and_two_threads(self, tmp_path,
                                                            multiplier):
        # 100 outer replications are two fixed 50-replication tasks, so two
        # threads run them concurrently
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "bootstrap_coverage", "multiplier": multiplier,
             "outer_replications": 100, "inner_replications": 200, "seed": 3})
        csvs = [open(run(cfg, out_dir=str(tmp_path / f"t{t}"),
                         threads=t).csv_paths[0], "rb").read()
                for t in (1, 2)]
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) == 101  # header + one row per rep

    def test_smoothing_sweep_rows_in_phi_eps_d_v_order(self, tmp_path):
        grid = {"d_list": [2, 3], "v_list": [1, 2],
                "phi_list": [8.0, math.inf], "eps_list": [1.0, 0.5]}
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "smoothing_verify", **grid})
        with open(run(cfg, out_dir=str(tmp_path)).csv_paths[0],
                  newline="") as fh:
            cells = [(float(row["phi"]), float(row["eps"]), int(row["d"]),
                      int(row["v"])) for row in csv.DictReader(fh)]
        assert cells == list(itertools.product(
            grid["phi_list"], grid["eps_list"], grid["d_list"],
            grid["v_list"]))

    def test_manifest_appends(self, tmp_path):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "poisson_check", "replications": 500, "seed": 1})
        run(cfg, out_dir=str(tmp_path))
        run(cfg, out_dir=str(tmp_path))
        assert len(json.load(open(str(tmp_path / "manifest.json")))) == 2


class TestCsvHeaders:
    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_header_pinned(self, tmp_path, name):
        cfg = ExperimentConfig.from_mapping({"experiment": name, **TINY[name]})
        with open(run(cfg, out_dir=str(tmp_path)).csv_paths[0],
                  newline="") as fh:
            assert tuple(next(csv.reader(fh))) == HEADERS[name]


class TestUniformSpaceDistances:
    # distance and se at seed 101, checked against a uniform-space oracle:
    # the KS distance of W's redrawn max statistics to the reference law F
    # is that of F(max W) to the uniform law on [0, 1], taken by brute force
    @pytest.mark.parametrize("mapping, pinned", [
        ({"experiment": "rate_vs_n", "replications": 2000, "ref_factor": 2},
         [("0.09267872589561071", "0.01111811476460859"),
          ("0.06723583300761732", "0.011100261939586967"),
          ("0.05117872589561079", "0.01111811476460859"),
          ("0.029344763750936698", "0.01082442069672648")]),
        ({"experiment": "zero_skew_rate", "replications": 2000,
          "ref_factor": 2},
         [("0.03298855050134175", "0.010679405154794715"),
          ("0.01913650224251129", "0.009354110983841115"),
          ("0.011945917167044628", "0.009374785923396007")]),
        ({"experiment": "local_means"},
         [("0.13801171564251963", "0.001542423341484018"),
          ("0.14819472678110202", "0.0015786709905303284")])],
        ids=["rate_vs_n", "zero_skew_rate", "local_means"])
    def test_distances_match_the_inverted_reference(self, tmp_path, mapping,
                                                    pinned):
        cfg = ExperimentConfig.from_mapping({**mapping, "seed": 101})
        with open(run(cfg, out_dir=str(tmp_path)).csv_paths[0],
                  newline="") as fh:
            rows = [(repr(float(row["distance"])), repr(float(row["se"])))
                    for row in csv.DictReader(fh)]
        assert rows == pinned
        if cfg.experiment == "local_means":
            cases = [(DistributionSpec.local_means(d), 50 * d,
                      derive_seed(101, 30, d), IsotropicGaussianMax(d))
                     for d in cfg.d_list]
        else:
            spec = (DistributionSpec.two_point(cfg.B, cfg.d)
                    if cfg.experiment == "rate_vs_n"
                    else DistributionSpec.quasi_gaussian(cfg.d))
            ref = maxlaw.law_of(DistributionSpec.gaussian(
                spec.population_covariance()), 1)
            cases = [(spec, n, derive_seed(101, 1, i), ref)
                     for i, n in enumerate(cfg.n_list)]
        for (spec, n, seed, ref), row in zip(cases, rows):
            u = ref.cdf(max_stat_sample(spec, n, cfg.replications,
                                        seed).values)
            oracle = brute_force_ks_to_law(u, lambda x: np.clip(x, 0.0, 1.0))
            assert tuple(map(float, row)) == oracle


class TestBootstrapAgreement:
    def test_row_pinned_at_seed_101(self, tmp_path):
        # recorded from the implementation that held both sides' reps x d
        # draws at once: reducing each side before drawing the other moves
        # no stream and no value
        manifest = run(ExperimentConfig.from_mapping(
            {"experiment": "bootstrap_agreement", "seed": 101}),
            out_dir=str(tmp_path))
        assert repr(manifest.summary["ks"]) == "0.002850000000000019"
        assert repr(manifest.summary["critical"]) == "0.007278954160144188"
        with open(manifest.csv_paths[0], newline="") as fh:
            assert [(row["n"], row["d"], row["replications"],
                     repr(float(row["ks"])), repr(float(row["critical"])))
                    for row in csv.DictReader(fh)] == [
                ("200", "10", "100000", "0.002850000000000019",
                 "0.007278954160144188")]


class TestExactChecks:
    """Each summary's ``exact_checks`` re-evaluates its criteria on the
    exact values; it is a report and never enters ``checks``."""

    @staticmethod
    def _summary(tmp_path, mapping):
        manifest = run(ExperimentConfig.from_mapping({**mapping, "seed": 5}),
                       out_dir=str(tmp_path))
        checks = manifest.summary["checks"]
        assert manifest.all_checks_pass == all(checks.values())
        assert set(manifest.summary["exact_checks"]) <= set(checks)
        return manifest.summary

    @pytest.mark.parametrize("experiment, band", [
        ("rate_vs_n", (-0.65, -0.35)), ("zero_skew_rate", (-1.35, -0.65))])
    def test_slope_in_band(self, tmp_path, experiment, band):
        summary = self._summary(tmp_path, {"experiment": experiment,
                                           "replications": 2000})
        slope = summary["exact_slope"]
        assert summary["exact_checks"] == {
            "slope_in_band": band[0] <= slope <= band[1]}
        assert summary["exact_checks"]["slope_in_band"]

    def test_distance_below_10x_combined(self, tmp_path):
        summary = self._summary(tmp_path, {"experiment": "local_means",
                                           "replications": 2000})
        assert summary["exact_checks"] == {
            "distance_below_10x_combined": all(
                row["exact_distance"] <= 10 * row["combined_bound"]
                for row in summary["rows"])}

    @pytest.mark.parametrize("rho_list, verdict", [
        ([0.05, 0.1, -0.05], True), ([-0.05], None)])
    def test_measured_below_bound(self, tmp_path, rho_list, verdict):
        # a negative rho has no exact law: its row gives no exact verdict
        summary = self._summary(tmp_path, {"experiment": "gaussian_comparison",
                                           "replications": 2000,
                                           "rho_list": rho_list})
        exact = [row for row in summary["rows"]
                 if row["exact_distance"] != "nan"]
        assert summary["exact_checks"] == {"measured_below_bound": verdict}
        if exact:
            assert verdict == all(row["exact_distance"] <= row["bound"]
                                  for row in exact)

    @pytest.mark.parametrize("eps_list", [[0.05, 0.1, 0.2], [0.05, 0.3]])
    def test_below_2x_shape_and_linear_in_eps(self, tmp_path, eps_list):
        summary = self._summary(tmp_path, {"experiment": "anticoncentration",
                                           "replications": 2000,
                                           "eps_list": eps_list})
        rows = summary["rows"]
        doubling = [(a, b) for a, b in zip(rows, rows[1:])
                    if b["eps"] == 2 * a["eps"]]
        assert summary["exact_checks"] == {
            "below_2x_shape": all(row["exact_probe"]
                                  <= 2 * row["nazarov_shape"] for row in rows),
            "linear_in_eps": bool(doubling) and all(
                1.5 <= b["exact_probe"] / a["exact_probe"] <= 2.5
                for a, b in doubling)}

    def test_residual_within_bound(self, tmp_path):
        summary = self._summary(tmp_path, {"experiment": "poisson_check",
                                           "replications": 2000})
        rec = summary["record"]
        assert summary["exact_checks"] == {
            "residual_within_bound":
                rec["exact_residual"] <= rec["exact_lambda"] ** 2 / rec["d"]}
        assert summary["exact_checks"]["residual_within_bound"]


class TestInputChecks:
    @pytest.mark.parametrize("call, error, match", [
        # x = 0 and y = 0 on log axes
        (lambda tmp: emit_plot([(0.0, 1.0, 0.1), (1.0, 1.0, 0.1)], "loglog",
                               str(tmp / "p.svg")),
         ValueError, "loglog plot requires positive"),
        (lambda tmp: emit_plot([(1.0, 0.0, 0.1), (2.0, 1.0, 0.1)], "loglog",
                               str(tmp / "p.svg")),
         ValueError, "loglog plot requires positive"),
        # a regular file where a parent directory should be
        (lambda tmp: run(ExperimentConfig.from_mapping(
            {"experiment": "anticoncentration"}),
            out_dir=str(tmp / "file" / "out")),
         IoFailure, "cannot create"),
    ])
    def test_rejected(self, tmp_path, call, error, match):
        (tmp_path / "file").write_text("")
        with pytest.raises(error, match=match):
            call(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


class TestEmitPlot:
    def test_single_point(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_plot([(1.0, 2.0, 0.1)], "linear", str(path))
        root = ET.parse(str(path)).getroot()
        assert any(child.tag.endswith("circle") for child in root)

    def test_exact_power_law_slope(self, tmp_path):
        series = [(x, x**-0.5, 0.0) for x in (1.0, 2.0, 4.0, 8.0)]
        slope = emit_plot(series, "loglog", str(tmp_path / "p.svg"))
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_empty_series_writes_nothing(self, tmp_path):
        path = tmp_path / "empty.svg"
        with pytest.raises(ValueError):
            emit_plot([], "linear", str(path))
        assert not path.exists()

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([(1.0, 1.0, 0.0)], "polar", str(tmp_path / "x.svg"))


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert list(EXPERIMENTS) == out

    def test_validate_good(self, tmp_path):
        cfg = self._write(tmp_path, "experiment = poisson_check\n")
        assert cli_main(["validate", cfg]) == 0

    def test_validate_bad_exit_2(self, tmp_path):
        cfg = self._write(tmp_path, "experiment = bogus\n")
        assert cli_main(["validate", cfg]) == 2

    def test_missing_file_exit_2(self):
        assert cli_main(["validate", "/nonexistent/cfg.txt"]) == 2

    def test_run_check_exit_codes(self, tmp_path):
        cfg = self._write(tmp_path,
                          "experiment = poisson_check\nreplications = 5000\n")
        code = cli_main(["run", cfg, "--seed", "3", "--check",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.load(open(str(tmp_path / "out" / "summary.json")))
        assert set(summary["checks"]) == {"residual_within_bound",
                                          "lambda_le_10"}

    def test_non_list_manifest_exit_1(self, tmp_path, capsys):
        cfg = self._write(tmp_path,
                          "experiment = poisson_check\nreplications = 500\n")
        # a JSON object, and JSON cut off mid-record
        for i, text in enumerate(["{}\n", '{"a": ']):
            out = tmp_path / f"out{i}"
            out.mkdir()
            manifest = out / "manifest.json"
            manifest.write_text(text)
            assert cli_main(["run", cfg, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot append to {manifest}")
            assert manifest.read_text() == text
            assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("artifact", ["anticoncentration.csv",
                                          "summary.json",
                                          "anticoncentration.svg"])
    def test_unwritable_artifact_exit_1(self, tmp_path, capsys, artifact):
        # a directory in the artifact's place makes its write fail
        cfg = self._write(tmp_path, "experiment = anticoncentration\n"
                                    "replications = 2000\n")
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        assert cli_main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {out / artifact}: ")

    def test_bad_manifest_fails_before_compute(self, tmp_path):
        cfg = self._write(tmp_path, "experiment = rate_vs_n\n"
                                    "replications = 500\nn_list = 50, 100\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("{}\n")
        assert cli_main(["run", cfg, "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        cfg = self._write(tmp_path, "experiment = poisson_check\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", cfg, "--threads", threads, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert "--threads" in capsys.readouterr().err

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        # --seed overrides a config that has already loaded and validated
        cfg = self._write(tmp_path, "experiment = poisson_check\n")
        out = tmp_path / "out"
        assert cli_main(["run", cfg, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"
        assert not out.exists()

    def test_failed_check_without_check_flag_exit_0(self, tmp_path, capsys):
        # only --check turns a failed criterion into exit 1
        cfg = self._write(tmp_path, "experiment = smoothing_verify\n"
                                    "v_list = 2\nphi_list = 8\neps_list = 0.5\n")
        assert cli_main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "FAIL smoothing_verify.c61_stable_v2" in out
        assert f"wrote {tmp_path / 'out' / 'summary.json'}" in out

    def test_run_without_checks_fails(self, tmp_path, capsys):
        # v = 2 at finite phi and eps != 1 has no rows behind any check
        cfg = self._write(tmp_path, "experiment = smoothing_verify\n"
                                    "v_list = 2\nphi_list = 8\neps_list = 0.5\n")
        code = cli_main(["run", cfg, "--check", "--out", str(tmp_path / "out")])
        assert code == 1
        out = capsys.readouterr().out
        names = ("c61_stable_v2", "c62_stable_v2", "decay_v1")
        for name in names:
            assert f"FAIL smoothing_verify.{name}" in out
        summary = json.load(open(str(tmp_path / "out" / "summary.json")))
        assert summary["checks"] == dict.fromkeys(names, False)

    @pytest.mark.parametrize("experiment, grid, empty_checks", [
        ("smoothing_verify", "phi_list = 8\neps_list = 0.5",
         ["c61_stable_v1", "c61_stable_v2", "c62_stable_v1", "c62_stable_v2"]),
        # one phi and one eps: no stability check has two values to compare
        ("smoothing_verify", "phi_list = 4\neps_list = 1",
         ["c61_stable_v1", "c61_stable_v2", "c62_stable_v1", "c62_stable_v2"]),
        ("anticoncentration", "eps_list = 0.05 0.3\nreplications = 20000",
         ["linear_in_eps"]),
    ])
    def test_check_without_rows_fails(self, tmp_path, capsys, experiment,
                                      grid, empty_checks):
        cfg = self._write(tmp_path, f"experiment = {experiment}\n{grid}\n")
        code = cli_main(["run", cfg, "--check", "--out", str(tmp_path / "out")])
        assert code == 1
        out = capsys.readouterr().out
        for name in empty_checks:
            assert f"FAIL {experiment}.{name}" in out

    @pytest.mark.parametrize("override", [
        "d_list = 1", "v_list = 5", "v_list = 0", "phi_list = -1",
        "phi_list = 0", "eps_list = 0", "eps_list = -0.5", "phi_list =",
        "eps_list =", "v_list =", "d_list = 11\nv_list = 4",
        "experiment = rate_vs_n\nd = 1", "experiment = zero_skew_rate\nd = 1",
        "experiment = rate_vs_n\nB = 1.5", "experiment = poisson_check\nB = 1.5",
        "experiment = bootstrap_coverage\ninner_replications = 50",
        "experiment = local_means\nd_list = 1",
        # bounds are shapes at C = 1; there is no constants key
        "experiment = local_means\nconstants_c = 1.0",
        # configs whose experiment code used to fail after the output
        # directory was made; bootstrap_coverage now reads no B at all
        "experiment = bootstrap_coverage\nB = 0",
        "experiment = bootstrap_coverage\nB = nan",
        "experiment = rate_vs_n\nB = inf",
        # B**2 beyond the float range
        "experiment = rate_vs_n\nB = 1.35e154",
        "experiment = poisson_check\nB = 1.35e154",
        "experiment = bootstrap_coverage\nB = 9e307",
        "experiment = gaussian_comparison\nrho_list = 1.5",
        "experiment = gaussian_comparison\nrho_list = 1",
        "experiment = gaussian_comparison\nrho_list = -0.5",
        "experiment = gaussian_comparison\nrho_list = -0.1111111111111",
        "experiment = anticoncentration\neps_list = -1",
        "eps_list = inf",
        "experiment = anticoncentration\neps_list = 0.1 inf",
        "experiment = rate_vs_n\nn_list = 500 250",
        "experiment = rate_vs_n\nn_list = 500",
        # rate_vs_n divides each distance by its bound, which is 0 at n = 1
        "experiment = rate_vs_n\nn_list = 1 2",
        "experiment = zero_skew_rate\nn_list = 100",
        "experiment = bootstrap_agreement\nn = 1",
        # rank n - 1 < d: the empirical covariance has no Cholesky factor
        "experiment = bootstrap_agreement\nn = 10",
        "experiment = poisson_check\nseed = -1",
        # keys the experiment does not read
        "experiment = rate_vs_n\nq = 7",
        "experiment = rate_vs_n\nmultiplier = gaussian",
        # constants that were keys, at their old defaults
        "K = 4.0", "kappa = 4.0", "half_width = 1.5",
        "experiment = local_means\nkappa_geom = 1",
        "experiment = bootstrap_coverage\nB = 2.0",
        # run settings are command-line flags only
        "threads = 2", "out_dir = x",
    ])
    def test_bad_smoothing_config_exit_2(self, tmp_path, capsys, override):
        # the last line holds the offending key; a case that switches the
        # experiment carries only that experiment's keys
        key = override.splitlines()[-1].split("=")[0].strip()
        base = {} if override.startswith("experiment") else {
            "experiment": "smoothing_verify", "phi_list": "4", "eps_list": "1"}
        lines = [f"{k} = {v}" for k, v in base.items() if k != key]
        cfg = self._write(tmp_path, "\n".join(lines + [override]) + "\n")
        out = tmp_path / "out"
        assert cli_main(["run", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert re.search(rf"(^|\W){key}(\W|$)", capsys.readouterr().err)

    @pytest.mark.parametrize("experiment", ["rate_vs_n", "zero_skew_rate"])
    def test_two_sided_family_exit_2(self, tmp_path, capsys, experiment):
        # the rate experiments measure the one-sided max only; a two-sided
        # family must not run and label one-sided distances two-sided
        cfg = self._write(tmp_path, f"experiment = {experiment}\n"
                                    "family = two_sided_max\n")
        out = tmp_path / "out"
        assert cli_main(["run", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert re.search(r"\bfamily\b", capsys.readouterr().err)

    @pytest.mark.parametrize("experiment, grid", [
        ("rate_vs_n", "replications = 100\nref_factor = 1"),
        ("zero_skew_rate", "n_list = 1 2\nreplications = 100\nref_factor = 1")])
    def test_one_sided_family_runs(self, tmp_path, experiment, grid):
        cfg = self._write(tmp_path, f"experiment = {experiment}\n{grid}\n"
                                    "family = one_sided_max\n")
        out = tmp_path / "out"
        assert cli_main(["run", cfg, "--out", str(out)]) == 0
        with open(out / f"{experiment}.csv", newline="") as fh:
            assert {row["family"] for row in csv.DictReader(fh)} == \
                {"one_sided_max"}

    def test_decay_without_measured_far_sum_fails(self, tmp_path):
        # at d = 30 each of the d - 1 undifferentiated factors of a far-point
        # partial is about Phi(-8) ~ 6e-16, so every far sum underflows to 0:
        # the CSV keeps decay_ratio = inf, but that is no measured decay
        cfg = self._write(tmp_path, "experiment = smoothing_verify\n"
                                    "d_list = 30\nv_list = 1\nphi_list = 4\n"
                                    "eps_list = 1\n")
        out = tmp_path / "out"
        assert cli_main(["run", cfg, "--out", str(out)]) == 0
        with open(out / "smoothing_verify.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(row["decay_ratio"]) == math.inf
                            for row in rows)
        summary = json.load(open(str(out / "summary.json")))
        assert summary["checks"]["decay_v1"] is False

    def test_load_config_round_trip(self, tmp_path):
        cfg_path = self._write(tmp_path,
                               "experiment = anticoncentration\nd = 7\n")
        cfg = load_config(cfg_path)
        assert cfg.d == 7 and cfg.experiment == "anticoncentration"
