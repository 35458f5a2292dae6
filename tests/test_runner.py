import json
import math
import xml.etree.ElementTree as ET

import pytest

from hdclt.cli import main as cli_main
from hdclt.errors import ConfigInvalid
from hdclt.runner import (DEFAULTS, EXPERIMENTS, ExperimentConfig, emit_plot,
                          load_config, parse_config_text, run)


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
        assert cfg.n_list == DEFAULTS["rate_vs_n"]["n_list"]

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

    def test_digest_stable_under_out_dir(self):
        a = ExperimentConfig.from_mapping({"experiment": "poisson_check"})
        b = ExperimentConfig.from_mapping({"experiment": "poisson_check",
                                           "out_dir": "elsewhere"})
        assert a.digest() == b.digest()


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

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "poisson_check", "replications": 2000, "seed": 9})
        m1 = run(cfg, out_dir=str(tmp_path / "a"))
        m2 = run(cfg, out_dir=str(tmp_path / "b"))
        assert (open(m1.csv_paths[0], "rb").read()
                == open(m2.csv_paths[0], "rb").read())

    def test_manifest_appends(self, tmp_path):
        cfg = ExperimentConfig.from_mapping(
            {"experiment": "poisson_check", "replications": 500, "seed": 1})
        run(cfg, out_dir=str(tmp_path))
        run(cfg, out_dir=str(tmp_path))
        assert len(json.load(open(str(tmp_path / "manifest.json")))) == 2


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

    def test_run_without_checks_fails(self, tmp_path, capsys):
        # v = 2 at finite phi and eps != 1 yields none of the smoothing checks
        cfg = self._write(tmp_path, "experiment = smoothing_verify\n"
                                    "v_list = 2\nphi_list = 8\neps_list = 0.5\n")
        code = cli_main(["run", cfg, "--check", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL smoothing_verify.no_checks" in capsys.readouterr().out
        summary = json.load(open(str(tmp_path / "out" / "summary.json")))
        assert summary["checks"] == {}

    @pytest.mark.parametrize("override", [
        "d_list = 1", "v_list = 5", "v_list = 0", "phi_list = -1",
        "phi_list = 0", "eps_list = 0", "eps_list = -0.5", "phi_list =",
        "eps_list =", "v_list =", "d_list = 11\nv_list = 4",
        "experiment = rate_vs_n\nd = 1", "experiment = zero_skew_rate\nd = 1",
        "experiment = rate_vs_n\nB = 1.5", "experiment = poisson_check\nB = 1.5",
        "experiment = bootstrap_coverage\ninner_replications = 50",
        "experiment = local_means\nd_list = 1",
    ])
    def test_bad_smoothing_config_exit_2(self, tmp_path, override):
        base = {"experiment": "smoothing_verify", "phi_list": "4",
                "eps_list": "1"}
        key = override.split("=")[0].strip()
        lines = [f"{k} = {v}" for k, v in base.items() if k != key]
        cfg = self._write(tmp_path, "\n".join(lines + [override]) + "\n")
        out = tmp_path / "out"
        assert cli_main(["run", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_thread_precedence(self, tmp_path, monkeypatch):
        import hdclt.cli as cli_module
        seen = []
        real_run = cli_module.run

        def spy(config, out_dir=None, threads=1):
            seen.append(threads)
            return real_run(config, out_dir=out_dir, threads=threads)

        monkeypatch.setattr(cli_module, "run", spy)
        cfg = self._write(tmp_path, "experiment = poisson_check\n"
                                    "replications = 500\nthreads = 3\n")
        out = str(tmp_path / "out")
        monkeypatch.setenv("HDCLT_THREADS", "2")
        assert cli_main(["run", cfg, "--out", out]) == 0
        assert cli_main(["run", cfg, "--out", out, "--threads", "1"]) == 0
        monkeypatch.delenv("HDCLT_THREADS")
        assert cli_main(["run", cfg, "--out", out]) == 0
        assert seen == [2, 1, 3]

    def test_load_config_round_trip(self, tmp_path):
        cfg_path = self._write(tmp_path,
                               "experiment = anticoncentration\nd = 7\n")
        cfg = load_config(cfg_path)
        assert cfg.d == 7 and cfg.experiment == "anticoncentration"
