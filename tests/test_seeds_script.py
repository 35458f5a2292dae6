import hashlib
import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("seeds",
                                               ROOT / "scripts" / "seeds.py")
seeds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seeds)


class _StubRunner:
    """Two experiments whose checks pass at even seeds only; the
    smoothing one has no exact verdict at any seed."""

    EXPERIMENTS = {"bootstrap_agreement": None, "smoothing_verify": None}
    ExperimentConfig = SimpleNamespace(
        from_mapping=lambda mapping: SimpleNamespace(**mapping))
    threads = []

    @classmethod
    def run(cls, config, out_dir, threads):
        cls.threads.append(threads)
        even = config.seed % 2 == 0
        if config.experiment == "smoothing_verify":
            csv = "v,decay_ratio\n1,3.0\n"
            summary = {"checks": {"decay_v1": even},
                       "exact_checks": {"none": None}}
        else:
            csv = f"ks,critical\n{config.seed / 1000},0.1\n"
            summary = {"ks": config.seed / 1000, "critical": 0.1,
                       "checks": {"ks_below_critical": even}}
        csv_path = os.path.join(out_dir, f"{config.experiment}.csv")
        summary_path = os.path.join(out_dir, "summary.json")
        Path(csv_path).write_text(csv)
        Path(summary_path).write_text(json.dumps(summary))
        return SimpleNamespace(summary=summary, csv_paths=[csv_path],
                               summary_path=summary_path)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_counts_verdicts_and_digests_outputs(capsys):
    result = seeds.sweep(_StubRunner, [100, 101, 102], threads=2)
    assert set(_StubRunner.threads) == {2}
    agreement = result["experiments"]["bootstrap_agreement"]
    assert agreement["checks"]["ks_below_critical"] == {
        "passed": 2, "runs": 3, "failed_seeds": [101], "rate": "2/3"}
    assert agreement["runs"]["101"]["summary"] == {
        "ks": 0.101, "critical": 0.1, "checks": {"ks_below_critical": False}}
    assert agreement["runs"]["102"]["sha256"] == {
        "bootstrap_agreement.csv": _sha("ks,critical\n0.102,0.1\n"),
        "summary.json": _sha(json.dumps({
            "ks": 0.102, "critical": 0.1,
            "checks": {"ks_below_critical": True}}))}
    # the deterministic experiment runs once, and a None verdict counts
    # for nothing
    smoothing = result["experiments"]["smoothing_verify"]
    assert list(smoothing["runs"]) == ["100"]
    assert smoothing["exact_checks"]["none"]["rate"] == "0/0"


def test_sweep_is_deterministic():
    first, second = (json.dumps(seeds.sweep(_StubRunner, [7, 8], 1),
                                sort_keys=True) for _ in range(2))
    assert first == second
