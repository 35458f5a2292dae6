"""hdclt benchmark: run one workload (or all) and report its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload max_stat --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Every workload pass runs in a fresh interpreter (worker.py) with BLAS and
OpenMP pinned to one thread, so the workload's ``threads`` value is its only
parallelism.  ``--trace 0`` reports the end-to-end metrics, with times
scaled to a fixed machine speed by the reference kernel of machine_speed.py
(timed next to every experiment, since the host's speed drifts); ``--trace 1``
runs one untraced pass and then traced passes, and reports the per-layer
metrics.  Human-readable lines (every metric with its unit, every gate
verdict) come first; the last line is one JSON object.  Exits 2 without a
result when the hdclt sources are not in ``src/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from machine_speed import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3          # timed setup-only processes per run, besides the worker
# passes run while another fits in --seconds; a smoothing pass takes 15-20 s
# at 30 s, so a forced second pass would make its runs half again as long
MIN_PASSES = 1
RUN_BUDGET_S = 170.0      # a run must end well inside 180 s
PINNED_THREADS = "1"
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-layer metrics that are not a span self time or a counter: untraced
# wall of one experiment, taken from the untraced pass of a --trace 1 run
EXPERIMENT_WALLS = {"rate_vs_n_s": "rate_vs_n",
                    "local_means_s": "local_means",
                    "bootstrap_coverage.gaussian_s": "bootstrap_coverage.gaussian",
                    "bootstrap_coverage.mammen_s": "bootstrap_coverage.mammen",
                    "smoothing_verify_s": "smoothing_verify"}
RUNNER_SPANS = ("runner.experiment", "runner.write", "runner.load_config",
                "runner.pool.map", "runner.pool.item")


class BenchError(RuntimeError):
    pass


def _metric_units(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json (in the working directory) declares."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: PINNED_THREADS for var in PIN_VARS})
    env.pop("HDCLT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, mode: str, seconds: float, deadline: float,
            min_passes: int = 1) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("time budget exhausted")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--min-passes", str(min_passes),
           "--mode", mode,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE,
                              timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _env_line(env: dict) -> str:
    return "env " + " ".join(f"{k}={v}" for k, v in env.items())


def _pass_walls(out: dict) -> list:
    return [sum(p.values()) for p in out["passes"]]


def _scaled(seconds: float, ref_samples, threads: int) -> float:
    """``seconds`` as they would read at the machine speed at which the
    reference kernel takes NOMINAL_S[threads], given the kernel's timings
    taken around the measured interval."""
    return seconds * NOMINAL_S[threads] / statistics.median(ref_samples)


def _end_to_end(args, deadline):
    # an untimed first start fills the page cache, as for any user's second run
    _worker(args, "setup", 0, deadline)
    probes = [_worker(args, "setup", 0, deadline) for _ in range(SETUP_PROBES)]
    out = _worker(args, "run", args.seconds, deadline, MIN_PASSES)
    probes.append(out)
    threads = WORKLOADS[args.workload]["threads"]
    setups = [_scaled(p["setup_s"], [p["setup_ref_s"]], 1) for p in probes]
    raw_walls = _pass_walls(out)
    walls = [_scaled(w, refs, threads)
             for w, refs in zip(raw_walls, out["refs"])]
    wall = statistics.median(walls)
    metrics = {"wall_s": wall, "setup_s": statistics.median(setups),
               "peak_rss_mb": out["peak_rss_mb"],
               "work_per_s": out["work"] / wall}
    info = [_env_line(out["env"]),
            f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls) + " s",
            "measured passes: " + " ".join(f"{w:.3f}" for w in raw_walls) + " s",
            "reference kernel, median per pass: "
            + " ".join(f"{statistics.median(r):.4f}" for r in out["refs"])
            + f" s (times above and below are scaled to {NOMINAL_S[threads]} s)",
            "setup samples: " + " ".join(f"{s:.3f}" for s in setups) + " s",
            "measured setup: "
            + " ".join(f"{p['setup_s']:.3f}" for p in probes) + " s",
            f"work per pass: {out['work']} "
            f"{WORKLOADS[args.workload]['work_unit']}"]
    for label in out["passes"][0]:
        per = statistics.median(p[label] for p in out["passes"])
        info.append(f"experiment {label}: {per:.3f} s (median of passes)")
    return metrics, _metric_units("end_to_end"), out, info


def _per_layer(args, deadline):
    plain = _worker(args, "run", 0, deadline)
    traced = _worker(args, "trace", args.seconds, deadline)
    runs = traced["layers"]
    traced_wall = statistics.median(_pass_walls(traced))
    untraced_wall = statistics.median(_pass_walls(plain))

    def med(name):
        return statistics.median(r.get(name, 0.0) for r in runs.values())

    capacity = med("runner.pool.capacity_s")
    special = {
        "runner.pool.busy_frac": (med("runner.pool.item.total_s") / capacity
                                  if capacity > 0 else 0.0),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.accounted_frac": statistics.median(
            r.get("trace.root_s", 0.0) / w
            for r, w in zip(runs.values(), _pass_walls(traced))),
    }
    # an experiment split into several calls (smoothing_verify's cells) has
    # labels "<label>.<part>"; its wall is the sum over the parts
    special.update({name: sum(wall for part, wall in plain["passes"][0].items()
                              if part == label or part.startswith(label + "."))
                    for name, label in EXPERIMENT_WALLS.items()})
    # every other name is a span's "<span>.self_s" or "<span>.calls", or a
    # counter the wrappers keep under that name
    units = _metric_units("per_layer")
    metrics = {name: special[name] if name in special else med(name)
               for name in units}

    # self times by layer; runner spans and all other spans add up to the
    # traced wall once parallel overlap inside the pool is taken out
    layers = {}
    for run in runs.values():
        for key, value in run.items():
            if key.endswith(".self_s"):
                span = key[:-len(".self_s")]
                layer = "runner" if span in RUNNER_SPANS else span.split(".")[0]
                layers.setdefault(layer, []).append(value)
    n_runs = max(1, len(runs))

    def mean(name):
        return sum(r.get(name, 0.0) for r in runs.values()) / n_runs

    info = [_env_line(plain["env"]),
            f"traced passes {len(runs)}; skipped targets: "
            f"{', '.join(traced['skipped']) or 'none'}"]
    total = 0.0
    for layer, values in sorted(layers.items()):
        per = sum(values) / n_runs
        total += per
        info.append(f"layer {layer}: self {per:.3f} s per pass")
    overlap = mean("trace.parallel_overlap_s")
    info.append(f"per pass: sum of self times {total:.3f} s - pool overlap "
                f"{overlap:.3f} s = {total - overlap:.3f} s; spans cover "
                f"{mean('trace.root_s'):.3f} s of traced wall "
                f"{sum(_pass_walls(traced)) / n_runs:.3f} s")
    combined = {"attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "gates": plain["gates"] + [g for g in traced["gates"]
                                           if not g[1]]}
    return metrics, units, combined, info


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    measure = _per_layer if args.trace else _end_to_end
    metrics, units, out, info = measure(args, deadline)
    print(f"== workload {args.workload} seed {args.seed} "
          f"threads {WORKLOADS[args.workload]['threads']} trace {args.trace}")
    for line in info:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  metric {name} = {value:.6g} {units[name]}")
    for name, ok, detail in out["gates"]:
        print(f"  gate {'PASS' if ok else 'FAIL'} {name}: {detail}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hdclt", "__init__.py")):
        print("run.py: src/hdclt not found; run from the repository root",
              file=sys.stderr)
        return 2
    # the only build step: byte-compile the package before anything is timed
    if not compileall.compile_dir(os.path.join("src", "hdclt"), quiet=1):
        print("run.py: src/hdclt does not compile", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            results.append(run_workload(argparse.Namespace(**{**vars(args),
                                                              "workload": name})))
        except BenchError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
