"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/stability.py --workloads max_stat bootstrap smoothing \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 [--trace 0] [--out FILE]

For every workload and metric: the median of the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a share
of the median.  Also tallies every gate's verdict across the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    gates = [line.split()[1:3] for line in lines if line.strip().startswith("gate ")]
    passes = [[float(v) for v in line.split(":")[1].split()[:-1]]
              for line in lines if line.strip().startswith("passes ")]
    return json.loads(lines[-1]), [(name.rstrip(":"), verdict == "PASS")
                                   for verdict, name in gates], passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        values, gates, failed, passes = {}, {}, 0, []
        for seed in args.seeds:
            result, verdicts, walls = one_run(workload, seed, args.seconds,
                                              args.trace)
            failed += result["failed"]
            passes.extend(walls)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, ok in verdicts:
                passed, total = gates.get(name, (0, 0))
                gates[name] = (passed + ok, total + 1)
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        spreads = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spreads[name] = {"median": med, "iqr_share": (q3 - q1) / med if med else None,
                             "values": vals}
            print(f"  {workload} {name}: median {med:.6g} "
                  f"iqr/median {spreads[name]['iqr_share']}", flush=True)
        report[workload] = {"seeds": args.seeds, "failed": failed,
                            "pass_walls": passes,
                            "metrics": spreads,
                            "gates": {k: {"passed": p, "runs": t}
                                      for k, (p, t) in gates.items()}}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
