"""Pass rates of every experiment's checks across seeds.

Runs each seeded experiment at its default config through
``hdclt.runner.run`` at seeds 100-129, with 2 worker threads, all in this
one process; the deterministic ``smoothing_verify`` runs once, at the
first seed.  BLAS runs on one thread unless the environment says
otherwise.  Writes one JSON file with, per experiment:

- for each check in ``checks`` and ``exact_checks``, the count of runs it
  passed and the seeds it failed at;
- per seed, the run's summary, which holds the values its verdicts rest
  on, and the sha256 of the run's CSV and ``summary.json``.

The file holds no timings, so two runs of one tree give the same bytes,
and two trees whose outputs agree give the same file.  Usage::

    python scripts/seeds.py SEEDS.json [--src path/to/src]

``--src`` is the source tree whose ``hdclt`` is run (default: this
checkout's ``src``).  The sweep is a report, not a gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path


# every seeded experiment runs at these seeds, with this many worker threads
SEEDS = range(100, 130)
THREADS = 2


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sweep(runner, seeds, threads: int, log=sys.stderr) -> dict:
    out = {"seeds": [seeds[0], seeds[-1]], "threads": threads,
           "experiments": {}}
    for name in runner.EXPERIMENTS:
        # smoothing_verify draws no random numbers
        runs = seeds[:1] if name == "smoothing_verify" else seeds
        verdicts = {"checks": {}, "exact_checks": {}}
        per_seed = {}
        start = time.perf_counter()
        for seed in runs:
            config = runner.ExperimentConfig.from_mapping(
                {"experiment": name, "seed": seed})
            with tempfile.TemporaryDirectory() as tmp:
                manifest = runner.run(config, out_dir=tmp, threads=threads)
                csv_path = manifest.csv_paths[0]
                per_seed[str(seed)] = {
                    "summary": manifest.summary,
                    "sha256": {os.path.basename(csv_path): _sha256(csv_path),
                               "summary.json":
                                   _sha256(manifest.summary_path)}}
            for kind, tally in verdicts.items():
                for check, passed in (manifest.summary.get(kind)
                                      or {}).items():
                    entry = tally.setdefault(check, {"passed": 0, "runs": 0,
                                                     "failed_seeds": []})
                    if passed is None:  # no verdict: nothing to count
                        continue
                    entry["runs"] += 1
                    if passed:
                        entry["passed"] += 1
                    else:
                        entry["failed_seeds"].append(seed)
        for tally in verdicts.values():
            for entry in tally.values():
                entry["rate"] = f"{entry['passed']}/{entry['runs']}"
        out["experiments"][name] = {**verdicts, "runs": per_seed}
        print(f"{name}: {len(runs)} runs in "
              f"{time.perf_counter() - start:.1f} s", file=log)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--src", default=str(Path(__file__).resolve()
                                             .parents[1] / "src"),
                        help="source tree whose hdclt is run")
    args = parser.parse_args(argv)
    # BLAS on one thread, so the worker threads do not oversubscribe it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, args.src)
    from hdclt import runner

    result = sweep(runner, list(SEEDS), THREADS)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
