"""One benchmark process: import hdclt from ``src``, write and validate the
workload's configs, then run them through ``hdclt.cli.main`` in sequence,
repeating the sequence while another pass fits in ``--seconds`` (and at
least ``--min-passes`` times).

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to one
thread; prints one JSON object as its last line.  Modes: ``setup`` stops
after the configs are validated, ``run`` measures untraced passes, ``trace``
records spans (see tracing.py) around the layer entry points.  In every
mode the machine-speed reference (machine_speed.py) is timed after set-up,
before each experiment and after a pass's last experiment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

MAX_PASSES = 1000


def environment() -> dict:
    """Interpreter, library and machine facts that the timings depend on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _openblas_threads()}


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _one_pass(cli, gates, configs, threads, workdir, index, tracer, ref):
    walls, refs, verdicts, failed = {}, [], [], 0
    for label, path, cfg in configs:
        refs.append(ref.measure(threads))
        out_dir = os.path.join(workdir, f"pass{index}", label)
        argv = ["run", path, "--threads", str(threads), "--out", out_dir]
        error = None
        span = (tracer.span("runner.experiment") if tracer is not None
                else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a crashing experiment is a failed run
            code, error = None, repr(exc)
        walls[label] = time.perf_counter() - start
        if code == 0:
            results = gates.check(label, cfg, out_dir)
        else:
            results = [(f"{label}.exit", False, error or f"exit code {code}")]
        verdicts.extend(results)
        failed += not all(ok for _, ok, _ in results)
    refs.append(ref.measure(threads))
    shutil.rmtree(os.path.join(workdir, f"pass{index}"), ignore_errors=True)
    return walls, refs, verdicts, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawn")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import machine_speed  # binds its numpy functions before anything patches them
    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.preinstall(tracer)

    from hdclt import cli, runner

    import workloads

    spec = workloads.WORKLOADS[args.workload]
    os.makedirs(".perfbench_out", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".perfbench_out")
    try:
        paths = workloads.write_configs(args.workload, args.seed, workdir)
        configs = [(label, path, runner.load_config(path)) for label, path in paths]
        setup_s = time.monotonic() - args.spawned_at
        ref = machine_speed.Reference(spec["threads"])
        # set-up runs on one thread, so one kernel copy gauges its speed
        result = {"setup_s": setup_s,
                  "setup_ref_s": statistics.median(ref.measure()
                                                   for _ in range(3))}
        if args.mode != "setup":
            import gates
            result["env"] = environment()
            if tracer is not None:
                tracing.install(tracer)
            result.update(_measure(cli, gates, spec, configs, workdir,
                                   args, tracer, ref))
            result["work"] = sum(workloads.work(args.workload, cfg)
                                 for _, _, cfg in configs)
        ref.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _measure(cli, gates, spec, configs, workdir, args, tracer, ref):
    passes, refs, durations, verdicts, attempted, failed = [], [], [], {}, 0, 0
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        if tracer is not None:
            tracer.run_id = len(passes)
        pass_start = time.perf_counter()
        walls, pass_refs, results, bad = _one_pass(
            cli, gates, configs, spec["threads"], workdir, len(passes),
            tracer, ref)
        durations.append(time.perf_counter() - pass_start)
        passes.append(walls)
        refs.append(pass_refs)
        attempted += len(configs)
        failed += bad
        for name, ok, detail in results:
            # keep the first verdict of each gate, or its first failure
            if name not in verdicts or (verdicts[name][0] and not ok):
                verdicts[name] = (ok, detail)
        typical = statistics.median(durations)
        if (len(passes) >= args.min_passes
                and time.perf_counter() - start + typical > args.seconds):
            break
    out = {"passes": passes, "refs": refs,
           "attempted": attempted, "failed": failed,
           "gates": [[name, ok, detail] for name, (ok, detail) in verdicts.items()]}
    if tracer is not None:
        import tracing
        out["layers"] = tracing.per_run(tracer)
        out["skipped"] = tracer.skipped
    return out


if __name__ == "__main__":
    sys.exit(main())
