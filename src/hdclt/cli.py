"""Command-line entry point: run, list, and validate experiments.

Exit codes: 0 on success (for ``run --check``, when the summary has criteria
and every one passes), 1 when a check fails, there are none, or the run
meets an error, 2 on configuration and argument errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from ._version import __version__
from .errors import ConfigInvalid, HdcltError
from .runner import EXPERIMENTS, load_config, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdclt",
        description="Monte Carlo experiments for high-dimensional "
                    "central-limit bounds over rectangle classes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker threads (default 1); outputs do not "
                            "depend on it")
    p_run.add_argument("--check", action="store_true",
                       help="exit 1 unless every summary criterion passes")
    p_run.add_argument("--out", default=None,
                       help="output directory (default hdclt_runs/<experiment>)")

    p_val = sub.add_parser("validate", help="parse and validate a config file")
    p_val.add_argument("config", help="path to a key = value config file")

    sub.add_parser("list", help="list available experiment tags")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.threads < 1:
        parser.error(f"argument --threads: must be >= 1, got {args.threads}")

    if args.command == "list":
        for tag in EXPERIMENTS:
            print(tag)
        return 0

    try:
        config = load_config(args.config)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: {config.experiment} (seed {config.seed})")
        return 0

    try:
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        manifest = run(config, out_dir=args.out, threads=args.threads)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HdcltError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1

    checks = manifest.summary.get("checks", {})
    for name, passed in sorted(checks.items()):
        print(f"{'PASS' if passed else 'FAIL'} {manifest.experiment}.{name}")
    print(f"wrote {manifest.summary_path}")
    if args.check:
        return 0 if manifest.all_checks_pass else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
