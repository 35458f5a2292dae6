import json
import os
import subprocess
import sys
from pathlib import Path

import hdclt

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    # a stale entry in __all__ fails only at `from hdclt import *`
    missing = [name for name in hdclt.__all__ if not hasattr(hdclt, name)]
    assert missing == []


def test_benchmark_tracer_finds_its_targets():
    # the benchmark's tracer skips a wrap target that no longer exists, so a
    # rename would read 0 in that layer's metric without failing; the one
    # target known to be gone is lowerbound._ks_with_se
    code = ("import json, tracing, hdclt.cli, hdclt.runner\n"
            "tracer = tracing.Tracer()\n"
            "tracing.install(tracer)\n"
            "print(json.dumps(tracer.skipped))\n")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert set(json.loads(out.stdout)) <= {"hdclt.lowerbound._ks_with_se"}
