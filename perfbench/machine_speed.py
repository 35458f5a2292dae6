"""Machine-speed reference: a fixed numpy kernel timed between experiments.

The benchmark shares a small host whose effective speed drifts by tens of
percent over tens of seconds, and all code on it slows together.  Timing
this kernel, which uses no hdclt code, next to every experiment gives the
speed the machine had at that moment; run.py scales measured times to a
machine on which the kernel takes ``NOMINAL_S``.

The kernel calls the library routines the workloads spend their time in:
Gauss-Legendre node generation along one order-doubling chain (smoothing
quadrature), normal CDFs of small arrays from a Python loop (smoothing
integrands), sorts of a few MB (KS distances and max statistics) and
standard normal draws (sampler and bootstrap).  Its inputs are fixed, so its
work never depends on the workload seed.  Work that runs on several threads
is gauged by as many copies of the kernel running at once, so the reference
sees the same share of the host's cores.
"""

from __future__ import annotations

import concurrent.futures
import time

import numpy as np
from numpy.polynomial import legendre
from scipy.special import ndtr

# library entry points bound at import, before hdclt or the tracer can patch
# anything, so the kernel stays the same whatever the program does
_leggauss = legendre.leggauss
_ndtr = ndtr
_dot = np.dot
_sort = np.sort
_default_rng = np.random.default_rng

# copies -> seconds measure(copies) takes on the machine the scaled times
# refer to.  Only the scale depends on them: round values near the medians
# on a 2-vCPU Intel Xeon host, BLAS pinned to one thread, as the host's
# load varied
NOMINAL_S = {1: 0.18, 2: 0.32}

QUAD_ORDERS, QUAD_CHAINS = (32, 64, 128, 256, 512), 2
SMALL_LEN, SMALL_CALLS = 64, 3000
ARRAY_LEN, SORTS, DRAWS = 1 << 18, 10, 10


class Reference:
    def __init__(self, threads: int):
        """``threads``: the most copies any later ``measure`` runs."""
        self._keys = _default_rng(0).standard_normal(ARRAY_LEN)
        self._grid = np.linspace(-3.0, 3.0, SMALL_LEN)
        self._pool = (concurrent.futures.ThreadPoolExecutor(threads)
                      if threads > 1 else None)
        self.measure(threads)  # pays page faults and lazy library set-up

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(QUAD_CHAINS):
            for order in QUAD_ORDERS:
                acc += float(_leggauss(order)[0][0])
        x = self._grid
        for i in range(SMALL_CALLS):
            acc += float(_dot(_ndtr(x + 1e-4 * i), x))
        for _ in range(SORTS):
            acc += float(_sort(self._keys)[ARRAY_LEN // 2])
        rng, draws = _default_rng(1), np.empty(ARRAY_LEN)
        for _ in range(DRAWS):
            rng.standard_normal(out=draws)
            acc += float(draws[0])
        return acc

    def measure(self, copies: int = 1) -> float:
        """Seconds that ``copies`` kernel calls, run at once, take now."""
        start = time.perf_counter()
        if copies == 1:
            self._kernel()
        else:
            futures = [self._pool.submit(self._kernel) for _ in range(copies)]
            for future in futures:
                future.result()
        return time.perf_counter() - start
