"""Spans around calls into hdclt, recorded from the benchmark's own wrappers.

A span is (id, parent id, name, start, end, run id).  Spans are kept in
memory and turned into per-layer self times when the run ends: a span's
self time is its duration minus the part of it its child spans cover, so
``sample_scaled_sums`` inside ``reference_max_stats`` is charged once.
Parents are tracked per thread; pool items carry the id of the map span
that submitted them.

Wrappers are installed in every hdclt module namespace that binds the
wrapped object.  A target that a refactor removed is skipped and reported,
never fatal.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.run_id = 0
        self.skipped = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        pid = parent if parent is not None else (stack[-1] if stack else 0)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, pid, name, start, end, self.run_id))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[(self.run_id, name)] += value


# -- installation -------------------------------------------------------------

def _rebind(orig, new) -> None:
    """Replace ``orig`` by ``new`` in every loaded hdclt module namespace."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hdclt" or mod_name.startswith("hdclt.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _wrap(tracer, fn, name, after=None):
    sig = _signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = name(sig, args, kwargs) if callable(name) else name
        with tracer.span(label):
            out = fn(*args, **kwargs)
        if after is not None:
            after(tracer, sig, args, kwargs, out)
        return out
    return traced


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _arg(sig, args, kwargs, name, position):
    if sig is not None:
        try:
            return sig.bind(*args, **kwargs).arguments.get(name)
        except TypeError:
            pass
    return args[position] if len(args) > position else kwargs.get(name)


def _count_vectors(tracer, sig, args, kwargs, out):
    shape = getattr(out, "shape", ())
    tracer.count("sampler.scaled_sum_vectors",
                 shape[0] * shape[1] if len(shape) == 2 else getattr(out, "size", 0))


def _count_sorted(tracer, sig, args, kwargs, out):
    total = sum(getattr(a, "size", 0) for a in args[:2])
    tracer.count("distance.sorted_points", total)


def _multiplier_name(sig, args, kwargs):
    kind = _arg(sig, args, kwargs, "kind", 2)
    tag = kind if isinstance(kind, str) else getattr(kind, "tag", "other")
    return f"bootstrap.multiplier_draws.{tag}"


def _count_multipliers(tracer, sig, args, kwargs, out):
    x = _arg(sig, args, kwargs, "x", 0)
    reps = _arg(sig, args, kwargs, "reps", 1)
    tracer.count("bootstrap.multipliers_drawn",
                 int(reps or 0) * int(getattr(x, "n", 0)))


# (module, attribute, span name or naming function, count hook)
FUNCTIONS = (
    ("hdclt.sampler", "sample_scaled_sums", "sampler.sample_scaled_sums",
     _count_vectors),
    ("hdclt.sampler", "sample", "sampler.sample", None),
    ("hdclt.lowerbound", "reference_max_stats", "lowerbound.reference_max_stats",
     None),
    ("hdclt.lowerbound", "_ks_with_se", "lowerbound.ks", None),
    ("hdclt.lowerbound", "poisson_approx_check", "lowerbound.poisson_approx_check",
     None),
    ("hdclt.distance", "ks_distance", "distance.ks_distance", _count_sorted),
    ("hdclt.distance", "anticoncentration_probe",
     "distance.anticoncentration_probe", None),
    ("hdclt.bootstrap", "multiplier_draws", _multiplier_name, _count_multipliers),
    ("hdclt.bootstrap", "simultaneous_quantile", "bootstrap.simultaneous_quantile",
     None),
    ("hdclt.smoothing", "derivative_sum", "smoothing.derivative_sum", None),
    ("hdclt.smoothing", "rho_partial", "smoothing.rho_partial", None),
    ("hdclt.runner", "load_config", "runner.load_config", None),
    ("hdclt.runner", "_write_csv", "runner.write", None),
    ("hdclt.runner", "emit_plot", "runner.write", None),
    ("hdclt.runner", "_append_manifest", "runner.write", None),
)


def preinstall(tracer: Tracer) -> None:
    """Count Gauss-Legendre node computations.  Runs before hdclt is
    imported, so a module that captures ``leggauss`` at import time (say,
    behind a cache) captures the counting wrapper."""
    import numpy.polynomial.legendre as legendre

    orig = legendre.leggauss

    @functools.wraps(orig)
    def leggauss(*args, **kwargs):
        tracer.count("smoothing.leggauss.calls")
        return orig(*args, **kwargs)
    legendre.leggauss = leggauss


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the imported hdclt modules."""
    for mod_name, attr, name, after in FUNCTIONS:
        orig = getattr(sys.modules.get(mod_name), attr, None)
        if not callable(orig):
            tracer.skipped.append(f"{mod_name}.{attr}")
            continue
        _rebind(orig, _wrap(tracer, orig, name, after))

    _install_max_stat(tracer)
    _install_chol(tracer)
    _install_quadrature(tracer)
    _install_pool(tracer)
    _install_bounds(tracer)


def _install_max_stat(tracer):
    cls = getattr(sys.modules.get("hdclt.distance"), "MaxStatSample", None)
    raw = vars(cls).get("from_draws") if cls is not None else None
    if not isinstance(raw, staticmethod):
        tracer.skipped.append("hdclt.distance.MaxStatSample.from_draws")
        return
    cls.from_draws = staticmethod(_wrap(tracer, raw.__func__, "distance.max_stat"))


def _install_chol(tracer):
    cls = getattr(sys.modules.get("hdclt.matcore"), "CovarianceModel", None)
    prop = vars(cls).get("chol") if cls is not None else None
    if not isinstance(prop, property) or prop.fget is None:
        tracer.skipped.append("hdclt.matcore.CovarianceModel.chol")
        return
    cls.chol = property(_wrap(tracer, prop.fget, "matcore.chol"))


def _install_quadrature(tracer):
    mod = sys.modules.get("hdclt.smoothing")
    orig = getattr(mod, "_quadrature", None)
    sig = _signature(orig) if callable(orig) else None
    if sig is None or not sig.parameters:
        tracer.skipped.append("hdclt.smoothing._quadrature")
        return
    f_name = next(iter(sig.parameters))
    limit_param = sig.parameters.get("max_order")
    default_limit = None if limit_param is None else limit_param.default

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        f = bound.arguments.get(f_name)
        limit = bound.arguments.get("max_order", default_limit)
        widest = [0]
        if callable(f):
            def counted(s):
                m = int(getattr(s, "size", 1))
                tracer.count("smoothing.integrand_points", m)
                widest[0] = max(widest[0], m)
                return f(s)
            bound.arguments[f_name] = counted
        with tracer.span("smoothing.quadrature"):
            out = orig(*bound.args, **bound.kwargs)
        if isinstance(limit, int) and widest[0] >= limit:
            tracer.count("smoothing.quadrature.hit_max_order")
        return out
    _rebind(orig, traced)


def _install_pool(tracer):
    mod = sys.modules.get("hdclt.runner")
    orig = getattr(mod, "_pmap", None)
    if not callable(orig):
        tracer.skipped.append("hdclt.runner._pmap")
        return

    @functools.wraps(orig)
    def traced(threads):
        base = orig(threads)

        def mapper(fn, items):
            items = list(items)
            with tracer.span("runner.pool.map") as map_id:
                def item(x):
                    with tracer.span("runner.pool.item", parent=map_id):
                        return fn(x)
                start = time.perf_counter()
                out = list(base(item, items))
                tracer.count("runner.pool.capacity_s",
                             (time.perf_counter() - start) * max(1, int(threads)))
            tracer.count("runner.pool.items", len(items))
            return out
        return mapper
    _rebind(orig, traced)


def _install_bounds(tracer):
    mod = sys.modules.get("hdclt.bounds")
    if mod is None:
        tracer.skipped.append("hdclt.bounds")
        return
    for attr, value in list(vars(mod).items()):
        if inspect.isfunction(value) and value.__module__ == mod.__name__:
            _rebind(value, _wrap(tracer, value, "bounds"))


# -- analysis -----------------------------------------------------------------

def _covered(kids, lo, hi) -> float:
    """Length of the union of the intervals in ``kids`` inside [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(kids):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def per_run(tracer: Tracer) -> dict:
    """run id -> {"<span>.self_s", "<span>.calls", "<span>.total_s",
    counters, "trace.parallel_overlap_s", "trace.root_s"}."""
    kids = defaultdict(list)
    for sid, pid, name, start, end, run in tracer.spans:
        kids[pid].append((start, end))
    runs = defaultdict(lambda: defaultdict(float))
    for sid, pid, name, start, end, run in tracer.spans:
        mine = kids.get(sid, [])
        covered = _covered(mine, start, end)
        out = runs[run]
        out[f"{name}.self_s"] += (end - start) - covered
        out[f"{name}.total_s"] += end - start
        out[f"{name}.calls"] += 1
        out["trace.parallel_overlap_s"] += sum(b - a for a, b in mine) - covered
        if pid == 0:
            out["trace.root_s"] += end - start
    for (run, name), value in tracer.counts.items():
        runs[run][name] += value
    return {run: dict(values) for run, values in runs.items()}

