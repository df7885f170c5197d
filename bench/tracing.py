"""Per-layer timing and work counts, taken from outside the program.

``Tracer.install`` replaces every public function of the layer modules by a
timing wrapper, in every ``eeiwfa`` module namespace that holds it, so calls
made through ``from .x import f`` bindings are seen too. ``uninstall`` puts
the originals back. A named function that a later version of the package no
longer has is reported as absent (its metrics read 0), not as an error.
"""

import functools
import inspect
import os
import sys
import time
from collections import Counter

PACKAGE = "eeiwfa"
LAYERS = ("cli", "harness", "iwfa", "best_response", "equilibrium", "model",
          "linalg", "_kernels")
ENTRY = "cli.cli"   # the benchmark's call into the program; its self time is unattributed

# Functions reported one by one, each as .calls, .self_s and .total_s.
FUNCTIONS = (
    "_kernels.water_level",
    "_kernels.dinkelbach_gains",
    "_kernels.power_iteration",
    "linalg.spectral_radius",
    "linalg.hermitian_evd",
    "linalg.psd_trace_projection",
    "linalg.hermitize",
    "model.generate_scenario",
    "model.reduce_scenario",
    "model.mui_covariance",
    "model.whitened_gram",
    "model.rate",
    "best_response.best_response",
    "equilibrium.interference_matrix_square",
    "equilibrium.criteria",
    "equilibrium.qvi_map",
    "equilibrium.verify_lipschitz",
    "equilibrium.verify_monotonicity",
    "equilibrium.verify_power_set_smoothness",
    "equilibrium.random_covariance",
    "iwfa.run_iwfa",
    "iwfa.ne_residual",
    "iwfa.write_trace_csv",
    "harness.write_csv",
)

# name -> (unit, better); the order is the order of BENCHMARK.json.
COUNTERS = {
    "harness.write_csv.bytes": ("bytes", "lower"),
    "iwfa.write_trace_csv.bytes": ("bytes", "lower"),
    "model.mui_covariance.gflop_computed": ("GFLOP", "lower"),
    "iwfa.slots": ("count", "lower"),
    "iwfa.quiet_slots": ("count", "lower"),
    "iwfa.updates": ("count", "lower"),
    "best_response.dinkelbach_iters": ("count", "lower"),
    "best_response.clipped": ("count", "lower"),
    "best_response.applied_ratio": ("ratio", "higher"),
    "model.whitened_gram.per_update": ("ratio", "lower"),
}


def _metric(name):
    # Metric names must start with a letter or digit: _kernels reports as kernels.
    return name.lstrip("_")


def metric_catalogue():
    """Every per-layer metric: name -> (unit, better)."""
    cat = {}
    for fn in FUNCTIONS:
        cat[f"{_metric(fn)}.calls"] = ("count", "lower")
        cat[f"{_metric(fn)}.self_s"] = ("s", "lower")
        cat[f"{_metric(fn)}.total_s"] = ("s", "lower")
    cat.update(COUNTERS)
    for layer in LAYERS:
        cat[f"layer.{_metric(layer)}.self_s"] = ("s", "lower")
    cat["trace.coverage"] = ("ratio", "higher")
    cat["trace.named_coverage"] = ("ratio", "higher")
    cat["trace.overhead_s"] = ("s", "lower")
    cat["trace.absent"] = ("count", "lower")
    return cat


# --- observers: work counts read off arguments and results -------------------

def _on_run_iwfa(tr, args, kwargs, trace):
    tr.counts["iwfa.slots"] += len(trace.slots)
    tr.counts["iwfa.quiet_slots"] += int((~trace.updated.any(axis=1)).sum())
    tr.counts["iwfa.updates"] += int(trace.updated.sum())


def _on_best_response(tr, args, kwargs, res):
    tr.counts["best_response.dinkelbach_iters"] += int(res.dinkelbach_iters)
    if not res.zero_power and res.p_hat < res.p_unconstrained:
        tr.counts["best_response.clipped"] += 1


def _on_mui_covariance(tr, args, kwargs, R):
    # Complex matmuls H_qr Q_r H_qr^H over r != q, at 8 real flops per
    # complex multiply-add; computed from the shapes, not measured.
    s, q, profile = args
    flops = 0
    for r in range(s.Q):
        if r != q:
            m, k = s.Hbar[q][r].shape
            flops += 8 * (m * k * k + m * k * m)
    tr.counts["model.mui_covariance.gflop_computed"] += flops * 1e-9


def _bytes_written(name):
    def observe(tr, args, kwargs, out):
        path = tr.signatures[name].bind(*args, **kwargs).arguments["path"]
        tr.counts[f"{name}.bytes"] += os.path.getsize(path)
    return observe


OBSERVERS = {
    "iwfa.run_iwfa": (_on_run_iwfa, ("iwfa.slots", "iwfa.quiet_slots", "iwfa.updates")),
    "best_response.best_response": (
        _on_best_response,
        ("best_response.dinkelbach_iters", "best_response.clipped"),
    ),
    "model.mui_covariance": (_on_mui_covariance, ("model.mui_covariance.gflop_computed",)),
    "harness.write_csv": (_bytes_written("harness.write_csv"), ("harness.write_csv.bytes",)),
    "iwfa.write_trace_csv": (
        _bytes_written("iwfa.write_trace_csv"), ("iwfa.write_trace_csv.bytes",),
    ),
}


def _layer_functions():
    """(qualified name, function) for every public function of each layer."""
    found = []
    for layer in LAYERS:
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            # numba dispatchers keep the Python function as py_func
            if getattr(getattr(obj, "py_func", obj), "__module__", None) == mod.__name__:
                found.append((f"{layer}.{attr}", obj))
    return found


class Tracer:
    """Call counts, total and self seconds per layer function, plus counters."""

    def __init__(self):
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.broken = set()      # counters whose observer no longer fits the program
        self.signatures = {}
        self._stack = []
        self._patched = []

    def install(self):
        wrappers = {}
        for name, fn in _layer_functions():
            self.signatures[name] = inspect.signature(fn)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observer, counters = OBSERVERS.get(name, (None, ()))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)   # time spent in traced callees
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            if observer is not None and not self.broken.issuperset(counters):
                try:
                    observer(self, args, kwargs, out)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    self.broken.update(counters)
            return out

        return traced

    def metrics(self, wall_s):
        """Per-layer metrics of one traced solve that took ``wall_s`` seconds
        (``trace.overhead_s`` is left to the caller, who knows the untraced time)."""
        out = {}
        absent = 0
        for fn in FUNCTIONS:
            calls, total, self_s = self.stats.get(fn, (0, 0.0, 0.0))
            absent += fn not in self.stats
            out[f"{_metric(fn)}.calls"] = calls
            out[f"{_metric(fn)}.self_s"] = self_s
            out[f"{_metric(fn)}.total_s"] = total
        counts = dict(self.counts)
        br_calls = self.stats.get("best_response.best_response", (0,))[0]
        gram_calls = self.stats.get("model.whitened_gram", (0,))[0]
        updates = counts.get("iwfa.updates", 0)
        counts["best_response.applied_ratio"] = updates / br_calls if br_calls else 0.0
        counts["model.whitened_gram.per_update"] = gram_calls / updates if updates else 0.0
        if "iwfa.updates" in self.broken:
            self.broken.update(("best_response.applied_ratio",
                                "model.whitened_gram.per_update"))
        for name in COUNTERS:
            absent += name in self.broken
            out[name] = 0 if name in self.broken else counts.get(name, 0)
        attributed = 0.0
        for layer in LAYERS:
            layer_self = sum(rec[2] for name, rec in self.stats.items()
                             if name.split(".")[0] == layer)
            out[f"layer.{_metric(layer)}.self_s"] = layer_self
            attributed += layer_self
        attributed -= self.stats.get(ENTRY, (0, 0.0, 0.0))[2]
        out["trace.coverage"] = attributed / wall_s
        # Only the functions named one by one: drops when hot work moves
        # into a function the rows above do not name.
        out["trace.named_coverage"] = sum(
            out[f"{_metric(fn)}.self_s"] for fn in FUNCTIONS) / wall_s
        out["trace.absent"] = absent
        return out

    def absent(self):
        return [fn for fn in FUNCTIONS if fn not in self.stats] + sorted(self.broken)
