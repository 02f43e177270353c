"""Per-layer metrics of a traced run.

Counters are taken by tracer observers at the same call boundaries as the
spans.  Per-run values (calls, seconds, counts) are averaged over the traced
runs; ratios, percentiles and maxima are taken over all of them.
"""

from __future__ import annotations

import os
import statistics
import threading

import numpy as np

from setstat import geometry

from tracer import LAYERS, Tracer

# extra per-layer metrics: name -> (unit, better)
EXTRA_METRICS = {
    "geometry.sampled_frac": ("frac", "lower"),
    "geometry.sets_out": ("count", "lower"),
    "geometry.max_vertices": ("count", "lower"),
    "randomsets.replicate_ms": ("ms", "lower"),
    "kernelreg.estimate.p50_ms": ("ms", "lower"),
    "kernelreg.estimate.p99_ms": ("ms", "lower"),
    "kernelreg.kept_frac": ("frac", "higher"),
    "invopt.grid_cells": ("count", "lower"),
    "invopt.cells_per_s": ("1/s", "higher"),
    "harness.bytes_written": ("bytes", "lower"),
    "harness.files_written": ("count", "lower"),
    "harness.workers": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

_GRID_ESTIMATORS = ("invopt.abp_estimate", "invopt.mle_estimate")
_REPLICATE_FUNCTIONS = (
    "randomsets.clt_difference_replicates",
    "randomsets.hausdorff_statistic_replicates",
)


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in report order."""
    spec = []
    for layer, names in LAYERS.items():
        for fname in names:
            spec.append({"name": f"{layer}.{fname}.calls", "unit": "count", "better": "lower"})
            spec.append({"name": f"{layer}.{fname}.total_s", "unit": "s", "better": "lower"})
            spec.append({"name": f"{layer}.{fname}.self_s", "unit": "s", "better": "lower"})
        spec.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in EXTRA_METRICS.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


# --- which calls take the direction-grid (sampled) path ----------------------
# Classified from argument types, following the dispatch documented on each
# geometry function: a positive-radius ball in dimension >= 2 is sampled
# unless a closed form covers the pair.


def _positive_ball(c) -> bool:
    return isinstance(c, geometry.Ball) and c.radius > 0.0 and c.dim >= 2


def _singleton(c) -> bool:
    if isinstance(c, geometry.VertexPolytope):
        return c.vertices.shape[0] == 1
    if isinstance(c, geometry.Box):
        return bool(np.array_equal(c.lower, c.upper))
    if isinstance(c, geometry.Ball):
        return c.radius == 0.0
    if isinstance(c, geometry.Zonotope):
        return bool(np.all(c.weights[:, None] * c.generators == 0.0))
    return False


def _sampled_sum(a, b, *_, **__) -> bool:
    if a.dim < 2 or _singleton(a) or _singleton(b):
        return False
    if isinstance(a, geometry.Ball) and isinstance(b, geometry.Ball):
        return False
    return _positive_ball(a) or _positive_ball(b)


def _sampled_diff(c, d, *_, **__) -> bool:
    if c.dim < 2:
        return False
    for kind in (geometry.Box, geometry.Ball):
        if isinstance(c, kind) and isinstance(d, kind):
            return False
    return c.dim > 2 or _positive_ball(c)


def _sampled_scale(psi, c, *_, **__) -> bool:
    p = np.asarray(psi, dtype=float)
    if p.ndim != 2 or not _positive_ball(c):
        return False
    q = p.T @ p
    return not np.allclose(q, q[0, 0] * np.eye(c.dim), atol=1e-12)


def _sampled_hausdorff(c, d, *_, **__) -> bool:
    if c.dim < 2:
        return False
    if isinstance(c, geometry.Ball) and isinstance(d, geometry.Ball):
        return False
    vertex_kinds = (geometry.VertexPolytope, geometry.Box)
    return not (isinstance(c, vertex_kinds) and isinstance(d, vertex_kinds))


_SAMPLED = {
    "geometry.minkowski_sum": _sampled_sum,
    "geometry.minkowski_diff": _sampled_diff,
    "geometry.scale": _sampled_scale,
    "geometry.hausdorff": _sampled_hausdorff,
}


class LayerCounters:
    """Counters fed by tracer observers, which may run in pool threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.classified = 0
        self.sampled = 0
        self.sets_out = 0
        self.max_vertices = 0
        self.replicates = 0
        self.kept = 0
        self.weighed = 0
        self.grid_cells = 0
        self.workers = 0
        self.bytes_written = 0
        self.files_written = 0

    def _sets(self, result):
        items = result if isinstance(result, list) else (result,)
        for s in items:
            if isinstance(s, geometry.ConvexSet):
                self.sets_out += 1
                if isinstance(s, geometry.VertexPolytope):
                    self.max_vertices = max(self.max_vertices, s.vertices.shape[0])

    def observers(self) -> dict:
        obs = {}
        for layer_fn in LAYERS["geometry"]:
            name = f"geometry.{layer_fn}"
            classify = _SAMPLED.get(name)

            def geometry_observer(args, kwargs, result, classify=classify):
                if classify is not None:
                    self.classified += 1
                    self.sampled += bool(classify(*args, **kwargs))
                self._sets(result)

            obs[name] = geometry_observer

        def replicate_observer(args, kwargs, result):
            self.replicates += kwargs["replicates"] if "replicates" in kwargs else args[2]

        for name in _REPLICATE_FUNCTIONS:
            obs[name] = replicate_observer

        def weights_observer(args, kwargs, result):
            w = np.asarray(result)
            self.kept += int(np.count_nonzero(w))
            self.weighed += w.size

        obs["kernelreg.kernel_weights"] = weights_observer

        def estimator_observer(args, kwargs, result):
            grid = getattr(result, "grid_values", None)
            if grid is not None:
                self.grid_cells += int(np.asarray(grid).size)

        for fname in LAYERS["invopt"]:
            if fname.endswith("_estimate"):
                obs[f"invopt.{fname}"] = estimator_observer

        def workers_observer(args, kwargs, result):
            self.workers = max(self.workers, int(result))

        obs["harness.worker_count"] = workers_observer

        def run_observer(args, kwargs, result):
            self.files_written += len(result.files)
            self.bytes_written += sum(os.path.getsize(f) for f in result.files)

        obs["harness.run"] = run_observer
        return {name: self._locked(fn) for name, fn in obs.items()}

    def _locked(self, fn):
        def observer(args, kwargs, result):
            with self._lock:
                fn(args, kwargs, result)

        return observer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, counters: LayerCounters, runs: int, overhead_frac: float
) -> dict[str, float]:
    """Every per_layer_spec() metric; layers that did not run report 0."""
    totals = tracer.function_totals()
    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        layer_calls = 0
        layer_self = 0.0
        for fname in names:
            row = totals.get(f"{layer}.{fname}", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            out[f"{layer}.{fname}.calls"] = row["calls"] / runs
            out[f"{layer}.{fname}.total_s"] = row["total_s"] / runs
            out[f"{layer}.{fname}.self_s"] = row["self_s"] / runs
            layer_calls += row["calls"]
            layer_self += row["self_s"]
        out[f"{layer}.calls"] = layer_calls / runs
        out[f"{layer}.self_s"] = layer_self / runs

    def total_s(name):
        return totals.get(name, {}).get("total_s", 0.0)

    est = tracer.durations("kernelreg.estimate")
    if len(est) >= 2:
        q = statistics.quantiles(est, n=100, method="inclusive")
        p50, p99 = statistics.median(est), q[98]
    else:
        p50 = p99 = est[0] if est else 0.0
    out.update(
        {
            "geometry.sampled_frac": _ratio(counters.sampled, counters.classified),
            "geometry.sets_out": counters.sets_out / runs,
            "geometry.max_vertices": counters.max_vertices,
            "randomsets.replicate_ms": 1000.0
            * _ratio(sum(total_s(n) for n in _REPLICATE_FUNCTIONS), counters.replicates),
            "kernelreg.estimate.p50_ms": 1000.0 * p50,
            "kernelreg.estimate.p99_ms": 1000.0 * p99,
            "kernelreg.kept_frac": _ratio(counters.kept, counters.weighed),
            "invopt.grid_cells": counters.grid_cells / runs,
            "invopt.cells_per_s": _ratio(
                counters.grid_cells, sum(total_s(n) for n in _GRID_ESTIMATORS)
            ),
            "harness.bytes_written": counters.bytes_written / runs,
            "harness.files_written": counters.files_written / runs,
            "harness.workers": counters.workers,
            "trace.overhead_frac": overhead_frac,
        }
    )
    return out
