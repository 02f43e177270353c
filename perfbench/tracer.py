"""Span tracer for the benchmark's traced runs.

The tracer wraps the named public functions of each setstat layer in every
``setstat`` module namespace that binds them (``harness.hausdorff`` and
``geometry.hausdorff`` are the same function, so both bindings are wrapped),
records one span per call and restores the original bindings on exit.  It
never edits a source file, and untraced runs never construct it.

A span records its name, start, end, parent and thread.  Within a thread the
parent is the innermost open span of that thread.  A span opened in another
thread with nothing open there (a pool worker) takes as parent the innermost
open span of the thread that installed the tracer, since the benchmark is a
single caller and that span is what started the pool.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

# Layer -> public functions whose calls are recorded as spans.
LAYERS = {
    "geometry": (
        "translated_family",
        "weighted_minkowski_average",
        "minkowski_sum",
        "minkowski_diff",
        "scale",
        "hausdorff",
        "project_point",
        "integrated_distance",
        "bounds_of",
        "interval",
    ),
    "randomsets": (
        "sample_translated_sets",
        "minkowski_sample_mean",
        "clt_difference_replicates",
        "hausdorff_statistic_replicates",
    ),
    "kernelreg": (
        "generate_demo_dataset",
        "estimate",
        "kernel_weights",
        "write_dataset_jsonl",
    ),
    "invopt": (
        "generate_boxlinear_observations",
        "abp_estimate",
        "mle_estimate",
        "via_estimate",
        "kkt_estimate",
        "result_to_dict",
    ),
    "harness": ("run", "worker_count"),
}


@dataclass
class Span:
    sid: int
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None
    thread: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of the time its children cover.

    Children in other threads count like children in the same thread, so two
    overlapping children in two pool threads are covered once, not twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


class Tracer:
    """Context manager that records spans of the LAYERS functions.

    ``observers`` maps "<layer>.<function>" to a callable
    ``observer(args, kwargs, result)`` that runs after the span has closed,
    so the counters it updates are taken at the same boundary as the span.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._owner = None
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                tail = self._owner_stack[-1:]  # a slice never raises mid-pop
                parent = tail[0] if tail else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident())
                )
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    # -- install / restore ----------------------------------------------------

    def _modules(self):
        return [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "setstat" or key.startswith("setstat."))
        ]

    def __enter__(self) -> "Tracer":
        import setstat  # noqa: F401  (populates sys.modules with the layers)

        self._owner = threading.get_ident()
        modules = self._modules()
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"setstat.{layer}")
            if home is None:
                continue
            for fname in names:
                original = getattr(home, fname, None)
                if original is None or not callable(original):
                    continue  # a later version may have removed the function
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self._owner = None

    # -- summaries --------------------------------------------------------------

    def function_totals(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "total_s", "self_s"} summed over all spans."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += selfs[s.sid]
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        t0 = min((s.start for s in self.spans), default=0.0)
        return [
            {
                "id": s.sid,
                "name": s.name,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "parent": s.parent,
                "thread": s.thread,
            }
            for s in self.spans
        ]
