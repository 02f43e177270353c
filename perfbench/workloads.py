"""The four benchmark workloads.

Constructing a workload is its set-up: the config is parsed, or the
geometry batch is built.  ``run()`` then does one workload run and times only
the call into the program; digests and output checks happen after the clock
stops.  Harness workloads reach the program through ``harness.run`` alone,
and geometry-mix2d through the public geometry functions alone.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from setstat import geometry, harness, invopt, kernelreg, randomsets

import geomix

OUT_ROOT = Path(".bench_out")


def _failure_types() -> tuple[type, ...]:
    """Exceptions counted as failed runs or ops instead of ending the bench.

    Looked up by name in every layer, since a later version may move them
    between modules.
    """
    names = ("SolverLimitError", "InternalConsistencyError", "NoLocalDataError")
    found: list[type] = []
    for module in (geometry, invopt, randomsets, kernelreg):
        for name in names:
            cls = getattr(module, name, None)
            if isinstance(cls, type) and cls not in found:
                found.append(cls)
    return tuple(found)


FAILURES = _failure_types()


@dataclass
class Outcome:
    """One workload run."""

    elapsed: float  # wall seconds spent in the program
    attempted: int  # 1 per harness run, 1 per geometry op
    failed: int  # counted failures and failed experiment checks
    correct: bool  # the bench's own output checks passed
    digest: str | None  # sha256 of the outputs


# name -> (harness kind, params, item unit); items are counted from params
HARNESS_WORKLOADS = {
    "clt-box2d": (
        "clt",
        {
            "body": {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "noise": {"type": "uniform-box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "n": 500,
            "replicates": 500,
            "max_cov_rel_error": 0.15,
            "max_identity_gap": 1e-10,
        },
        "replicate",
    ),
    "kernel-interval": (
        "kernel-fit",
        {
            "n": 20000,
            "kernel": "epanechnikov",
            "h": None,
            "u_grid": {"lo": -1.5, "hi": 1.5, "step": 0.01},
            "max_median_error": 0.25,
        },
        "query",
    ),
    "invopt-grid": (
        "compare-estimators",
        {
            "program": "box-linear",
            "estimators": ["abp", "mle", "kkt", "via"],
            "n_values": [100, 1000],
            "replicates": 2,
        },
        "estimator fit",
    ),
}

WORKLOAD_NAMES = (*HARNESS_WORKLOADS, "geometry-mix2d")


def _item_count(kind: str, params: dict) -> int:
    if kind == "clt":
        return params["replicates"]
    if kind == "kernel-fit":
        g = params["u_grid"]
        return int(round((g["hi"] - g["lo"]) / g["step"])) + 1
    return len(params["estimators"]) * len(params["n_values"]) * params["replicates"]


def files_digest(out_dir: Path, files) -> str:
    """sha256 over (path relative to out_dir, bytes) of each file, sorted."""
    h = hashlib.sha256()
    for rel in sorted(str(Path(f).relative_to(out_dir)) for f in files):
        h.update(rel.encode() + b"\0")
        h.update((out_dir / rel).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class HarnessWorkload:
    def __init__(self, name: str, seed: int):
        kind, params, self.item_unit = HARNESS_WORKLOADS[name]
        self.out_dir = OUT_ROOT / name  # relative: summary.json records it
        self.config = harness.config_from_dict(
            {
                "kind": kind,
                "params": params,
                "seed": {"seed": seed, "stream": 0},
                "out": str(self.out_dir),
            }
        )
        self.items = _item_count(kind, self.config.params)

    def run(self) -> Outcome:
        start = time.perf_counter()
        try:
            report = harness.run(self.config)
        except FAILURES:
            return Outcome(time.perf_counter() - start, 1, 1, True, None)
        elapsed = time.perf_counter() - start
        summary = json.loads((self.out_dir / "summary.json").read_text())
        correct = summary["checks"] == report.checks and all(
            Path(f).is_file() for f in report.files
        )
        failed = 0 if report.passed else 1
        return Outcome(elapsed, 1, failed, correct, files_digest(self.out_dir, report.files))


class GeometryMixWorkload:
    item_unit = "op"

    def __init__(self, seed: int):
        self.ops = geomix.build_ops(seed)
        self.items = len(self.ops)

    def run(self) -> Outcome:
        results = []
        failed = 0
        start = time.perf_counter()
        for op, args in self.ops:
            try:
                results.append(geomix.call(op, args))
            except FAILURES as exc:
                failed += 1
                results.append(exc)
        elapsed = time.perf_counter() - start
        lines = []
        correct = True
        for (op, args), result in zip(self.ops, results):
            if isinstance(result, Exception):
                lines.append(f"failed {type(result).__name__}")
                continue
            lines.append(geomix.encode(result))
            correct = correct and geomix.check(op, args, result)
        return Outcome(elapsed, len(self.ops), failed, correct, geomix.digest(lines))


def prepare(name: str, seed: int):
    """Set up one workload; this is the work setup_s times."""
    if name in HARNESS_WORKLOADS:
        return HarnessWorkload(name, seed)
    if name == "geometry-mix2d":
        return GeometryMixWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
