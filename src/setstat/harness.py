"""Seeded experiment orchestration, config parsing, and the run's output files.

Each experiment kind wires the library modules into a deterministic run:
identical configs produce byte-identical output files.  All randomness
flows through derived RngSeed streams.  The harness names the files and
chooses what goes in them; their text comes from textio.  Wall-clock time
is reported on stdout only, never in files.
"""

from __future__ import annotations

import copy
import json
import os
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import geometry, invopt, kernelreg, randomsets, textio
from .geometry import (
    Ball,
    Box,
    VertexPolytope,
    Zonotope,
    bounds_of,
    hausdorff,
    integrated_distance,
    minkowski_diff,
    minkowski_sum,
    scale,
    set_from_dict,
    set_to_dict,
)
from .randomsets import RandomlyTranslatedSet, RngSeed

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "EXPERIMENT_KINDS",
    "PRESETS",
    "parse_config",
    "config_from_dict",
    "config_to_dict",
    "preset_config",
    "run",
    "worker_count",
]

class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict
    seed: RngSeed = RngSeed(0)
    out_dir: str = "setstat_out"
    formats: tuple = ("csv", "json")


@dataclass
class RunReport:
    """In-memory result of one run; the file copy omits wall_clock_s."""

    config: dict
    metrics: dict
    checks: dict
    files: list
    wall_clock_s: float
    version: str

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


# --- parameter schemas -------------------------------------------------------

_PRIOR_DEFAULTS = {
    "eps_lo": 0.1,
    "eps_hi": 10.0,
    "d_eps": 0.05,
    "theta_lo": -2.0,
    "theta_hi": 2.0,
    "d_theta": 0.05,
    "w_lo": -1.0,
    "w_hi": 1.0,
}

_BODY_DEFAULT = {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
_NOISE_DEFAULT = {
    "type": "uniform-box",
    "lower": [-1.0, -1.0],
    "upper": [1.0, 1.0],
}

PRESETS: dict[str, dict] = {
    "sets-demo": {"n_directions": 360},
    "slln": {
        "body": _BODY_DEFAULT,
        "noise": _NOISE_DEFAULT,
        "n_values": [10, 100, 1000],
        "replicates": 10,
        "slope_window": [-0.65, -0.35],
    },
    "clt": {
        "body": _BODY_DEFAULT,
        "noise": _NOISE_DEFAULT,
        "n": 200,
        "replicates": 2000,
        "max_cov_rel_error": 0.2,
        "max_identity_gap": 1e-10,
    },
    "kernel-fit": {
        "n": 1000,
        "kernel": "epanechnikov",
        "h": None,
        "u_grid": {"lo": -1.5, "hi": 1.5, "step": 0.1},
        "max_median_error": 0.25,
    },
    "invopt-fit": {
        "program": "box-linear",
        "estimator": "abp",
        "n": 1000,
        "eps0": 1.0,
        "theta0": 0.0,
        "noise_radius": 3.0,
        "lam": None,
        "h": 0.2,
        "prior": dict(_PRIOR_DEFAULTS),
        "max_eps_error": 0.3,
        "max_theta_error": 0.3,
    },
    "compare-estimators": {
        "program": "box-linear",
        "estimators": ["abp", "kkt", "via"],
        "n_values": [10, 100, 1000],
        "replicates": 3,
        "eps0": 1.0,
        "theta0": 0.0,
        "noise_radius": 3.0,
        "lam": None,
        "h": 0.2,
        "baseline_theta": 0.0,
        "prior": dict(_PRIOR_DEFAULTS),
    },
    "gen-data": {
        "dataset": "set-regression",
        "n": 1000,
        "eps0": 1.0,
        "theta0": 0.0,
        "noise_radius": 3.0,
    },
}
EXPERIMENT_KINDS = tuple(PRESETS)


def _bound(value) -> float:
    """float(value) for a number or numeric string, not a bool or NaN; +inf is no bound."""
    if isinstance(value, bool) or np.isnan(out := float(value)):
        raise ValueError(f"must be a number (not a bool or NaN), got {value!r}")
    return out


def _real(value) -> float:
    """_bound(value), refusing infinities: every float field but a check bound."""
    if np.isinf(out := _bound(value)):
        raise ValueError(f"must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class _Field:
    """One parameter's rules: parse gives the stored value, which (each entry
    of a list field) must then be positive or nonnegative as range says, at
    most cap and one of choices; null is a value only in the kinds listed in
    null.  A list field is a nonempty list of distinct or increasing entries."""

    parse: Callable = copy.copy  # as given: a name, the slope window or an object
    range: str = ""
    cap: int | None = None
    null: tuple = ()
    choices: tuple = ()
    listed: str = ""  # "distinct" or "increasing"


_REAL, _POSITIVE, _NONNEGATIVE = (_Field(_real, r) for r in ("", "positive", "nonnegative"))
# Every field of every preset and of its prior and u_grid objects.  Count caps
# are ten times the largest of any preset, bench workload or configs/*.json
# file: n 20,000, an n_values entry 10,000, replicates 4,000, n_directions 360.
_FIELDS = {
    "n": _Field(randomsets._integral, "positive", 200_000),
    "n_values": _Field(randomsets._integral, "positive", 100_000, listed="increasing"),
    "replicates": _Field(randomsets._integral, "positive", 40_000),
    "n_directions": _Field(randomsets._integral, "positive", 3_600),
    "body": _Field(set_from_dict), "noise": _Field(randomsets.noise_from_dict),
    "slope_window": _Field(),
    "kernel": _Field(choices=tuple(kernelreg.KERNELS)),
    "program": _Field(choices=("box-linear", "box-quadratic")),
    "estimator": _Field(choices=("abp", "mle", "via", "kkt", "presmooth")),
    "dataset": _Field(choices=("set-regression", "box-linear", "box-quadratic")),
    "eps0": _NONNEGATIVE, "theta0": _REAL, "noise_radius": _POSITIVE, "baseline_theta": _REAL,
    "lam": _Field(_real, "nonnegative", null=("invopt-fit", "compare-estimators")),
    "h": _Field(_real, "positive", null=("kernel-fit",)),
    **dict.fromkeys(("max_cov_rel_error", "max_identity_gap", "max_median_error", "max_eps_error",
                     "max_theta_error"), _Field(_bound, "nonnegative")),  # the check bounds
    "prior": _Field(), "prior.eps_lo": _NONNEGATIVE, "prior.eps_hi": _REAL,
    "prior.d_eps": _POSITIVE, "prior.theta_lo": _REAL, "prior.theta_hi": _REAL,
    "prior.d_theta": _POSITIVE, "prior.w_lo": _REAL, "prior.w_hi": _REAL,
    "u_grid": _Field(), "u_grid.lo": _REAL, "u_grid.hi": _REAL, "u_grid.step": _POSITIVE,
}
_FIELDS["estimators"] = replace(_FIELDS["estimator"], listed="distinct")
_OBJECTS = ("prior", "u_grid")  # given field by field over the preset's object
# (lower, upper, grid step) fields of the prior and u_grid objects (W has no grid)
_RANGES = (("eps_lo", "eps_hi", "d_eps"), ("theta_lo", "theta_hi", "d_theta"),
           ("w_lo", "w_hi", None), ("lo", "hi", "step"))
_MAX_GRID_POINTS = 100_000  # per axis: 500 times the largest preset's (eps, 199 points)
# (eps, sample) and (eps, theta) cells of an estimator grid, 800 MB of float64:
# a full 10^5-point eps axis at the preset n = 1000, or n = 200,000 on 500 eps points
_MAX_GRID_CELLS = 100_000_000


def _parse_value(kind: str, name: str, value):
    """value parsed and checked by the _FIELDS rules of parameter name; a
    ConfigError names the parameter."""
    if name not in _FIELDS:  # a field of no prior or u_grid object
        raise ConfigError(f"unknown field {name}")
    field = _FIELDS[name]
    if value is None:
        if kind in field.null:
            return None
        raise ConfigError(f"parameter {name!r} must not be null")
    out = []
    for entry in value if field.listed and isinstance(value, list) else [value]:
        try:
            entry = field.parse(entry)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"parameter {name!r}: {exc}") from None
        if field.range == "positive" and not entry > 0 or field.range == "nonnegative" and not entry >= 0:
            raise ConfigError(f"parameter {name!r} must be {field.range}")
        if field.cap is not None and entry > field.cap:
            raise ConfigError(f"parameter {name!r} must be at most {field.cap}")
        if field.choices and entry not in field.choices:
            raise ConfigError(f"parameter {name!r} must be one of {', '.join(field.choices)}")
        out.append(entry)
    if not field.listed:
        return out[0]
    if not (isinstance(value, list) and out) or len(set(out)) < len(out) or (
            field.listed == "increasing" and out != sorted(out)):
        raise ConfigError(f"parameter {name!r} must be a nonempty list of {field.listed} entries")
    return out


def _validate_params(kind: str, params: dict) -> dict:
    """Merge user params over the kind preset, reject unknown keys, parse
    every field by its _FIELDS rules, then check the rules across fields."""
    if kind not in EXPERIMENT_KINDS:  # a tuple: an unhashable kind compares unequal
        raise ConfigError(f"kind must be one of {', '.join(EXPERIMENT_KINDS)}; got {kind!r}")
    merged = copy.deepcopy(PRESETS[kind])
    for key, value in params.items():
        if key not in merged:
            raise ConfigError(f"unknown parameter {key!r} for kind {kind!r}")
        merged[key] = value
    for key, value in merged.items():
        if key in _OBJECTS and isinstance(value, dict):
            value = {k2: _parse_value(kind, f"{key}.{k2}", v2)
                     for k2, v2 in {**PRESETS[kind][key], **value}.items()}
        elif key in _OBJECTS and value is not None:
            raise ConfigError(f"parameter {key!r} must be an object")
        merged[key] = _parse_value(kind, key, value)
    for key in (k for k in _OBJECTS if k in merged):
        sub = merged[key]
        for lo, hi, step in (r for r in _RANGES if r[0] in sub):
            if not sub[lo] <= sub[hi]:
                raise ConfigError(f"parameter '{key}.{lo}' must not exceed '{key}.{hi}'")
            if step and geometry._grid_count(sub[lo], sub[hi], sub[step]) > _MAX_GRID_POINTS:
                raise ConfigError(f"parameter '{key}.{step}' gives over {_MAX_GRID_POINTS} points")
    quadratic = merged.get("program") == "box-quadratic"
    if "prior" in merged:  # invopt-fit and compare-estimators: the grid buffers
        p = merged["prior"]
        n_eps, n_theta = (geometry._grid_count(p[lo], p[hi], p[step]) for lo, hi, step in _RANGES[:2])
        n_field = "n" if "n" in merged else "n_values"
        n = merged["n"] if "n" in merged else merged["n_values"][-1]
        n_theta = 1 if quadratic else n_theta  # the quadratic program has no theta
        for field, cells in ((n_field, n_eps * n), ("prior.d_theta", n_eps * n_theta)):
            if cells > _MAX_GRID_CELLS:
                raise ConfigError(f"parameter {field!r} gives {cells} grid cells with 'prior.d_eps', "
                                  f"over {_MAX_GRID_CELLS}")
    field = "estimators" if "estimators" in merged else "estimator"  # the estimators a run fits
    names = merged.get("estimators", [merged.get("estimator")])
    if quadratic and "presmooth" in names:
        raise ConfigError(f"parameter {field!r}: presmooth needs the box-linear program")
    if "mle" in names:  # the likelihood's law, uniform on W: a positive width and finite moments
        try:
            randomsets.UniformBoxNoise([merged["prior"]["w_lo"]], [merged["prior"]["w_hi"]])._bounds_1d()
        except ValueError as exc:
            raise ConfigError(f"parameter 'prior.w_lo' for the mle estimator: {exc}") from None
    window = merged.get("slope_window", [0, 0])  # slln only
    numbers = isinstance(window, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < np.inf for v in window
    )
    if not (numbers and len(window) == 2 and window[0] <= window[1]):
        raise ConfigError("parameter 'slope_window' must be two finite numbers lo <= hi")
    if kind == "slln" and len(merged["n_values"]) < 2:  # the error curve's slope needs two points
        raise ConfigError("parameter 'n_values' needs at least two entries for the slln slope")
    if "u_grid" in merged:  # kernel-fit: every query inside the demo truth's domain
        lo, hi = kernelreg._DEMO_DOMAIN
        u = geometry._grid_axis(**merged["u_grid"])
        if not (lo <= u[0] and u[-1] <= hi):
            raise ConfigError(f"parameter 'u_grid' leaves the demo truth's domain [{lo:g}, {hi:g}]")
    if "body" in merged:  # slln and clt: a body and a noise law of its dimension
        body, noise = merged["body"], merged["noise"]
        if body.dim != noise.dim:
            raise ConfigError(f"parameter 'noise' has dimension {noise.dim}, 'body' {body.dim}")
        merged["body"], merged["noise"] = set_to_dict(body), randomsets.noise_to_dict(noise)
    return merged


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"kind", "params", "seed", "out", "formats"}
    extra = set(data) - allowed
    if extra:
        raise ConfigError(f"unknown config fields {sorted(extra)}")
    if "kind" not in data:
        raise ConfigError("config requires a 'kind' field")
    kind = data["kind"]
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    params = _validate_params(kind, params)
    seed_spec = data.get("seed", {"seed": 0, "stream": 0})
    if not isinstance(seed_spec, dict):
        seed_spec = {"seed": seed_spec}
    if set(seed_spec) - {"seed", "stream"} or not all(
        type(v) is int and v >= 0 for v in seed_spec.values()  # type(True) is bool
    ):
        raise ConfigError("'seed' must be a nonnegative int or {seed, stream} object")
    seed = RngSeed(seed_spec.get("seed", 0), seed_spec.get("stream", 0))
    out_dir = data.get("out", "setstat_out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("'out' must be a nonempty path string")
    formats = data.get("formats", ["csv", "json"])
    if (
        not isinstance(formats, list)
        or not formats
        or any(f not in ("csv", "json") for f in formats)  # no set(): entries may be unhashable
    ):
        raise ConfigError("'formats' must be a nonempty subset of [csv, json]")
    return ExperimentConfig(
        kind=kind,
        params=params,
        seed=seed,
        out_dir=out_dir,
        formats=tuple(sorted(set(formats))),
    )


def parse_config(path) -> ExperimentConfig:
    """Strict JSON config parse with per-kind defaults filled in."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "kind": config.kind,
        "params": copy.deepcopy(config.params),
        "seed": config.seed.to_dict(),
        "out": config.out_dir,
        "formats": list(config.formats),
    }


def preset_config(kind: str, seed: int = 0, out_dir: str | None = None) -> ExperimentConfig:
    """Ready-to-run config for a kind using its preset parameters."""
    data = {"kind": kind, "seed": {"seed": seed, "stream": 0}}
    if out_dir is not None:
        data["out"] = out_dir
    return config_from_dict(data)


# --- worker pool --------------------------------------------------------------


def worker_count(n_tasks: int) -> int:
    """Pool size: min(tasks, cpu count, SETSTAT_THREADS cap)."""
    cap = os.environ.get("SETSTAT_THREADS")
    limit = os.cpu_count() or 1
    if cap is not None:
        try:
            limit = min(limit, max(1, int(cap)))
        except ValueError:
            raise ConfigError("SETSTAT_THREADS must be an integer")
    return max(1, min(n_tasks, limit))


def _ordered_map(fn, tasks):
    """Map preserving task order; parallel when the pool allows it."""
    tasks = list(tasks)
    workers = worker_count(len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# --- output files ---------------------------------------------------------------


class _Emitter:
    """The output directory, the table formats (csv, json or both) and the
    paths written so far, which a run that raises ConfigError removes."""

    def __init__(self, config: ExperimentConfig):
        self.dir = Path(config.out_dir)
        self.formats = config.formats
        self.files: list[str] = []
        self.dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        """The path of output file name, listed as written."""
        path = self.dir / name
        self.files.append(str(path))
        return path

    def table(self, stem: str, header, columns):
        """Write the columns, one sequence per header name, as textio.write_table."""
        csv_path, json_path = (
            self.path(f"{stem}.{fmt}") if fmt in self.formats else None for fmt in ("csv", "json")
        )
        textio.write_table(header, columns, csv_path, json_path)


# --- experiment implementations ------------------------------------------------


def _run_sets_demo(config, emit):
    nd = config.params["n_directions"]
    shapes = {
        "square": VertexPolytope([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]),
        "zonogon": Zonotope(
            [0.0, 0.0], [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], [1.0, 1.0, 1.0]
        ),
        "ball": Ball([0.5, 0.5], 0.75),
        "box": Box([-1.0, -1.0], [1.0, 1.0]),
    }
    names = sorted(shapes)
    rows = [
        (a, b, hausdorff(shapes[a], shapes[b], nd), integrated_distance(shapes[a], shapes[b]))
        for a in names
        for b in names
    ]
    emit.table("distances", ["set_a", "set_b", "hausdorff", "integrated"], list(zip(*rows)))
    dist = {(a, b): h for a, b, h, _ in rows}

    square, box = shapes["square"], shapes["box"]
    inflated = minkowski_sum(square, box)
    eroded = minkowski_diff(inflated, box)
    roundtrip_gap = hausdorff(eroded, square, nd)
    doubling_gap = hausdorff(minkowski_sum(square, square), scale(2.0, square), nd)
    metrics = {
        "roundtrip_gap": roundtrip_gap,
        "doubling_gap": doubling_gap,
        "hausdorff_symmetry_gap": max(abs(h - dist[b, a]) for (a, b), h in dist.items()),
    }
    checks = {
        "sum_then_erode_roundtrip": roundtrip_gap <= 1e-9,
        "doubling_matches_self_sum": doubling_gap <= 1e-9,
        "hausdorff_symmetric": metrics["hausdorff_symmetry_gap"] <= 1e-12,
    }
    return metrics, checks


def _slln_model(params) -> RandomlyTranslatedSet:
    body = set_from_dict(params["body"])
    noise = randomsets.noise_from_dict(params["noise"])
    return RandomlyTranslatedSet(body, noise)


def _run_slln(config, emit):
    params = config.params
    model = _slln_model(params)
    points, records = randomsets.slln_curve(
        model, params["n_values"], params["replicates"], config.seed
    )
    emit.table("slln_errors", ["n", "replicate", "error"], list(zip(*records)))
    log_n = np.log([p.n for p in points])
    log_e = np.log([p.mean_error for p in points])
    slope = float(np.polyfit(log_n, log_e, 1)[0])
    lo, hi = params["slope_window"]
    means = {str(p.n): p.mean_error for p in points}
    metrics = {"slope": slope, "mean_errors": means}
    checks = {
        "slope_in_window": lo <= slope <= hi,
        "errors_decreasing": all(
            points[i + 1].mean_error < points[i].mean_error
            for i in range(len(points) - 1)
        ),
    }
    return metrics, checks


def _run_clt(config, emit):
    params = config.params
    model = _slln_model(params)
    n, reps = params["n"], params["replicates"]
    vectors, stats = randomsets.clt_replicates(model, n, reps, config.seed)
    d = vectors.shape[1]
    emit.table(
        "clt_vectors",
        ["replicate"] + [f"v{j}" for j in range(d)],
        [range(reps), *vectors.T.tolist()],
    )
    norms = np.linalg.norm(vectors, axis=1)
    emit.table(
        "clt_statistics",
        ["replicate", "scaled_hausdorff", "vector_norm"],
        [range(reps), stats.tolist(), norms.tolist()],
    )
    target = model.noise.covariance
    emp = (vectors.T @ vectors) / reps
    rel_err = float(
        np.linalg.norm(emp - target) / np.linalg.norm(target)
    )
    identity_gap = float(np.max(np.abs(stats - norms)))
    metrics = {
        "cov_rel_error": rel_err,
        "identity_gap": identity_gap,
        "empirical_cov": emp.tolist(),
        "analytic_cov": target.tolist(),
    }
    checks = {
        "cov_within_tolerance": rel_err <= params["max_cov_rel_error"],
        "statistic_equals_norm": identity_gap <= params["max_identity_gap"],
    }
    return metrics, checks


def _run_kernel_fit(config, emit):
    params = config.params
    n = params["n"]
    kernel = kernelreg.KERNELS[params["kernel"]]
    h = params["h"] if params["h"] is not None else kernelreg.default_bandwidth(n, 1)
    dataset = kernelreg.generate_demo_dataset(n, config.seed)
    kernelreg.write_dataset_jsonl(dataset, emit.path("dataset.jsonl"))
    u_grid = geometry._grid_axis(**params["u_grid"])
    try:
        columns = kernelreg._demo_fit(dataset, kernel, u_grid, h)
    except kernelreg.NoLocalDataError as exc:  # the window is empty at some query
        raise ConfigError(f"parameter 'h': {exc}") from None
    header = ["u", "truth_lo", "truth_hi", "est_lo", "est_hi", "hausdorff"]
    emit.table("fit", header, [a.tolist() for a in (u_grid, *columns)])
    median_err = float(np.median(columns[4]))
    metrics = {"median_hausdorff": median_err, "bandwidth": h}
    checks = {"median_error_within_bound": median_err <= params["max_median_error"]}
    return metrics, checks


def _invopt_program(params):
    if params["program"] == "box-linear":
        return invopt.BoxLinearProgram()
    return invopt.BoxQuadraticProgram()


def _invopt_prior(params, program) -> invopt.PriorRegion:
    p = params["prior"]
    theta_box = None
    if isinstance(program, invopt.BoxLinearProgram):
        theta_box = Box([p["theta_lo"]], [p["theta_hi"]])
    return invopt.PriorRegion(
        eps_range=(p["eps_lo"], p["eps_hi"]),
        w_set=geometry.interval(p["w_lo"], p["w_hi"]),
        theta_box=theta_box,
        d_eps=p["d_eps"],
        d_theta=p["d_theta"],
    )


def _generate_observations(params, kind, seed):
    if kind == "box-linear":
        return invopt.generate_boxlinear_observations(
            params["n"], seed, eps0=params["eps0"], theta0=params["theta0"]
        )
    return invopt.generate_boxquadratic_observations(
        params["n"], params["noise_radius"], seed
    )


def _run_estimator(name, program, dataset, prior, params, seed):
    if name == "abp":
        return invopt.abp_estimate(program, dataset, prior, lam=params["lam"])
    if name == "mle":
        noise = randomsets.UniformBoxNoise(*bounds_of(prior.w_set))
        return invopt.mle_estimate(program, dataset, prior, noise)
    if name == "via":
        return invopt.via_estimate(program, dataset, _baseline_theta(program, params))
    if name == "kkt":
        return invopt.kkt_estimate(program, dataset, _baseline_theta(program, params))
    try:  # "presmooth", the last estimator name
        return invopt.presmooth_estimate(
            program, dataset, params["h"], prior, seed.derive(500_000),
            lam=params["lam"],
        )
    except invopt.EmptyNeighbourhoodError as exc:
        raise ConfigError(f"parameter 'h': {exc}") from None


def _baseline_theta(program, params):
    if program.theta_dim == 0:
        return None
    return np.full(program.theta_dim, params.get("baseline_theta", 0.0))


def _grid_columns(res):
    # eps major, then theta_mesh's flattened order: the order of grid_values
    n_eps, n_theta = res.grid_values.shape
    theta = np.tile(invopt.theta_mesh(res.theta_axes), (n_eps, 1))
    return [np.repeat(res.eps_axis, n_theta).tolist(), *theta.T.tolist(),
            res.grid_values.ravel().tolist()]


def _run_invopt_fit(config, emit):
    params = config.params
    program = _invopt_program(params)
    prior = _invopt_prior(params, program)
    dataset = _generate_observations(params, params["program"], config.seed)
    invopt.write_observations_jsonl(dataset, emit.path("observations.jsonl"))
    res = _run_estimator(params["estimator"], program, dataset, prior, params, config.seed)
    result = invopt.result_to_dict(res)
    textio.write_text(emit.path(f"result_{res.estimator}.json"), textio.json_text(result))
    if res.grid_values is not None:
        theta_cols = [f"theta{j}" for j in range(len(res.theta_axes or []))]
        emit.table("grid", ["eps", *theta_cols, "objective"], _grid_columns(res))
    eps_err = abs(res.eps_hat - params["eps0"])
    metrics = {k: result[k] for k in ("eps_hat", "theta_hat", "objective")}
    metrics["eps_abs_error"] = float(eps_err)
    checks = {}
    if params["estimator"] in ("abp", "mle", "presmooth"):
        checks["eps_error_within_bound"] = eps_err <= params["max_eps_error"]
        if program.theta_dim:
            theta_err = float(
                np.max(np.abs(np.atleast_1d(res.theta_hat) - params["theta0"]))
            )
            metrics["theta_abs_error"] = theta_err
            checks["theta_error_within_bound"] = theta_err <= params["max_theta_error"]
    return metrics, checks


def _run_compare_estimators(config, emit):
    params = config.params
    program = _invopt_program(params)
    prior = _invopt_prior(params, program)
    estimators, n_values = params["estimators"], params["n_values"]
    theta0 = params["theta0"] if program.theta_dim else 0.0

    def fit(task):
        """The compare rows of one (n, replicate) and, at replicate 0, the
        text of each estimator's result file: no grid outlives the task."""
        ni, r = task
        gen_params = dict(params, n=n_values[ni])
        seed = config.seed.derive(10_000 * ni + r)
        dataset = _generate_observations(gen_params, params["program"], seed)
        rows, texts = [], []
        for est in estimators:
            res = _run_estimator(est, program, dataset, prior, gen_params, seed)
            eps_hat = float(res.eps_hat)
            theta_first = float(np.atleast_1d(res.theta_hat)[0]) if program.theta_dim else 0.0
            rows.append((est, n_values[ni], r, eps_hat, theta_first,
                         abs(eps_hat - params["eps0"]), abs(theta_first - theta0)))
            if r == 0:
                texts.append(textio.json_text(invopt.result_to_dict(res)))
        return rows, texts

    # one pool pass, largest n (the last: n_values is increasing) first
    tasks = [(ni, r) for ni in reversed(range(len(n_values))) for r in range(params["replicates"])]
    fits = dict(zip(tasks, _ordered_map(fit, tasks)))
    rows = []
    medians: dict[str, dict[str, float]] = {e: {} for e in estimators}
    for ni, n in enumerate(n_values):
        n_rows = [row for r in range(params["replicates"]) for row in fits[ni, r][0]]
        rows += n_rows
        for est in estimators:
            medians[est][str(n)] = float(np.median([row[5] for row in n_rows if row[0] == est]))
        for est, text in zip(estimators, fits[ni, 0][1]):
            textio.write_text(emit.path(f"result_{est}_n{n}.json"), text)
    emit.table(
        "compare",
        ["estimator", "n", "replicate", "eps_hat", "theta_hat0", "eps_abs_error",
         "theta_abs_error"],
        list(zip(*rows)),
    )
    metrics = {"median_eps_error": medians}
    checks = {}
    if "abp" in estimators:
        series = [medians["abp"][str(n)] for n in n_values]
        checks["abp_error_decreasing"] = all(
            series[i + 1] <= series[i] for i in range(len(series) - 1)
        )
    return metrics, checks


def _run_gen_data(config, emit):
    params = config.params
    meta = {"dataset": params["dataset"], "n": params["n"]}
    if params["dataset"] == "set-regression":
        dataset = kernelreg.generate_demo_dataset(params["n"], config.seed)
        kernelreg.write_dataset_jsonl(dataset, emit.path("dataset.jsonl"))
    else:
        obs = _generate_observations(params, params["dataset"], config.seed)
        invopt.write_observations_jsonl(obs, emit.path("dataset.jsonl"))
        keys = ("eps0", "theta0") if params["dataset"] == "box-linear" else ("noise_radius",)
        meta.update({k: params[k] for k in keys})
    return meta, {}


_RUNNERS = {
    "sets-demo": _run_sets_demo,
    "slln": _run_slln,
    "clt": _run_clt,
    "kernel-fit": _run_kernel_fit,
    "invopt-fit": _run_invopt_fit,
    "compare-estimators": _run_compare_estimators,
    "gen-data": _run_gen_data,
}


def run(config: ExperimentConfig) -> RunReport:
    """Execute the configured experiment, writing reports under out_dir.

    The summary file echoes the config, metrics, and check outcomes but not
    the wall clock, keeping repeat runs byte-identical.  A run that raises
    ConfigError first removes the files it wrote, and only those.
    """
    from . import __version__

    start = time.perf_counter()
    worker_count(1)  # reject a malformed SETSTAT_THREADS even for serial kinds
    emit = _Emitter(config)
    try:
        metrics, checks = _RUNNERS[config.kind](config, emit)
    except ConfigError:
        for path in emit.files:
            Path(path).unlink(missing_ok=True)
        raise
    summary = {
        "config": config_to_dict(config),
        "metrics": metrics,
        "checks": checks,
        "version": __version__,
    }
    textio.write_text(emit.path("summary.json"), textio.json_text(summary))
    elapsed = time.perf_counter() - start
    return RunReport(
        config=config_to_dict(config),
        metrics=metrics,
        checks=checks,
        files=emit.files,
        wall_clock_s=elapsed,
        version=__version__,
    )
