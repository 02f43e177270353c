"""Seeded experiment orchestration, config parsing, and report files.

Each experiment kind wires the library modules into a deterministic run:
identical configs produce byte-identical output files.  Floats are written
with Python's shortest round-trip repr, JSON keys are sorted, and all
randomness flows through derived RngSeed streams.  Wall-clock time is
reported on stdout only, never in files.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import geometry, invopt, kernelreg, randomsets
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

EXPERIMENT_KINDS = (
    "sets-demo",
    "slln",
    "clt",
    "kernel-fit",
    "invopt-fit",
    "compare-estimators",
    "gen-data",
)


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

_SCALAR_TYPES = {
    "n": int,
    "replicates": int,
    "n_directions": int,
    "eps0": float,
    "theta0": float,
    "noise_radius": float,
    "baseline_theta": float,
    "max_cov_rel_error": float,
    "max_identity_gap": float,
    "max_median_error": float,
    "max_eps_error": float,
    "max_theta_error": float,
    "lam": float,
    "h": float,
}

_POSITIVE_FIELDS = {"n", "replicates", "n_directions", "noise_radius", "h"}
_ESTIMATORS = ("abp", "mle", "via", "kkt", "presmooth")


def _coerce(name: str, kind: type, value):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"parameter {name!r} must be {kind.__name__}") from None


def _validate_params(kind: str, params: dict) -> dict:
    """Merge user params over the kind preset; reject unknown keys."""
    if kind not in PRESETS:
        raise ConfigError(
            f"kind must be one of {', '.join(EXPERIMENT_KINDS)}; got {kind!r}"
        )
    merged = copy.deepcopy(PRESETS[kind])
    for key, value in params.items():
        if key not in merged:
            raise ConfigError(f"unknown parameter {key!r} for kind {kind!r}")
        if isinstance(merged[key], dict) and key in ("prior", "u_grid"):
            if not isinstance(value, dict):
                raise ConfigError(f"parameter {key!r} must be an object")
            sub = dict(merged[key])
            for k2, v2 in value.items():
                if k2 not in sub:
                    raise ConfigError(f"unknown field {key}.{k2}")
                sub[k2] = _coerce(f"{key}.{k2}", float, v2)
            for k2 in ("step", "d_eps", "d_theta"):  # grid steps
                if k2 in sub and not sub[k2] > 0:
                    raise ConfigError(f"parameter '{key}.{k2}' must be positive")
            merged[key] = sub
        else:
            merged[key] = value
    for key, value in merged.items():
        if key in _SCALAR_TYPES and value is not None:
            merged[key] = _coerce(key, _SCALAR_TYPES[key], value)
            if key in _POSITIVE_FIELDS and merged[key] <= 0:
                raise ConfigError(f"parameter {key!r} must be positive")
    if "n_values" in merged:
        vals = merged["n_values"]
        try:
            counts = [int(v) for v in vals]
        except (TypeError, ValueError):
            counts = []
        if not isinstance(vals, list) or not counts or min(counts) <= 0 or vals != sorted(counts):
            raise ConfigError("parameter 'n_values' must be an increasing list of positive counts")
        merged["n_values"] = counts
    if merged.get("lam") is not None and merged["lam"] < 0:
        raise ConfigError("parameter 'lam' must be nonnegative")
    if "kernel" in merged and not (
        isinstance(merged["kernel"], str) and merged["kernel"] in kernelreg.KERNELS
    ):
        raise ConfigError(
            f"parameter 'kernel' must be one of {sorted(kernelreg.KERNELS)}"
        )
    if "program" in merged and merged["program"] not in ("box-linear", "box-quadratic"):
        raise ConfigError("parameter 'program' must be box-linear or box-quadratic")
    if "estimator" in merged and merged["estimator"] not in _ESTIMATORS:
        raise ConfigError(f"parameter 'estimator' must be one of {', '.join(_ESTIMATORS)}")
    if "estimators" in merged:
        if not isinstance(merged["estimators"], list):
            raise ConfigError("parameter 'estimators' must be a list")
        for est in merged["estimators"]:
            if est not in _ESTIMATORS:
                raise ConfigError(f"unknown estimator {est!r} in 'estimators'")
    if "dataset" in merged and merged["dataset"] not in (
        "set-regression", "box-linear", "box-quadratic",
    ):
        raise ConfigError(
            "parameter 'dataset' must be set-regression, box-linear, or box-quadratic"
        )
    if "body" in merged:
        merged["body"] = set_to_dict(set_from_dict(merged["body"]))
    if "noise" in merged:
        merged["noise"] = randomsets.noise_to_dict(
            randomsets.noise_from_dict(merged["noise"])
        )
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
    if isinstance(seed_spec, int):
        seed_spec = {"seed": seed_spec, "stream": 0}
    if (
        not isinstance(seed_spec, dict)
        or set(seed_spec) - {"seed", "stream"}
        or not isinstance(seed_spec.get("seed", 0), int)
        or not isinstance(seed_spec.get("stream", 0), int)
        or seed_spec.get("seed", 0) < 0
        or seed_spec.get("stream", 0) < 0
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
        or set(formats) - {"csv", "json"}
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


# --- file writers --------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_value(value):
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Emitter:
    """Collects output files.

    Tabular outputs honor the configured format subset (a .csv file, a .json
    twin holding the rows as objects, or both); structural artifacts such as
    summaries, estimator results, and datasets are always written.
    """

    def __init__(self, config: ExperimentConfig):
        self.dir = Path(config.out_dir)
        self.formats = config.formats
        self.files: list[str] = []
        self.dir.mkdir(parents=True, exist_ok=True)

    def table(self, stem: str, header, rows):
        rows = list(rows)
        if "csv" in self.formats:
            path = self.dir / f"{stem}.csv"
            _write_csv(path, header, rows)
            self.files.append(str(path))
        if "json" in self.formats:
            path = self.dir / f"{stem}.json"
            _write_json(
                path,
                [{k: _json_value(v) for k, v in zip(header, row)} for row in rows],
            )
            self.files.append(str(path))

    def json(self, name: str, obj):
        path = self.dir / name
        _write_json(path, obj)
        self.files.append(str(path))

    def jsonl(self, name: str, write_fn):
        path = self.dir / name
        write_fn(path)
        self.files.append(str(path))


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
    rows = []
    for a in names:
        for b in names:
            rows.append(
                (
                    a,
                    b,
                    hausdorff(shapes[a], shapes[b], nd),
                    integrated_distance(shapes[a], shapes[b]),
                )
            )
    emit.table("distances", ["set_a", "set_b", "hausdorff", "integrated"], rows)

    square, box = shapes["square"], shapes["box"]
    inflated = minkowski_sum(square, box)
    eroded = minkowski_diff(inflated, box)
    roundtrip_gap = hausdorff(eroded, square, nd)
    doubling_gap = hausdorff(minkowski_sum(square, square), scale(2.0, square), nd)
    metrics = {
        "roundtrip_gap": roundtrip_gap,
        "doubling_gap": doubling_gap,
        "hausdorff_symmetry_gap": max(
            abs(hausdorff(shapes[a], shapes[b], nd) - hausdorff(shapes[b], shapes[a], nd))
            for a in names
            for b in names
        ),
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
    emit.table("slln_errors", ["n", "replicate", "error"], records)
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
    vectors = randomsets.clt_difference_replicates(model, n, reps, config.seed)
    stats = randomsets.hausdorff_statistic_replicates(model, n, reps, config.seed)
    d = vectors.shape[1]
    emit.table(
        "clt_vectors",
        ["replicate"] + [f"v{j}" for j in range(d)],
        [(r, *map(float, vectors[r])) for r in range(reps)],
    )
    norms = np.linalg.norm(vectors, axis=1)
    emit.table(
        "clt_statistics",
        ["replicate", "scaled_hausdorff", "vector_norm"],
        [(r, float(stats[r]), float(norms[r])) for r in range(reps)],
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
    emit.jsonl("dataset.jsonl", lambda p: kernelreg.write_dataset_jsonl(dataset, p))
    grid_spec = params["u_grid"]
    count = int(round((grid_spec["hi"] - grid_spec["lo"]) / grid_spec["step"])) + 1
    u_grid = grid_spec["lo"] + grid_spec["step"] * np.arange(count)

    def fit_one(u):
        truth = kernelreg.demo_truth(float(u))
        est = kernelreg.estimate(dataset, kernel, u, h)
        t_lo, t_hi = bounds_of(truth)
        e_lo, e_hi = bounds_of(est)
        err = hausdorff(est, truth)
        return (
            float(u),
            float(t_lo[0]),
            float(t_hi[0]),
            float(e_lo[0]),
            float(e_hi[0]),
            err,
        )

    rows = _ordered_map(fit_one, u_grid)
    emit.table(
        "fit",
        ["u", "truth_lo", "truth_hi", "est_lo", "est_hi", "hausdorff"],
        rows,
    )
    median_err = float(np.median([r[5] for r in rows]))
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


def _generate_observations(params, program, seed):
    if isinstance(program, invopt.BoxLinearProgram):
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
        w_lo, w_hi = bounds_of(prior.w_set)
        density = invopt.UniformNoiseDensity(float(w_lo[0]), float(w_hi[0]))
        return invopt.mle_estimate(program, dataset, prior, density)
    if name == "via":
        return invopt.via_estimate(program, dataset, _baseline_theta(program, params))
    if name == "kkt":
        return invopt.kkt_estimate(program, dataset, _baseline_theta(program, params))
    if name == "presmooth":
        return invopt.presmooth_estimate(
            program, dataset, params["h"], prior, seed.derive(500_000),
            lam=params["lam"],
        )
    raise ConfigError(f"unknown estimator {name!r}")


def _baseline_theta(program, params):
    if program.theta_dim == 0:
        return None
    return np.full(program.theta_dim, params.get("baseline_theta", 0.0))


def _grid_csv_rows(res):
    # flattened theta ordering matches the grid table's column order
    theta_points = invopt.theta_mesh(res.theta_axes)
    rows = []
    for i, eps in enumerate(res.eps_axis):
        for j, th in enumerate(theta_points):
            rows.append((float(eps), *[float(v) for v in th], float(res.grid_values[i, j])))
    return rows


def _run_invopt_fit(config, emit):
    params = config.params
    program = _invopt_program(params)
    prior = _invopt_prior(params, program)
    dataset = _generate_observations(params, program, config.seed)
    emit.jsonl(
        "observations.jsonl",
        lambda p: invopt.write_observations_jsonl(dataset, p),
    )
    res = _run_estimator(
        params["estimator"], program, dataset, prior, params, config.seed
    )
    emit.json(f"result_{res.estimator}.json", invopt.result_to_dict(res))
    if res.grid_values is not None:
        theta_cols = [f"theta{j}" for j in range(len(res.theta_axes or []))]
        emit.table("grid", ["eps", *theta_cols, "objective"], _grid_csv_rows(res))
    eps_err = abs(res.eps_hat - params["eps0"])
    metrics = {
        "eps_hat": float(res.eps_hat),
        "theta_hat": [float(v) for v in np.atleast_1d(res.theta_hat)],
        "objective": float(res.objective),
        "eps_abs_error": float(eps_err),
    }
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
    rows = []
    medians: dict[str, dict[str, float]] = {e: {} for e in params["estimators"]}
    for ni, n in enumerate(params["n_values"]):
        gen_params = dict(params, n=n)

        def one_replicate(r, _gp=gen_params, _ni=ni):
            seed = config.seed.derive(10_000 * _ni + r)
            dataset = _generate_observations(_gp, program, seed)
            return {
                est: _run_estimator(est, program, dataset, prior, _gp, seed)
                for est in params["estimators"]
            }

        results = _ordered_map(one_replicate, range(params["replicates"]))
        for r, by_est in enumerate(results):
            for est, res in by_est.items():
                theta0 = params["theta0"] if program.theta_dim else 0.0
                theta_first = (
                    float(np.atleast_1d(res.theta_hat)[0]) if program.theta_dim else 0.0
                )
                rows.append(
                    (
                        est,
                        n,
                        r,
                        float(res.eps_hat),
                        theta_first,
                        abs(float(res.eps_hat) - params["eps0"]),
                        abs(theta_first - theta0),
                    )
                )
        for est in params["estimators"]:
            errs = [row[5] for row in rows if row[0] == est and row[1] == n]
            medians[est][str(n)] = float(np.median(errs))
        for est, res in results[0].items():
            emit.json(f"result_{est}_n{n}.json", invopt.result_to_dict(res))
    emit.table(
        "compare",
        ["estimator", "n", "replicate", "eps_hat", "theta_hat0", "eps_abs_error",
         "theta_abs_error"],
        rows,
    )
    metrics = {"median_eps_error": medians}
    checks = {}
    if "abp" in params["estimators"]:
        series = [medians["abp"][str(n)] for n in params["n_values"]]
        checks["abp_error_decreasing"] = all(
            series[i + 1] <= series[i] for i in range(len(series) - 1)
        )
    return metrics, checks


def _run_gen_data(config, emit):
    params = config.params
    meta = {"dataset": params["dataset"], "n": params["n"]}
    if params["dataset"] == "set-regression":
        dataset = kernelreg.generate_demo_dataset(params["n"], config.seed)
        emit.jsonl("dataset.jsonl", lambda p: kernelreg.write_dataset_jsonl(dataset, p))
    elif params["dataset"] == "box-linear":
        obs = invopt.generate_boxlinear_observations(
            params["n"], config.seed, eps0=params["eps0"], theta0=params["theta0"]
        )
        emit.jsonl("dataset.jsonl", lambda p: invopt.write_observations_jsonl(obs, p))
        meta.update({"eps0": params["eps0"], "theta0": params["theta0"]})
    else:
        obs = invopt.generate_boxquadratic_observations(
            params["n"], params["noise_radius"], config.seed
        )
        emit.jsonl("dataset.jsonl", lambda p: invopt.write_observations_jsonl(obs, p))
        meta.update({"noise_radius": params["noise_radius"]})
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
    the wall clock, keeping repeat runs byte-identical.
    """
    from . import __version__

    start = time.perf_counter()
    worker_count(1)  # reject a malformed SETSTAT_THREADS even for serial kinds
    emit = _Emitter(config)
    metrics, checks = _RUNNERS[config.kind](config, emit)
    summary = {
        "config": config_to_dict(config),
        "metrics": metrics,
        "checks": checks,
        "version": __version__,
    }
    emit.json("summary.json", summary)
    elapsed = time.perf_counter() - start
    return RunReport(
        config=config_to_dict(config),
        metrics=metrics,
        checks=checks,
        files=emit.files,
        wall_clock_s=elapsed,
        version=__version__,
    )
