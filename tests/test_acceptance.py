"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line (visible with ``pytest -s``) and
asserts the same condition, so ``pytest -v`` shows one pass/fail row per
criterion.  Tolerances, sample sizes, and runtime budgets are part of the
guarantee and are asserted, not just reported.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from setstat.geometry import (
    Box,
    VertexPolytope,
    dist_point,
    hausdorff,
    interval,
    minkowski_diff,
    minkowski_sum,
)
from setstat.invopt import (
    BoxLinearProgram,
    BoxQuadraticProgram,
    PriorRegion,
    abp_estimate,
    generate_boxlinear_observations,
    generate_boxquadratic_observations,
    kkt_estimate,
    mle_estimate,
    rdf_eval,
    via_estimate,
)
from setstat.kernelreg import consistency_curve
from setstat.randomsets import (
    EXPECTATION_LAWS,
    RandomlyTranslatedSet,
    RngSeed,
    UniformBoxNoise,
    check_expectation_law,
    clt_replicates,
    slln_curve,
)
from setstat import harness


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{label}]: {status} ({detail})")
    assert ok, f"criterion {num} [{label}]: {detail}"


# --- 1. exact set-arithmetic oracles -----------------------------------------


def _random_polygon(rng: np.random.Generator) -> VertexPolytope:
    k = int(rng.integers(3, 9))
    return VertexPolytope(rng.uniform(-3.0, 3.0, size=(k, 2)))


def _edge_grid_distance(y: np.ndarray, poly: VertexPolytope, m: int = 20_001) -> float:
    """Min distance from y to the polygon boundary, sampled on every edge."""
    v = poly.vertices
    t = np.linspace(0.0, 1.0, m)[:, None]
    best = np.inf
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        pts = a + t * (b - a)
        best = min(best, float(np.min(np.linalg.norm(pts - y, axis=1))))
    return best


def test_criterion_01_set_arithmetic_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_260_814)
    worst_sum = worst_dist = worst_erode = 0.0
    for _ in range(200):
        a, b = _random_polygon(rng), _random_polygon(rng)
        lib_sum = minkowski_sum(a, b)
        cloud = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, 2)
        oracle = VertexPolytope(cloud, prune=False)
        worst_sum = max(worst_sum, hausdorff(lib_sum, oracle))

        eroded = minkowski_diff(lib_sum, b)
        assert eroded is not None
        worst_erode = max(worst_erode, hausdorff(eroded, a))

        phi = rng.uniform(0.0, 2.0 * np.pi)
        y = rng.uniform(4.5, 6.0) * np.array([np.cos(phi), np.sin(phi)])
        worst_dist = max(worst_dist, abs(dist_point(y, a) - _edge_grid_distance(y, a)))
    elapsed = time.perf_counter() - t0
    ok = worst_sum <= 1e-9 and worst_dist <= 1e-6 and worst_erode <= 1e-9 and elapsed < 30.0
    _line(
        1,
        "set-arithmetic-oracles",
        ok,
        f"sum gap {worst_sum:.2e}, dist gap {worst_dist:.2e}, "
        f"erode gap {worst_erode:.2e}, {elapsed:.1f}s",
    )


# --- 2. strong law of large numbers -------------------------------------------


def _unit_square_model() -> RandomlyTranslatedSet:
    body = Box([-1.0, -1.0], [1.0, 1.0])
    noise = UniformBoxNoise([-1.0, -1.0], [1.0, 1.0])
    return RandomlyTranslatedSet(body, noise)


def test_criterion_02_minkowski_mean_convergence_rate():
    t0 = time.perf_counter()
    points, _ = slln_curve(_unit_square_model(), [100, 1000, 10_000], 50, RngSeed(11))
    slope = float(
        np.polyfit(
            np.log([p.n for p in points]), np.log([p.mean_error for p in points]), 1
        )[0]
    )
    elapsed = time.perf_counter() - t0
    ok = -0.65 <= slope <= -0.35 and elapsed < 120.0
    _line(2, "mean-convergence-rate", ok, f"log-log slope {slope:.3f}, {elapsed:.1f}s")


# --- 3. central limit theorem --------------------------------------------------


def test_criterion_03_normalized_difference_clt():
    t0 = time.perf_counter()
    model = _unit_square_model()
    vectors, stats = clt_replicates(model, 1000, 10_000, RngSeed(12))
    identity_gap = float(np.max(np.abs(stats - np.linalg.norm(vectors, axis=1))))
    target = np.eye(2) / 3.0  # covariance of U([-1,1]^2) noise
    emp = np.cov(vectors.T)
    rel = float(np.linalg.norm(emp - target) / np.linalg.norm(target))
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.10 and identity_gap <= 1e-10 and elapsed < 120.0
    _line(
        3,
        "normalized-difference-clt",
        ok,
        f"cov rel err {rel:.3f}, statistic-norm gap {identity_gap:.1e}, {elapsed:.1f}s",
    )


# --- 4. expectation algebra -----------------------------------------------------

_LAW_CONFIG_BASE = 100
_LAW_SEED = 6


def _random_law_configs(base_seed: int) -> list[dict]:
    """Five random nested-box configurations covering every law precondition."""
    configs = []
    for k in range(5):
        rng = np.random.default_rng(base_seed + k)
        center = rng.uniform(-0.5, 0.5, 2)
        half = rng.uniform(0.3, 0.8, 2)
        small = Box(center - half, center + half)
        big = Box(small.lower - rng.uniform(0.1, 0.6, 2),
                  small.upper + rng.uniform(0.1, 0.6, 2))

        def _noise() -> UniformBoxNoise:
            c = rng.uniform(-0.3, 0.3, 2)
            h = rng.uniform(0.2, 0.6, 2)
            return UniformBoxNoise(c - h, c + h)

        p = float(rng.uniform(0.2, 0.8))
        configs.append({
            "small": small,
            "big": big,
            "noise_a": _noise(),
            "noise_b": _noise(),
            "shared": _noise(),
            "psi_values": np.sort(rng.uniform(0.6, 1.4, 2)),
            "psi_probs": np.array([p, 1.0 - p]),
        })
    return configs


def _law_models(cfg: dict, law: str) -> dict:
    small, big = cfg["small"], cfg["big"]
    if law == "deterministic":
        return {"c": RandomlyTranslatedSet(small, cfg["noise_a"])}
    if law == "sum":
        return {"c": RandomlyTranslatedSet(small, cfg["noise_a"]),
                "d": RandomlyTranslatedSet(big, cfg["noise_b"])}
    if law == "scale":
        return {"c": RandomlyTranslatedSet(small, cfg["noise_a"]),
                "psi_values": cfg["psi_values"], "psi_probs": cfg["psi_probs"]}
    if law in ("subset", "intersection"):
        # nested bodies under one shared noise object
        return {"c": RandomlyTranslatedSet(small, cfg["shared"]),
                "d": RandomlyTranslatedSet(big, cfg["shared"])}
    if law == "union":
        return {"c": RandomlyTranslatedSet(small, cfg["noise_a"]),
                "d": RandomlyTranslatedSet(big, cfg["noise_b"])}
    # erosion: shrink the bigger body by the smaller one
    return {"c": RandomlyTranslatedSet(big, cfg["noise_a"]),
            "d": RandomlyTranslatedSet(small, cfg["noise_b"])}


def test_criterion_04_expectation_laws_on_random_configs():
    failures = []
    worst = 0.0
    for k, cfg in enumerate(_random_law_configs(_LAW_CONFIG_BASE)):
        for j, law in enumerate(EXPECTATION_LAWS):
            report = check_expectation_law(
                law, _law_models(cfg, law), seed=RngSeed(_LAW_SEED).derive(10 * k + j)
            )
            worst = max(worst, report.metric / report.tolerance if report.tolerance else 0.0)
            if not report.passed:
                failures.append(f"config {k} law {law} metric {report.metric:.3g}")
    ok = not failures
    detail = "35/35 checks passed" if ok else "; ".join(failures)
    _line(4, "expectation-laws", ok, detail)


# --- 5. kernel regression consistency ------------------------------------------


def test_criterion_05_kernel_regression_consistency():
    t0 = time.perf_counter()
    u_grid = np.arange(-1.5, 1.5 + 1e-9, 0.1)
    points, _ = consistency_curve([100, 10_000], 20, u_grid, RngSeed(5))
    small, large = points[0].median_error, points[1].median_error
    elapsed = time.perf_counter() - t0
    ok = large < 0.5 * small and large <= 0.25 and elapsed < 300.0
    _line(
        5,
        "kernel-regression-consistency",
        ok,
        f"median err {small:.4f} (n=1e2) -> {large:.4f} (n=1e4), {elapsed:.1f}s",
    )


# --- 6. distance-based estimator consistency ------------------------------------


def _linear_prior() -> PriorRegion:
    return PriorRegion(
        eps_range=(0.1, 10.0),
        w_set=interval(-1.0, 1.0),
        theta_box=Box([-2.0], [2.0]),
        d_eps=0.05,
        d_theta=0.05,
    )


def test_criterion_06_abp_estimator_consistency():
    t0 = time.perf_counter()
    prog = BoxLinearProgram()
    prior = _linear_prior()
    eps_med, theta_med = [], []
    for ni, n in enumerate([10, 100, 1000]):
        eps_err, theta_err = [], []
        for r in range(20):
            dataset = generate_boxlinear_observations(n, RngSeed(0).derive(10_000 * ni + r))
            res = abp_estimate(prog, dataset, prior)
            eps_err.append(abs(res.eps_hat - 1.0))
            theta_err.append(abs(float(res.theta_hat[0])))
        eps_med.append(float(np.median(eps_err)))
        theta_med.append(float(np.median(theta_err)))
    elapsed = time.perf_counter() - t0
    final_ok = eps_med[-1] <= 0.3 and theta_med[-1] <= 0.3
    monotone = (
        eps_med[0] >= eps_med[1] >= eps_med[2]
        and theta_med[0] >= theta_med[1] >= theta_med[2]
        and eps_med[0] > eps_med[2]
    )
    ok = final_ok and monotone and elapsed < 600.0
    _line(
        6,
        "abp-consistency",
        ok,
        f"median |eps-1| {eps_med}, median |theta| {theta_med}, {elapsed:.1f}s",
    )


# --- 7. first-order baselines stay biased under noise ----------------------------


def test_criterion_07_first_order_baselines_inconsistent():
    t0 = time.perf_counter()
    prog = BoxQuadraticProgram()
    mins = {}
    abp_errs = []
    for ri, radius in enumerate([3.0, 6.0]):
        via_vals, kkt_vals = [], []
        for rep in range(20):
            dataset = generate_boxquadratic_observations(
                10_000, radius, RngSeed(7).derive(1000 * ri + rep)
            )
            via_vals.append(via_estimate(prog, dataset).eps_hat)
            kkt_vals.append(kkt_estimate(prog, dataset).eps_hat)
            if radius == 6.0:
                prior = PriorRegion(
                    eps_range=(0.1, 10.0),
                    w_set=interval(-radius, radius),
                    d_eps=0.05,
                )
                abp_errs.append(abs(abp_estimate(prog, dataset, prior).eps_hat - 1.0))
        mins[radius] = (min(via_vals), min(kkt_vals))
    abp_med = float(np.median(abp_errs))
    elapsed = time.perf_counter() - t0
    baselines_ok = (
        mins[3.0][0] > 1.0
        and mins[3.0][1] > 1.0
        and mins[6.0][0] > 1.5
        and mins[6.0][1] > 1.5
    )
    ok = baselines_ok and abp_med <= 0.3 and elapsed < 300.0
    _line(
        7,
        "baseline-inconsistency",
        ok,
        f"min eps-hat r=3 via/kkt {mins[3.0][0]:.2f}/{mins[3.0][1]:.2f}, "
        f"r=6 {mins[6.0][0]:.2f}/{mins[6.0][1]:.2f}, "
        f"abp median |eps-1| {abp_med:.3f}, {elapsed:.1f}s",
    )


# --- 8. likelihood and distance estimators agree ---------------------------------


def test_criterion_08_mle_abp_grid_agreement():
    prog = BoxLinearProgram()
    prior = _linear_prior()
    noise = UniformBoxNoise([-1.0], [1.0])
    agree = 0
    for rep in range(20):
        dataset = generate_boxlinear_observations(1000, RngSeed(3).derive(rep))
        abp = abp_estimate(prog, dataset, prior)
        mle = mle_estimate(prog, dataset, prior, noise)
        d_eps = abs(abp.eps_hat - mle.eps_hat)
        d_theta = abs(float(abp.theta_hat[0]) - float(mle.theta_hat[0]))
        if d_eps <= 0.05 + 1e-9 and d_theta <= 0.05 + 1e-9:
            agree += 1
    ok = agree >= 16
    _line(8, "mle-abp-agreement", ok, f"{agree}/20 replicates within one grid cell")


# --- 9. regularized dual gradients ------------------------------------------------


def test_criterion_09_dual_function_gradients():
    prog = BoxLinearProgram()
    rng = np.random.default_rng(99)
    step = 1e-6
    worst = 0.0
    for _ in range(100):
        u = rng.uniform(-2.0, 2.0, 1)
        theta = rng.uniform(-2.0, 2.0, 1)
        lam = rng.uniform(0.05, 1.5, 2)
        mu = float(rng.uniform(0.05, 1.5))
        _, grad_theta, grad_lam = rdf_eval(prog, u, theta, lam, mu)
        fd_theta = (
            rdf_eval(prog, u, theta + step, lam, mu)[0]
            - rdf_eval(prog, u, theta - step, lam, mu)[0]
        ) / (2 * step)
        worst = max(worst, abs(float(grad_theta[0]) - fd_theta))
        for i in range(2):
            bump = np.zeros(2)
            bump[i] = step
            fd_lam = (
                rdf_eval(prog, u, theta, lam + bump, mu)[0]
                - rdf_eval(prog, u, theta, lam - bump, mu)[0]
            ) / (2 * step)
            worst = max(worst, abs(float(grad_lam[i]) - fd_lam))
    ok = worst <= 1e-6
    _line(9, "dual-gradients", ok, f"max gradient error {worst:.2e} over 100 points")


# --- 10. preset byte determinism ---------------------------------------------------


def test_criterion_10_preset_byte_determinism(tmp_path):
    mismatched = []
    n_files = 0
    for kind in harness.EXPERIMENT_KINDS:
        out = tmp_path / kind
        config = harness.preset_config(kind, seed=0, out_dir=str(out))
        harness.run(config)
        first = {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }
        harness.run(config)
        second = {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }
        n_files += len(first)
        if first != second:
            mismatched.append(kind)
    ok = not mismatched
    detail = (
        f"{n_files} files byte-identical across reruns of "
        f"{len(harness.EXPERIMENT_KINDS)} presets"
        if ok
        else f"mismatch in {', '.join(mismatched)}"
    )
    _line(10, "preset-byte-determinism", ok, detail)
