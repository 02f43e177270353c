"""Recovering objective parameters from noisily observed near-optimal picks.

Observations are y_i = x_i + w_i where x_i lies in the eps0-argmin set of a
parametric program.  The distance-based grid estimator stays consistent
under this measurement noise, while first-order baselines that score the
raw observations do not.  The script fits both program families, compares
the estimators as the noise widens, runs the likelihood variant, inspects
the regularized dual function, and shows the presmoothing pipeline.
"""

import numpy as np

from setstat.geometry import Box, bounds_of, interval
from setstat.invopt import (
    BoxLinearProgram,
    BoxQuadraticProgram,
    PriorRegion,
    abp_estimate,
    eps_argmin_set,
    generate_boxlinear_observations,
    generate_boxquadratic_observations,
    kkt_estimate,
    mle_estimate,
    noise_support_box,
    presmooth_estimate,
    rdf_eval,
    via_estimate,
)
from setstat.randomsets import RngSeed, UniformBoxNoise


def main() -> None:
    prog = BoxLinearProgram()
    print("== the forward problem ==")
    print(f"V(u=1, theta=0)  = {prog.value([1.0], [0.0]):.4f}")
    for eps in (0.5, 1.0, 2.0):
        lo, hi = bounds_of(eps_argmin_set(prog, [1.0], eps, [0.0]))
        print(f"eps-argmin set at eps = {eps}: [{lo[0]:.3f}, {hi[0]:.3f}]")

    print("\n== distance-based grid fit (true eps = 1, theta = 0) ==")
    prior = PriorRegion(eps_range=(0.1, 10.0), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-2.0], [2.0]))
    for n in (10, 100, 1000):
        dataset = generate_boxlinear_observations(n, RngSeed(0))
        res = abp_estimate(prog, dataset, prior)
        print(f"n = {n:>5d}: eps-hat {res.eps_hat:.3f}, "
              f"theta-hat {res.theta_hat[0]: .3f} (lam = 1/n = {res.lam:g})")

    print("\n== first-order baselines under widening noise ==")
    quad = BoxQuadraticProgram()
    qprior = PriorRegion(eps_range=(0.1, 10.0), w_set=interval(-3.0, 3.0))
    print(f"{'radius':>7s} {'abp':>7s} {'via':>8s} {'kkt':>8s}   (true eps = 1)")
    for radius in (1.0, 3.0, 6.0):
        dataset = generate_boxquadratic_observations(5000, radius, RngSeed(1))
        rp = PriorRegion(eps_range=(0.1, 10.0), w_set=interval(-radius, radius))
        abp = abp_estimate(quad, dataset, rp)
        via = via_estimate(quad, dataset)
        kkt = kkt_estimate(quad, dataset)
        print(f"{radius:7.1f} {abp.eps_hat:7.3f} {via.eps_hat:8.3f} {kkt.eps_hat:8.3f}")
    print("the baselines score the noisy points themselves, so their")
    print("suboptimality estimates grow with the noise instead of vanishing")

    print("\n== likelihood variant ==")
    dataset = generate_boxlinear_observations(1000, RngSeed(2))
    mle = mle_estimate(prog, dataset, prior, UniformBoxNoise([-1.0], [1.0]))
    abp = abp_estimate(prog, dataset, prior)
    print(f"mle: eps-hat {mle.eps_hat:.3f}, theta-hat {mle.theta_hat[0]: .3f}")
    print(f"abp: eps-hat {abp.eps_hat:.3f}, theta-hat {abp.theta_hat[0]: .3f}")

    print("\n== regularized dual function ==")
    u, theta = np.array([1.0]), np.array([0.0])
    lam = [0.2, 0.1]
    v = prog.value(u, theta)
    h0 = rdf_eval(prog, u, theta, lam, 0.0)[0]
    print(f"weak duality at mu = 0: h_0(lam) = {h0:.4f} <= V = {v:.4f}")
    for mu in (0.5, 0.1, 0.01):
        val, grad_theta, grad_lam = rdf_eval(prog, u, theta, lam, mu)
        print(f"mu = {mu:4.2f}: h_mu = {val: .4f}, grad_theta {grad_theta[0]: .3f}, "
              f"|grad_lam| {np.abs(grad_lam).max():.3f}")
    print("mu > 0 trades an O(mu) bias for exact envelope gradients")

    print("\n== presmoothing ==")
    dataset = generate_boxlinear_observations(2000, RngSeed(3))
    w_box = noise_support_box(np.atleast_2d(np.var(dataset.ys)), len(dataset))
    print(f"heuristic noise box from the y-variance: "
          f"[{w_box.lower[0]:.3f}, {w_box.upper[0]:.3f}]")
    res = presmooth_estimate(prog, dataset, h=0.2, prior=prior, seed=RngSeed(4))
    print(f"presmoothed fit: eps-hat {res.eps_hat:.3f}, "
          f"theta-hat {res.theta_hat[0]: .3f}, "
          f"used {res.extras['n_used']} of {len(dataset)} smoothed points")


if __name__ == "__main__":
    main()
