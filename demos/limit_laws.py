"""Limit theorems and expectation algebra for randomly translated sets.

A randomly translated set is X = K + xi with a fixed convex body K and a
random shift xi.  The script estimates the law-of-large-numbers rate for
Minkowski sample means, checks the Gaussian limit of the normalized
difference, runs every expectation-algebra law, and finishes with the
Jensen inclusion and the delta-method tail bound.
"""

import numpy as np

from setstat.geometry import Box, interval
from setstat.randomsets import (
    EXPECTATION_LAWS,
    AffineSetMap,
    RandomlyTranslatedSet,
    RngSeed,
    SymmetricConcaveIntervalMap,
    UniformBoxNoise,
    check_expectation_law,
    clt_replicates,
    delta_method_tails,
    jensen_inclusion_gap,
    slln_curve,
)


def main() -> None:
    body = Box([-1.0, -1.0], [1.0, 1.0])
    noise = UniformBoxNoise([-1.0, -1.0], [1.0, 1.0])
    model = RandomlyTranslatedSet(body, noise)

    print("== law of large numbers ==")
    points, _ = slln_curve(model, [100, 1000, 10_000], 20, RngSeed(1))
    for p in points:
        print(f"n = {p.n:>6d}: mean Hausdorff error {p.mean_error:.5f}")
    slope = np.polyfit(np.log([p.n for p in points]),
                       np.log([p.mean_error for p in points]), 1)[0]
    print(f"log-log slope {slope:.3f} (root-n decay would be -0.5)")

    print("\n== central limit behaviour ==")
    vectors, stats = clt_replicates(model, 500, 2000, RngSeed(2))
    print(f"empirical covariance of sqrt(n) * difference vector:\n{np.cov(vectors.T)}")
    print(f"noise covariance E(xi xi'):\n{noise.covariance}")
    gap = np.max(np.abs(stats - np.linalg.norm(vectors, axis=1)))
    print(f"scaled Hausdorff statistic vs vector norm, max gap = {gap:.2e}")

    print("\n== expectation algebra ==")
    small = RandomlyTranslatedSet(Box([-0.5, -0.5], [0.5, 0.5]), noise)
    big = RandomlyTranslatedSet(body, noise)
    own_small = RandomlyTranslatedSet(Box([-0.5, -0.5], [0.5, 0.5]),
                                      UniformBoxNoise([-0.5, -0.5], [0.5, 0.5]))
    models = {
        "deterministic": {"c": big},
        "sum": {"c": own_small, "d": big},
        "scale": {"c": big, "psi_values": [0.5, 1.5], "psi_probs": [0.5, 0.5]},
        "subset": {"c": small, "d": big},
        "union": {"c": own_small, "d": big},
        "intersection": {"c": small, "d": big},
        "erosion": {"c": big, "d": own_small},
    }
    for law in EXPECTATION_LAWS:
        report = check_expectation_law(law, models[law], seed=RngSeed(3))
        print(f"{law:>13s} [{report.kind:>9s}]: metric {report.metric: .5f} "
              f"(tol {report.tolerance:g}) -> {'ok' if report.passed else 'VIOLATED'}")

    print("\n== Jensen inclusion for a concave interval map ==")
    line = RandomlyTranslatedSet(interval(-0.5, 0.5), UniformBoxNoise([-0.5], [0.5]))
    concave = SymmetricConcaveIntervalMap(lambda t: np.sqrt(4.0 - t * t))
    gap = jensen_inclusion_gap(concave, line, seed=RngSeed(4))
    print(f"max support slack of E(S(X)) inside S(E(X)) = {gap:.4f} (<= 0 certifies)")

    print("\n== delta method tail bound ==")
    doubled = AffineSetMap(2.0, None)
    report = delta_method_tails(doubled, line, n=200, replicates=2000,
                                seed=RngSeed(5), threshold=0.4)
    print(f"P(mapped statistic >= {report.threshold}) = "
          f"{report.lhs_tail:.4f} +- {report.lhs_se:.4f}")
    print(f"P(kappa * base statistic >= {report.threshold}) = "
          f"{report.rhs_tail:.4f} +- {report.rhs_se:.4f}")


if __name__ == "__main__":
    main()
