"""Random translated sets: sampling, limit laws, expectation algebra."""

import math

import numpy as np
import pytest
from scipy import stats

from setstat.geometry import (
    Ball,
    Box,
    VertexPolytope,
    bounds_of,
    hausdorff,
    interval,
    minkowski_sum,
    support,
    translated_family,
)
from setstat.randomsets import (
    EXPECTATION_LAWS,
    AffineSetMap,
    IdentityMap,
    LinearScaleMap,
    MinkowskiSumMap,
    RandomlyTranslatedSet,
    RngSeed,
    SymmetricConcaveIntervalMap,
    TriangularNoise,
    TruncatedGaussianNoise,
    UniformBallNoise,
    UniformBoxNoise,
    check_expectation_law,
    clt_difference_replicates,
    delta_method_statistics,
    delta_method_tails,
    hausdorff_statistic_replicates,
    jensen_inclusion_gap,
    minkowski_sample_mean,
    noise_from_dict,
    noise_to_dict,
    sample_translated_sets,
    selection_expectation,
    slln_curve,
)


def _square_model(noise_halfwidth=1.0):
    body = Box([-1.0, -1.0], [1.0, 1.0])
    w = noise_halfwidth
    return RandomlyTranslatedSet(body, UniformBoxNoise([-w, -w], [w, w]))


# ------------------------------------------------------------------ seeds


def test_rng_seed_reproducible_and_streams_distinct():
    a = RngSeed(42).generator().uniform(size=5)
    b = RngSeed(42).generator().uniform(size=5)
    np.testing.assert_array_equal(a, b)
    c = RngSeed(42).derive(1).generator().uniform(size=5)
    assert not np.array_equal(a, c)
    assert RngSeed(7, 3).derive(5) == RngSeed(7, 8)
    assert RngSeed(7, 3).to_dict() == {"seed": 7, "stream": 3}


# ------------------------------------------------------------------ noise


def test_uniform_box_noise_moments_and_support():
    noise = UniformBoxNoise([-1.0, -1.0], [1.0, 1.0])
    np.testing.assert_allclose(noise.mean, [0.0, 0.0])
    np.testing.assert_allclose(noise.covariance, np.eye(2) / 3.0)
    x = noise.sample(RngSeed(0).generator(), 200_000)
    assert np.all(x >= -1.0) and np.all(x <= 1.0)
    np.testing.assert_allclose(x.mean(axis=0), [0.0, 0.0], atol=0.01)
    np.testing.assert_allclose(np.cov(x.T), np.eye(2) / 3.0, atol=0.01)


def test_uniform_ball_noise_moments_and_support():
    noise = UniformBallNoise(2.0, 2)
    np.testing.assert_allclose(noise.covariance, np.eye(2))  # r^2/(d+2) = 1
    x = noise.sample(RngSeed(1).generator(), 200_000)
    assert np.all(np.linalg.norm(x, axis=1) <= 2.0 + 1e-12)
    np.testing.assert_allclose(np.cov(x.T), np.eye(2), atol=0.02)


def test_triangular_noise_moments_and_support():
    noise = TriangularNoise(3.0)
    assert math.isclose(noise.covariance[0, 0], 1.5)  # a^2/6
    x = noise.sample(RngSeed(2).generator(), 200_000)
    assert np.all(np.abs(x) <= 3.0)
    assert abs(np.var(x) - 1.5) < 0.02


def test_truncated_gaussian_noise_moments_and_support():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    radius = 1.8
    noise = TruncatedGaussianNoise(sigma, radius)
    x = noise.sample(RngSeed(3).generator(), 200_000)
    inv = np.linalg.inv(sigma)
    mahal = np.einsum("ij,jk,ik->i", x, inv, x)
    assert np.all(mahal <= radius**2 + 1e-9)
    shrink = stats.chi2.cdf(radius**2, 4) / stats.chi2.cdf(radius**2, 2)
    np.testing.assert_allclose(noise.covariance, shrink * sigma, atol=1e-12)
    np.testing.assert_allclose(np.cov(x.T), shrink * sigma, atol=0.02)


def test_noise_validation():
    with pytest.raises(ValueError):
        UniformBoxNoise([1.0], [0.0])
    with pytest.raises(ValueError):
        UniformBallNoise(-1.0, 2)
    with pytest.raises(ValueError):
        TriangularNoise(-0.1)
    with pytest.raises(ValueError):
        TruncatedGaussianNoise([[1.0, 0.9], [0.1, 1.0]], 1.0)  # not symmetric
    with pytest.raises(ValueError):
        TruncatedGaussianNoise(np.eye(2), 0.0)


@pytest.mark.parametrize(
    "noise",
    [
        UniformBoxNoise([-1.0, 0.0], [2.0, 3.0]),
        UniformBallNoise(1.5, 3),
        TriangularNoise(0.7),
        TruncatedGaussianNoise([[1.0, 0.2], [0.2, 2.0]], 2.5),
    ],
)
def test_noise_serialization_round_trip(noise):
    back = noise_from_dict(noise_to_dict(noise))
    assert type(back) is type(noise)
    np.testing.assert_allclose(back.mean, noise.mean)
    np.testing.assert_allclose(back.covariance, noise.covariance)


def test_noise_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        noise_from_dict({"type": "cauchy"})
    with pytest.raises(ValueError):
        noise_from_dict({"type": "triangular"})
    with pytest.raises(ValueError):
        noise_from_dict({"type": "triangular", "halfwidth": 1.0, "mode": 0.0})


# --------------------------------------------------------------- sampling


def test_model_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        RandomlyTranslatedSet(Box([0], [1]), UniformBoxNoise([-1, -1], [1, 1]))


def test_sample_translated_sets_deterministic():
    model = _square_model()
    a = sample_translated_sets(model, 50, RngSeed(5))
    b = sample_translated_sets(model, 50, RngSeed(5))
    assert len(a) == len(b) == 50
    for s, t in zip(a, b):
        assert hausdorff(s, t) == 0.0
    with pytest.raises(ValueError):
        sample_translated_sets(model, 0, RngSeed(0))


def test_selection_expectation_is_body_plus_mean_shift():
    body = Box([0.0, 0.0], [1.0, 1.0])
    model = RandomlyTranslatedSet(body, UniformBoxNoise([0.0, 2.0], [2.0, 6.0]))
    e = selection_expectation(model)
    np.testing.assert_allclose(bounds_of(e)[0], [1.0, 4.0])
    np.testing.assert_allclose(bounds_of(e)[1], [2.0, 5.0])


def test_minkowski_sample_mean_of_boxes():
    mean = minkowski_sample_mean([Box([0], [1]), Box([2], [5])])
    lo, hi = bounds_of(mean)
    assert lo[0] == 1.0 and hi[0] == 3.0


def test_minkowski_sample_mean_rejects_empty_sample():
    with pytest.raises(ValueError, match="need at least one set"):
        minkowski_sample_mean([])
    empty = translated_family(Box([0.0], [1.0]), np.zeros((0, 1)))
    with pytest.raises(ValueError, match="need at least one set"):
        minkowski_sample_mean(empty)


def test_sample_mean_of_family_equals_mean_of_its_translates():
    samples = sample_translated_sets(_square_model(), 200, RngSeed(8))
    fast = minkowski_sample_mean(samples)
    slow = minkowski_sample_mean(list(samples))
    assert np.array_equal(fast.lower, slow.lower)
    assert np.array_equal(fast.upper, slow.upper)


# -------------------------------------------------------------- limit laws


def test_slln_curve_errors_shrink_with_n():
    points, records = slln_curve(_square_model(), [10, 100, 1000], 8, RngSeed(0))
    assert [p.n for p in points] == [10, 100, 1000]
    assert len(records) == 3 * 8
    errs = [p.mean_error for p in points]
    assert errs[0] > errs[1] > errs[2] > 0.0


def test_slln_curve_deterministic():
    p1, r1 = slln_curve(_square_model(), [10, 50], 3, RngSeed(4))
    p2, r2 = slln_curve(_square_model(), [10, 50], 3, RngSeed(4))
    assert r1 == r2
    assert [p.mean_error for p in p1] == [p.mean_error for p in p2]


def test_clt_vectors_match_mean_noise_identity():
    # the pipeline mean( body + xi_i ) - (body + E xi) must reduce to the
    # plain vector average of the draws
    model = _square_model()
    n, reps, seed = 400, 12, RngSeed(9)
    vectors = clt_difference_replicates(model, n, reps, seed)
    assert vectors.shape == (reps, 2)
    for r in range(reps):
        xi = model.noise.sample(seed.derive(r).generator(), n)
        want = math.sqrt(n) * (xi.mean(axis=0) - model.noise.mean)
        np.testing.assert_allclose(vectors[r], want, atol=1e-9)


def test_hausdorff_statistic_equals_vector_norm_per_replicate():
    model = _square_model()
    n, reps, seed = 300, 20, RngSeed(11)
    vectors = clt_difference_replicates(model, n, reps, seed)
    stats_vals = hausdorff_statistic_replicates(model, n, reps, seed)
    np.testing.assert_allclose(stats_vals, np.linalg.norm(vectors, axis=1), atol=1e-10)


def test_clt_covariance_approaches_noise_covariance():
    model = _square_model()
    vectors = clt_difference_replicates(model, 300, 1500, RngSeed(13))
    emp = np.cov(vectors.T)
    target = model.noise.covariance
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.10


def test_clt_works_for_ball_and_polytope_bodies():
    noise = UniformBoxNoise([-0.5, -0.5], [0.5, 0.5])
    for body in [Ball([0.0, 0.0], 1.0), VertexPolytope([[0, 0], [1, 0], [0, 1]])]:
        model = RandomlyTranslatedSet(body, noise)
        v = clt_difference_replicates(model, 100, 5, RngSeed(1))
        s = hausdorff_statistic_replicates(model, 100, 5, RngSeed(1))
        np.testing.assert_allclose(s, np.linalg.norm(v, axis=1), atol=1e-10)


# ------------------------------------------------------- expectation algebra


def test_all_expectation_laws_pass_on_standard_config():
    shared = UniformBoxNoise([-0.5, -0.5], [0.5, 0.5])
    c_small = RandomlyTranslatedSet(Box([-1.0, -1.0], [1.0, 1.0]), shared)
    d_big = RandomlyTranslatedSet(Box([-2.0, -2.0], [2.0, 2.0]), shared)
    d_own = RandomlyTranslatedSet(
        Box([-2.0, -2.0], [2.0, 2.0]), UniformBoxNoise([-0.5, -0.5], [0.5, 0.5])
    )
    c_wide = RandomlyTranslatedSet(Box([-2.0, -2.0], [2.0, 2.0]), shared)
    d_thin = RandomlyTranslatedSet(
        Box([-0.5, -0.5], [0.5, 0.5]), UniformBoxNoise([-0.25, -0.25], [0.25, 0.25])
    )
    models = {
        "deterministic": {"c": c_small},
        "sum": {"c": c_small, "d": d_own},
        "scale": {"c": c_small, "psi_values": [0.5, 1.5], "psi_probs": [0.5, 0.5]},
        "subset": {"c": c_small, "d": d_big},
        "union": {"c": c_small, "d": d_own},
        "intersection": {"c": c_small, "d": d_big},
        "erosion": {"c": c_wide, "d": d_thin},
    }
    for law in EXPECTATION_LAWS:
        report = check_expectation_law(law, models[law], n_samples=10_000, seed=RngSeed(21))
        assert report.law == law
        assert report.passed, f"{law}: metric {report.metric} > {report.tolerance}"
        expected_kind = "equality" if law in ("deterministic", "sum", "scale") else "inclusion"
        assert report.kind == expected_kind


def test_scale_law_handles_negative_definite_factors():
    c = _square_model(0.5)
    report = check_expectation_law(
        "scale",
        {"c": c, "psi_values": [-2.0, -0.5], "psi_probs": [0.5, 0.5]},
        n_samples=10_000,
        seed=RngSeed(3),
    )
    assert report.passed


def test_scale_law_rejects_sign_mixing_factors():
    with pytest.raises(ValueError):
        check_expectation_law(
            "scale",
            {"c": _square_model(), "psi_values": [-1.0, 1.0], "psi_probs": [0.5, 0.5]},
            n_samples=100,
        )
    with pytest.raises(ValueError):
        check_expectation_law(
            "scale",
            {"c": _square_model(), "psi_values": [1.0, 2.0], "psi_probs": [0.7, 0.7]},
            n_samples=100,
        )


def test_law_checker_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_expectation_law("average", {"c": _square_model()})
    # subset needs coupled noise objects, not merely equal laws
    c = RandomlyTranslatedSet(Box([-1, -1], [1, 1]), UniformBoxNoise([-1, -1], [1, 1]))
    d = RandomlyTranslatedSet(Box([-2, -2], [2, 2]), UniformBoxNoise([-1, -1], [1, 1]))
    with pytest.raises(ValueError):
        check_expectation_law("subset", {"c": c, "d": d}, n_samples=100)
    # subset needs the body inclusion the law asserts
    shared = UniformBoxNoise([-1, -1], [1, 1])
    big = RandomlyTranslatedSet(Box([-2, -2], [2, 2]), shared)
    small = RandomlyTranslatedSet(Box([-1, -1], [1, 1]), shared)
    with pytest.raises(ValueError):
        check_expectation_law("subset", {"c": big, "d": small}, n_samples=100)
    # sampled inclusion laws are box-only
    ball_model = RandomlyTranslatedSet(Ball([0.0, 0.0], 1.0), UniformBoxNoise([-1, -1], [1, 1]))
    with pytest.raises(ValueError):
        check_expectation_law("union", {"c": ball_model, "d": ball_model}, n_samples=100)


def test_erosion_law_rejects_empty_differences():
    shared = UniformBoxNoise([-0.1, -0.1], [0.1, 0.1])
    thin = RandomlyTranslatedSet(Box([-0.5, -0.5], [0.5, 0.5]), shared)
    wide = RandomlyTranslatedSet(Box([-2.0, -2.0], [2.0, 2.0]), shared)
    with pytest.raises(ValueError):
        check_expectation_law("erosion", {"c": thin, "d": wide}, n_samples=100)


# ------------------------------------------------- Jensen and delta method


def test_concave_interval_map_peaks():
    m = SymmetricConcaveIntervalMap(lambda x: math.sqrt(4.0 + x))
    out = m.apply_to_set(interval(-0.5, 0.5))
    lo, hi = bounds_of(out)
    assert math.isclose(hi[0], math.sqrt(4.5), abs_tol=1e-9)
    assert math.isclose(lo[0], -math.sqrt(4.5), abs_tol=1e-9)
    m2 = SymmetricConcaveIntervalMap(lambda x: 1.0 - x * x)
    out2 = m2.apply_to_set(interval(-0.5, 0.5))  # interior peak at zero
    assert math.isclose(bounds_of(out2)[1][0], 1.0, abs_tol=1e-6)


def test_jensen_gap_nonpositive_for_graph_convex_maps():
    model = RandomlyTranslatedSet(interval(-0.5, 0.5), UniformBoxNoise([-1.0], [1.0]))
    concave = SymmetricConcaveIntervalMap(lambda x: math.sqrt(4.0 + x))
    gap = jensen_inclusion_gap(concave, model, n_samples=10_000, seed=RngSeed(2))
    assert gap <= 0.02  # inclusion up to Monte-Carlo noise
    affine = AffineSetMap(np.eye(2), Box([-0.5, -0.5], [0.5, 0.5]))
    gap2 = jensen_inclusion_gap(affine, _square_model(), n_samples=5_000, seed=RngSeed(3))
    assert abs(gap2) <= 0.05  # affine maps make the inclusion an equality


def test_jensen_gap_small_for_identity():
    gap = jensen_inclusion_gap(IdentityMap(), _square_model(), n_samples=10_000, seed=RngSeed(4))
    assert abs(gap) <= 0.05


def test_delta_method_linear_scale_identity():
    model = _square_model()
    mapped, base = delta_method_statistics(LinearScaleMap(2.0), model, 200, 10, RngSeed(5))
    np.testing.assert_allclose(mapped, 2.0 * base, atol=1e-10)


def test_delta_method_sum_map_nonexpansive():
    model = _square_model()
    m = MinkowskiSumMap(Box([-0.25, -0.25], [0.25, 0.25]))
    mapped, base = delta_method_statistics(m, model, 200, 10, RngSeed(6))
    assert np.all(mapped <= base + 1e-10)


def test_delta_method_tail_bound():
    model = _square_model()
    for m in [LinearScaleMap(1.5), MinkowskiSumMap(Box([-0.5, -0.5], [0.5, 0.5]))]:
        rep = delta_method_tails(m, model, 200, 400, RngSeed(7), threshold=0.6)
        slack = rep.lhs_tail - rep.rhs_tail
        assert slack <= 2.0 * (rep.lhs_se + rep.rhs_se) + 1e-12
        assert rep.replicates == 400


def test_affine_map_matches_direct_arithmetic():
    a = np.array([[2.0, 0.0], [1.0, 1.0]])
    k0 = Box([-1.0, -1.0], [1.0, 1.0])
    m = AffineSetMap(a, k0)
    c = Box([0.0, 0.0], [1.0, 1.0])
    out = m.apply_to_set(c)
    rng = np.random.default_rng(8)
    from setstat.geometry import scale as gscale

    want = minkowski_sum(gscale(a, c), k0)
    for _ in range(30):
        u = rng.normal(size=2)
        assert math.isclose(support(out, u), support(want, u), abs_tol=1e-9)
