"""Random translated sets: sampling, limit laws, expectation algebra."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import setstat
from setstat import randomsets
from setstat.geometry import (
    Ball,
    Box,
    SolverLimitError,
    VertexPolytope,
    Zonotope,
    bounds_of,
    direction_grid,
    hausdorff,
    interval,
    minkowski_diff,
    minkowski_sum,
    scale,
    support,
    translated_family,
    weighted_minkowski_average,
)
from setstat.randomsets import (
    EXPECTATION_LAWS,
    AffineSetMap,
    RandomlyTranslatedSet,
    RngSeed,
    SymmetricConcaveIntervalMap,
    TriangularNoise,
    TruncatedGaussianNoise,
    UniformBallNoise,
    UniformBoxNoise,
    check_expectation_law,
    clt_replicates,
    delta_method_statistics,
    delta_method_tails,
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


_ENTROPIES = [0, 11, 2**32 - 1, 2**32, 2**64 + 3]


def _assert_streams_match_seed_sequence(seed, offsets):
    rngs = randomsets._derived_generators(seed, offsets)
    for j, rng in zip(offsets, rngs, strict=True):
        ss = np.random.SeedSequence(seed.seed, spawn_key=(seed.stream + j,))
        want = np.random.default_rng(ss)
        assert rng.bit_generator.state == want.bit_generator.state, (seed, j)
        assert rng.random() == want.random(), (seed, j)


@pytest.mark.parametrize("entropy", _ENTROPIES)
def test_derived_generators_match_seed_sequence_streams(entropy):
    for stream, offsets in [
        (0, range(601)),
        (3, range(10_000, 10_025)),
        (0, range(1_000_000, 1_000_025)),
    ]:
        _assert_streams_match_seed_sequence(RngSeed(entropy, stream), offsets)


@pytest.mark.parametrize("chunk", [7, 1 << 10], ids=["chunk-7", "default-chunk"])
def test_derived_generators_straddle_two_word_spawn_keys(monkeypatch, chunk):
    # keys from 2**32 on take two uint32 words: a chunk holding both widths
    # hashes them in two passes and keeps the stream order
    monkeypatch.setattr(randomsets, "_SEED_CHUNK", chunk)
    for entropy in _ENTROPIES:
        _assert_streams_match_seed_sequence(RngSeed(entropy, 2**32 - 10), range(20))
    _assert_streams_match_seed_sequence(RngSeed(5, 2**64 - 2), range(4))  # three words


def test_derived_generators_refuse_negative_seeds_as_seed_sequence_does():
    for seed in (RngSeed(-1), RngSeed(0, -1)):
        with pytest.raises(ValueError):
            seed.generator()
        with pytest.raises(ValueError):
            next(randomsets._derived_generators(seed, range(1)))


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


def test_uniform_ball_noise_needs_an_integral_dimension():
    assert UniformBallNoise(1.0, 3.0).dim == 3 and UniformBallNoise(1.0, "2").dim == 2
    for dim in (2.7, True, 0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dim"):
            UniformBallNoise(1.0, dim)


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


@pytest.mark.parametrize(("dim", "radius"), [(2, 1e-4), (7, 0.1)])
def test_truncated_gaussian_noise_draws_a_small_ball_exactly(dim, radius):
    # a rejection sampler keeps about chdtr(2, 1e-8) = 5e-9 of its draws at
    # the first radius; the exact draw takes one pass at any radius
    sigma = np.eye(dim) + 0.3 * np.ones((dim, dim))
    noise = TruncatedGaussianNoise(sigma, radius)
    x = noise.sample(RngSeed(8).generator(), 20_000)
    mahal = np.einsum("ij,jk,ik->i", x, np.linalg.inv(sigma), x)
    assert x.shape == (20_000, dim) and np.all(mahal <= radius**2 * (1 + 1e-9))
    # the squared radius follows the chi-square law conditioned on [0, radius^2]
    r2 = radius**2
    law = stats.kstest(mahal, lambda t: stats.chi2.cdf(t, dim) / stats.chi2.cdf(r2, dim))
    assert law.pvalue > 1e-3
    np.testing.assert_allclose(np.cov(x.T), noise.covariance, atol=0.03 * noise.covariance.max())


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
def test_truncated_gaussian_covariance_has_scipy_stats_bits(dim):
    sigma = np.eye(dim) + 0.3 * np.ones((dim, dim))
    for radius in (1e-4, 0.1, 0.9, 1.8, 3.0, 7.5):
        r2 = radius**2
        shrink = stats.chi2.cdf(r2, dim + 2) / stats.chi2.cdf(r2, dim)
        assert np.array_equal(TruncatedGaussianNoise(sigma, radius).covariance, shrink * sigma)


def test_truncated_gaussian_refuses_radii_without_a_covariance():
    # the chi-square ratio is 0/0 at the first two radii and underflows to 0
    # at the others, where the covariance is about r^2 / (d + 2) Sigma
    for radius in (1e-170, 1e-155, 1e-150, 1e-100):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too small for a covariance"):
                TruncatedGaussianNoise(np.eye(2), radius)
    for dim, radius in [(1, 1e-100), (2, 1e-70), (7, 1e-30)]:
        sigma = np.eye(dim) + 0.3 * np.ones((dim, dim))
        cov = TruncatedGaussianNoise(sigma, radius).covariance
        np.testing.assert_allclose(cov, radius**2 / (dim + 2) * sigma, rtol=1e-9)


def test_import_setstat_leaves_scipy_stats_unloaded():
    src = str(Path(setstat.__file__).resolve().parents[1])
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, setstat; print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False False"


def test_uniform_box_sample_matches_generator_uniform_bit_for_bit():
    pick = np.random.default_rng(99)
    # width**2 near the largest float: about the widest box with a finite covariance
    cases = [([-0.0, 0.0, -0.0], [0.0, 0.0, -0.0]), ([-1e153], [1.2e154])]
    for _ in range(30):
        d = int(pick.integers(1, 5))
        lower = pick.normal(size=d) * 10.0 ** pick.integers(-8, 8, size=d)
        width = np.abs(pick.normal(size=d)) * 10.0 ** pick.integers(-8, 8, size=d)
        width[pick.random(d) < 0.3] = 0.0
        cases.append((lower, lower + width))
    for case, (lower, upper) in enumerate(cases):
        n = int(pick.integers(1, 300))
        got = UniformBoxNoise(lower, upper).sample(RngSeed(case).generator(), n)
        want = RngSeed(case).generator().uniform(lower, upper, size=(n, len(lower)))
        assert got.tobytes() == want.tobytes(), case
    # rng.uniform refuses the width -0.0 of [0.0, -0.0]; the law draws its point
    point = UniformBoxNoise([0.0], [-0.0]).sample(RngSeed(0).generator(), 5)
    assert point.tobytes() == np.zeros((5, 1)).tobytes()


_BLOCK_LAWS = {
    "box-1d": UniformBoxNoise([-1.0], [2.0]),
    "box-2d-zero-widths": UniformBoxNoise([0.5, -0.0], [0.5, -0.0]),
    "box-3d-signed-zero-widths": UniformBoxNoise([0.0, -1.0, -0.0], [-0.0, 1.0, 0.0]),
    "box-4d-mixed-widths": UniformBoxNoise([-1e-8, 0.0, -3.0, 1e6], [1e-8, 0.0, 4.0, 1e6 + 1.0]),
    "ball-3d": UniformBallNoise(0.8, 3),
    "triangular": TriangularNoise(0.7),
    "truncated-gaussian": TruncatedGaussianNoise([[1.0, 0.3], [0.3, 0.5]], 2.0),
}


@pytest.mark.parametrize("law", list(_BLOCK_LAWS), ids=list(_BLOCK_LAWS))
def test_sample_block_matches_per_row_sample_bit_for_bit(law):
    # the rows of several blocks draw from one _derived_generators iterator,
    # the last block shorter than k; a block must take exactly one generator
    # per row (zip(block, rngs); zip(rngs, block) takes one more at the end
    # of each block and shifts every later stream)
    noise, seed, n, k, reps = _BLOCK_LAWS[law], RngSeed(5, 2), 37, 4, 11
    rngs = randomsets._derived_generators(seed, range(reps))
    xi, got = np.empty((k, n, noise.dim)), []
    for start in range(0, reps, k):
        block = xi[: min(k, reps - start)]
        assert noise.sample_block(rngs, block) is block
        got += [row.tobytes() for row in block]
    assert next(rngs, None) is None
    want = []
    for r in range(reps):
        rng = seed.derive(r).generator()
        if isinstance(noise, UniformBoxNoise):  # the affine rule as a broadcast over rows
            want.append(noise.lower + (noise.upper - noise.lower) * rng.random((n, noise.dim)))
        else:
            want.append(noise.sample(rng, n))
    assert got == [w.tobytes() for w in want]


def test_uniform_box_noise_refuses_widths_that_overflow():
    # rng.uniform raises OverflowError on such bounds; the affine draw would
    # return infinities, so the law refuses them, and bounds whose mean or
    # covariance overflows too, without an overflow warning
    for lower, upper in [
        ([-1e308], [1e308]),
        ([0.0, -1e308], [1.0, 1.7e308]),
        ([-1e200, -1.0], [1e200, 1.0]),  # covariance (2e200)**2 / 12
        ([1e308, 0.0], [1.7e308, 1.0]),  # mean (1e308 + 1.7e308) / 2
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite widths, mean and covariance"):
                UniformBoxNoise(lower, upper)
            with pytest.raises(ValueError, match="finite widths, mean and covariance"):
                noise_from_dict({"type": "uniform-box", "lower": lower, "upper": upper})


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
    "make",
    [
        lambda: UniformBoxNoise([math.nan, 0.0], [1.0, 1.0]),
        lambda: UniformBoxNoise([0.0], [math.inf]),
        lambda: UniformBallNoise(math.nan, 2),
        lambda: UniformBallNoise(math.inf, 2),
        lambda: TriangularNoise(math.nan),
        lambda: TriangularNoise(math.inf),
        lambda: TruncatedGaussianNoise([[1.0, math.nan], [math.nan, 1.0]], 1.0),
        lambda: TruncatedGaussianNoise(np.eye(2), math.nan),
        lambda: TruncatedGaussianNoise(np.eye(2), math.inf),
    ],
)
def test_noise_laws_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="finite"):
        make()


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
    rec = noise_to_dict(noise)
    back = noise_from_dict(rec)
    assert type(back) is type(noise)
    assert noise_to_dict(back) == rec
    assert noise_from_dict(json.loads(json.dumps(rec))).to_dict() == rec
    np.testing.assert_allclose(back.mean, noise.mean)
    np.testing.assert_allclose(back.covariance, noise.covariance)


def test_noise_records_are_pinned():
    # recorded with the isinstance ladder this record rule replaced
    noises = [
        UniformBoxNoise([-1.0, 0.0], [2.0, 3.0]),
        UniformBallNoise(1.5, 3),
        TriangularNoise(0.7),
        TruncatedGaussianNoise([[1.0, 0.2], [0.2, 2.0]], 2.5),
    ]
    assert [json.dumps(noise_to_dict(n)) for n in noises] == [
        '{"type": "uniform-box", "lower": [-1.0, 0.0], "upper": [2.0, 3.0]}',
        '{"type": "uniform-ball", "radius": 1.5, "dim": 3}',
        '{"type": "triangular", "halfwidth": 0.7}',
        '{"type": "truncated-gaussian", "sigma": [[1.0, 0.2], [0.2, 2.0]], "radius": 2.5}',
    ]


def test_noise_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        noise_from_dict({"type": "cauchy"})
    with pytest.raises(ValueError):
        noise_from_dict({"type": "triangular"})
    with pytest.raises(ValueError, match=r"fields \['halfwidth'\], got \['halfwidth', 'mode'\]"):
        noise_from_dict({"type": "triangular", "halfwidth": 1.0, "mode": 0.0})
    with pytest.raises(ValueError, match="unknown noise type"):
        noise_from_dict({"type": ["uniform-box"]})


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
    vectors, _ = clt_replicates(model, n, reps, seed)
    assert vectors.shape == (reps, 2)
    for r in range(reps):
        xi = model.noise.sample(seed.derive(r).generator(), n)
        want = math.sqrt(n) * (xi.mean(axis=0) - model.noise.mean)
        np.testing.assert_allclose(vectors[r], want, atol=1e-9)


def test_hausdorff_statistic_equals_vector_norm_per_replicate():
    model = _square_model()
    n, reps, seed = 300, 20, RngSeed(11)
    vectors, stats_vals = clt_replicates(model, n, reps, seed)
    np.testing.assert_allclose(stats_vals, np.linalg.norm(vectors, axis=1), atol=1e-10)


def test_clt_covariance_approaches_noise_covariance():
    model = _square_model()
    vectors, _ = clt_replicates(model, 300, 1500, RngSeed(13))
    emp = np.cov(vectors.T)
    target = model.noise.covariance
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.10


def test_clt_works_for_ball_and_polytope_bodies():
    noise = UniformBoxNoise([-0.5, -0.5], [0.5, 0.5])
    for body in [Ball([0.0, 0.0], 1.0), VertexPolytope([[0, 0], [1, 0], [0, 1]])]:
        model = RandomlyTranslatedSet(body, noise)
        v, s = clt_replicates(model, 100, 5, RngSeed(1))
        np.testing.assert_allclose(s, np.linalg.norm(v, axis=1), atol=1e-10)


def _two_pass_clt(model, n, reps, seed):
    # the two replicate passes clt_replicates merged: one pass for the
    # difference vectors and one for the Hausdorff statistics
    expectation = selection_expectation(model)
    vectors = np.empty((reps, model.body.dim))
    for r in range(reps):
        mean = minkowski_sample_mean(sample_translated_sets(model, n, seed.derive(r)))
        diff = minkowski_diff(mean, expectation)
        v = randomsets._residual_vector(None if diff is None else bounds_of(diff))
        vectors[r] = math.sqrt(n) * v
    stats_vals = np.empty(reps)
    for r in range(reps):
        mean = minkowski_sample_mean(sample_translated_sets(model, n, seed.derive(r)))
        stats_vals[r] = math.sqrt(n) * hausdorff(mean, expectation)
    return vectors, stats_vals


_SQUARE_NOISE = UniformBoxNoise([-0.5, -0.5], [0.5, 0.5])
_BALL_NOISE_3D = UniformBallNoise(0.8, 3)

# (body, noise, n, replicates); in the "-block" cases replicates is an
# offset added to the block size k of n draws, giving k - 1, k and k + 1
_CLT_CASES = {
    "box": (Box([-1.0, -0.5], [1.0, 0.5]), _SQUARE_NOISE, 40, 6),
    "ball": (Ball([0.25, 0.0], 1.0), _SQUARE_NOISE, 40, 6),
    "polygon": (VertexPolytope([[0, 0], [1, 0], [1.5, 0.75], [0, 1]]), _SQUARE_NOISE, 40, 6),
    "box-block-minus-1": (Box([-1.0, -1.0], [1.0, 1.0]), _SQUARE_NOISE, 500, -1),
    "box-block": (Box([-1.0, -1.0], [1.0, 1.0]), _SQUARE_NOISE, 500, 0),
    "box-block-plus-1": (Box([-1.0, -1.0], [1.0, 1.0]), _SQUARE_NOISE, 500, 1),
    "ball-block-plus-1": (Ball([0.5, -0.25], 0.75), _SQUARE_NOISE, 500, 1),
    "box-1d-triangular": (interval(-1.0, 2.0), TriangularNoise(0.7), 300, 9),
    "ball-1d-triangular": (Ball([0.3], 0.5), TriangularNoise(0.7), 300, 9),
    "box-3d-ball-noise": (Box([-1.0, -2.0, 0.0], [1.0, 0.0, 0.0]), _BALL_NOISE_3D, 60, 9),
    "ball-3d-ball-noise": (Ball([0.0, 1.0, -2.0], 0.4), _BALL_NOISE_3D, 60, 9),
    "box-truncated-gaussian": (
        Box([0.0, 0.0], [1.0, 3.0]),
        TruncatedGaussianNoise([[1.0, 0.3], [0.3, 0.5]], 2.0),
        80,
        9,
    ),
    "box-zero-width-noise": (
        Box([-0.0, 0.0], [0.0, 0.5]),
        UniformBoxNoise([-0.0, 0.0], [-0.0, 0.0]),
        7,
        5,
    ),
    "ball-zero-width-noise": (
        Ball([-0.0, 0.0], 0.0),
        UniformBoxNoise([0.0, -0.0], [0.0, -0.0]),
        7,
        5,
    ),
}


@pytest.mark.parametrize("case", list(_CLT_CASES), ids=list(_CLT_CASES))
def test_clt_replicates_match_two_pass_reference_bit_for_bit(case, monkeypatch):
    body, noise, n, reps = _CLT_CASES[case]
    if case.startswith(("box-block", "ball-block")):
        k = randomsets._BLOCK_ELEMENTS // (n * body.dim)
        assert 1 < k < 200
        reps += k
    model = RandomlyTranslatedSet(body, noise)
    if isinstance(body, Box):
        # the Box block builds no per-replicate families
        monkeypatch.setattr(randomsets, "sample_translated_sets", None)
    vectors, stats_vals = clt_replicates(model, n, reps, RngSeed(17))
    monkeypatch.undo()
    want_vectors, want_stats = _two_pass_clt(model, n, reps, RngSeed(17))
    assert vectors.tobytes() == want_vectors.tobytes()
    assert stats_vals.tobytes() == want_stats.tobytes()


@pytest.mark.parametrize("width", [0.0, 1e-9, 1.0], ids=["zero", "1e-9", "unit"])
@pytest.mark.parametrize("law", ["triangular", "uniform-box"])
def test_interval_block_matches_the_hausdorff_chain_bit_for_bit(law, width):
    # the 1-D block takes the box distance sqrt(max gap**2); the chain's
    # hausdorff takes the interval form max |gap|
    rng = np.random.default_rng([int(width * 1e9), len(law)])
    for case in range(12):
        lo, scale_ = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        body = interval(lo, lo + width * scale_)
        a = rng.uniform(0.0, 1.0) if case % 4 else 0.0  # every fourth law is a point mass
        noise = TriangularNoise(a) if law == "triangular" else UniformBoxNoise([-a], [0.5 * a])
        model = RandomlyTranslatedSet(body, noise)
        n, reps = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        vectors, stats_vals = clt_replicates(model, n, reps, RngSeed(case))
        want_vectors, want_stats = _two_pass_clt(model, n, reps, RngSeed(case))
        assert vectors.tobytes() == want_vectors.tobytes(), (case, n, reps)
        assert stats_vals.tobytes() == want_stats.tobytes(), (case, n, reps)


@pytest.mark.parametrize(
    "body, families",
    [(Ball([0.25, 0.0], 1.0), 7), (Box([-1.0, -0.5], [1.0, 0.5]), 0)],
    ids=["ball-runs-the-chain", "box-runs-the-block"],
)
def test_only_box_bodies_take_the_draw_block(monkeypatch, body, families):
    seeds = []

    def spy(model, n, seed):
        seeds.append(seed)
        return sample_translated_sets(model, n, seed)

    monkeypatch.setattr(randomsets, "sample_translated_sets", spy)
    clt_replicates(RandomlyTranslatedSet(body, _SQUARE_NOISE), 40, 7, RngSeed(2))
    assert seeds == [RngSeed(2).derive(r) for r in range(families)]


@pytest.mark.parametrize(
    "body, wrong_expectation, message",
    [
        (Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0], 2.0), "empty"),
        (Box([-1.0, -1.0], [1.0, 1.0]), Box([-0.5, -0.5], [0.5, 0.5]), "not a singleton"),
    ],
    ids=["ball-empty", "box-not-singleton"],
)
def test_clt_block_keeps_the_residual_checks(monkeypatch, body, wrong_expectation, message):
    # a residual erosion against the wrong expectation is empty or wider
    # than a point: the block raises as the one-set chain does
    monkeypatch.setattr(randomsets, "selection_expectation", lambda m: wrong_expectation)
    model = RandomlyTranslatedSet(body, _SQUARE_NOISE)
    with pytest.raises(randomsets.InternalConsistencyError, match=message):
        clt_replicates(model, 10, 3, RngSeed(0))


@pytest.mark.parametrize(
    "body",
    [Box([-1.0, -1.0], [1.0, 1.0]), Ball([0.0, 0.5], 1.0)],
    ids=["box", "ball"],
)
def test_slln_curve_block_matches_per_replicate_chain_bit_for_bit(body):
    model = RandomlyTranslatedSet(body, _SQUARE_NOISE)
    n_values, reps, seed = [3, 100, 1500], 50, RngSeed(4, 1)
    points, records = slln_curve(model, n_values, reps, seed)
    expectation = selection_expectation(model)
    want = []
    for r in range(reps):
        for i, n in enumerate(n_values):
            samples = sample_translated_sets(model, n, seed.derive(1_000_000 * i + r))
            want.append((n, r, hausdorff(minkowski_sample_mean(samples), expectation)))
    assert [(n, r, float(e).hex()) for n, r, e in records] == [
        (n, r, float(e).hex()) for n, r, e in want
    ]
    for i, p in enumerate(points):
        errs = np.array([e for _, _, e in want[i :: len(n_values)]])
        assert p.mean_error == float(errs.mean())


def test_clt_replicates_memory_does_not_grow_with_replicates():
    # the (k, n, d) draw block is capped, so 8x the replicates adds only
    # the (R, d) outputs and no (R, n, d) array
    model = _square_model()
    clt_replicates(model, 500, 2, RngSeed(3))  # first-call allocations
    peaks = []
    for reps in (500, 4000):
        tracemalloc.start()
        try:
            clt_replicates(model, 500, reps, RngSeed(3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks
    # a one-replicate block (n d above _BLOCK_ELEMENTS) holds the draws, one
    # shift buffer reused by both body corners and the weights, about 2.5
    # blocks; a temporary per affine draw and per shift peaked at 3.6
    n = 40_000
    assert randomsets._BLOCK_ELEMENTS // (n * 2) == 0
    clt_replicates(model, n, 1, RngSeed(3))
    tracemalloc.start()
    try:
        clt_replicates(model, n, 1, RngSeed(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * 2 * 8, peak


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
        assert report.tolerance == (0.05 if law in ("sum", "scale") else 1e-9)


# Per-draw oracles: the law's Monte-Carlo side from one materialized set per
# draw, on the same seed streams check_expectation_law uses.

_ORACLE_BODIES = {
    "box": (Box([-1.0, -0.5], [1.0, 0.5]), Box([-0.3, -0.8], [0.6, 0.2])),
    "ball": (Ball([0.2, -0.1], 0.7), Ball([-0.4, 0.3], 0.25)),
    "zonotope": (
        Zonotope([0.1, 0.2], [[1.0, 0.0], [0.6, 0.8], [-0.3, 0.9]], [0.5, 0.4, 0.3]),
        Zonotope([-0.2, 0.0], [[0.0, 1.0], [0.8, -0.6]], [0.7, 0.2]),
    ),
    "polygon": (
        VertexPolytope([[0.0, -1.0], [1.2, -0.3], [0.8, 0.9], [-0.5, 1.0], [-1.1, 0.1]]),
        VertexPolytope([[-0.4, -0.4], [0.5, -0.2], [0.1, 0.6]]),
    ),
}
_NOISE_C = UniformBoxNoise([-0.4, -0.2], [0.3, 0.5])
_NOISE_D = UniformBoxNoise([-0.1, -0.6], [0.5, 0.2])


def _per_draw_lhs(law, models, n, seed):
    c = models["c"]
    w = np.full(n, 1.0 / n)
    if law == "deterministic":
        return weighted_minkowski_average(w, [c.body] * n)
    if law == "scale":
        psi_values = np.asarray(models["psi_values"], dtype=float)
        psi_probs = np.asarray(models["psi_probs"], dtype=float)
        psis = seed.derive(1).generator().choice(psi_values, size=n, p=psi_probs)
        cs = sample_translated_sets(c, n, seed.derive(2))
        return weighted_minkowski_average(w, [scale(p, x) for p, x in zip(psis, cs)])
    pairs = zip(
        sample_translated_sets(c, n, seed.derive(1)),
        sample_translated_sets(models["d"], n, seed.derive(2)),
    )
    op = minkowski_sum if law == "sum" else minkowski_diff
    return weighted_minkowski_average(w, [op(a, b) for a, b in pairs])


def _oracle_models(body_kind, law):
    body_c, body_d = _ORACLE_BODIES[body_kind]
    c = RandomlyTranslatedSet(body_c, _NOISE_C)
    if law == "deterministic":
        return [{"c": c}]
    if law == "sum":
        return [{"c": c, "d": RandomlyTranslatedSet(body_d, _NOISE_D)}]
    return [
        {"c": c, "psi_values": values, "psi_probs": [0.3, 0.7]}
        for values in ([0.5, 1.5], [-2.0, -0.25], [0.0, 0.0])
    ]


@pytest.mark.parametrize("body_kind", sorted(_ORACLE_BODIES))
@pytest.mark.parametrize("law", ["deterministic", "sum", "scale"])
def test_equality_laws_match_per_draw_oracle(law, body_kind):
    for models in _oracle_models(body_kind, law):
        for n in (7, 50):
            seed = RngSeed(31, n)
            report = check_expectation_law(law, models, n_samples=n, seed=seed)
            oracle = _per_draw_lhs(law, models, n, seed)
            assert hausdorff(report.lhs, oracle) <= 1e-12, (law, body_kind, models)
            if law == "deterministic" or models.get("psi_values") == [0.0, 0.0]:
                assert report.passed  # exact at any n


def _profile(s, dirs):
    return np.array([s.support(u) for u in dirs])


@pytest.mark.parametrize("n", [7, 50])
def test_box_inclusion_laws_match_per_draw_oracle(n):
    dirs = direction_grid(2, 360)
    wide = RandomlyTranslatedSet(Box([-2.0, -1.5], [1.8, 2.0]), _NOISE_C)
    thin = RandomlyTranslatedSet(Box([-0.5, -0.3], [0.4, 0.6]), _NOISE_D)
    seed = RngSeed(32, n)

    models = {"c": wide, "d": thin}
    report = check_expectation_law("erosion", models, n_samples=n, seed=seed)
    diffs = [
        minkowski_diff(a, b)
        for a, b in zip(
            sample_translated_sets(wide, n, seed.derive(1)),
            sample_translated_sets(thin, n, seed.derive(2)),
        )
    ]
    lhs = weighted_minkowski_average(np.full(n, 1.0 / n), diffs)
    assert hausdorff(report.lhs, lhs) <= 1e-12
    se = np.array([_profile(x, dirs) for x in diffs]).std(axis=0, ddof=1) / math.sqrt(n)
    metric = np.max(_profile(lhs, dirs) - _profile(report.rhs, dirs) - 2.0 * se)
    assert abs(report.metric - metric) <= 1e-12

    models = {"c": thin, "d": wide}
    report = check_expectation_law("union", models, n_samples=n, seed=seed)
    hulls = np.array([
        np.maximum(_profile(a, dirs), _profile(b, dirs))
        for a, b in zip(
            sample_translated_sets(thin, n, seed.derive(1)),
            sample_translated_sets(wide, n, seed.derive(2)),
        )
    ])
    se = hulls.std(axis=0, ddof=1) / math.sqrt(n)
    lhs_profile = np.maximum(
        _profile(selection_expectation(thin), dirs), _profile(selection_expectation(wide), dirs)
    )
    metric = np.max(lhs_profile - hulls.mean(axis=0) - 2.0 * se)
    assert abs(report.metric - metric) <= 1e-12


def test_union_law_on_intervals_rebuilds_an_interval():
    # 1-D: E(co(C u D)) is the interval from the mean of the per-draw lower
    # ends min(lo_c, lo_d) to the mean of the upper ends max(hi_c, hi_d)
    c = RandomlyTranslatedSet(interval(-0.5, 0.5), UniformBoxNoise([-0.5], [0.5]))
    d = RandomlyTranslatedSet(interval(-1.0, 1.0), UniformBoxNoise([-0.5], [0.5]))
    n, seed = 2000, RngSeed(3)
    report = check_expectation_law("union", {"c": c, "d": d}, n_samples=n, seed=seed)
    assert report.passed and report.metric < 0
    assert isinstance(report.rhs, Box)
    ends = np.array([
        [bounds_of(a)[0][0], bounds_of(b)[0][0], bounds_of(a)[1][0], bounds_of(b)[1][0]]
        for a, b in zip(sample_translated_sets(c, n, seed.derive(1)),
                        sample_translated_sets(d, n, seed.derive(2)))
    ])
    lo, hi = bounds_of(report.rhs)
    assert abs(lo[0] - ends[:, :2].min(axis=1).mean()) <= 1e-12
    assert abs(hi[0] - ends[:, 2:].max(axis=1).mean()) <= 1e-12


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


def test_outer_polytope_rebuilds_a_box_from_its_support_values():
    # a box profile makes 90 grid lines concurrent at each corner
    dirs = direction_grid(2, 360)
    box = Box([-1.0, -2.0], [2.0, 0.5])
    poly = randomsets._outer_polytope(dirs, np.array([box.support(u) for u in dirs]))
    assert hausdorff(poly, box) <= 1e-9
    rounded = VertexPolytope(0.8 * dirs)
    h = np.array([rounded.support(u) for u in dirs])
    poly = randomsets._outer_polytope(dirs, h)
    assert np.all(poly.vertices @ dirs.T <= h + 1e-8)
    # outer corners at the half-step angles, inner edges at the same angles
    half = math.pi / 360
    assert hausdorff(poly, rounded) <= 0.8 * (1.0 / math.cos(half) - math.cos(half)) + 1e-9


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


def test_concave_interval_map_raises_when_the_peak_search_stops_unconverged(monkeypatch):
    import scipy.optimize
    from scipy.optimize import OptimizeResult

    def capped(fun, bounds=None, method=None, **kwargs):
        return OptimizeResult(x=bounds[0], fun=fun(bounds[0]), success=False, status=1,
                              message="Maximum number of function calls reached.", nfev=500)

    m = SymmetricConcaveIntervalMap(lambda x: 1.0 - x * x)
    monkeypatch.setattr(scipy.optimize, "minimize_scalar", capped)
    with pytest.raises(SolverLimitError, match="Maximum number"):
        m.apply_to_set(interval(-0.5, 0.5))
    # a degenerate interval needs no search
    assert bounds_of(m.apply_to_set(interval(0.5, 0.5)))[1][0] == 0.75


def test_jensen_gap_nonpositive_for_graph_convex_maps():
    model = RandomlyTranslatedSet(interval(-0.5, 0.5), UniformBoxNoise([-1.0], [1.0]))
    concave = SymmetricConcaveIntervalMap(lambda x: math.sqrt(4.0 + x))
    gap = jensen_inclusion_gap(concave, model, n_samples=10_000, seed=RngSeed(2))
    assert gap <= 0.02  # inclusion up to Monte-Carlo noise
    affine = AffineSetMap(np.eye(2), Box([-0.5, -0.5], [0.5, 0.5]))
    gap2 = jensen_inclusion_gap(affine, _square_model(), n_samples=5_000, seed=RngSeed(3))
    assert abs(gap2) <= 0.05  # affine maps make the inclusion an equality


def test_jensen_gap_small_for_identity():
    gap = jensen_inclusion_gap(AffineSetMap(1.0, None), _square_model(), n_samples=10_000, seed=RngSeed(4))
    assert abs(gap) <= 0.05


def _per_draw_jensen_gap(set_map, model, n, seed, n_directions=360):
    # jensen_inclusion_gap before the family path: map every draw, then fold
    samples = sample_translated_sets(model, n, seed)
    mean = minkowski_sample_mean([set_map.apply_to_set(s) for s in samples])
    target = set_map.apply_to_set(selection_expectation(model))
    dirs = direction_grid(mean.dim, n_directions)
    return float(np.max([mean.support(u) - target.support(u) for u in dirs]))


_SHEAR = np.array([[1.5, 0.4], [-0.3, 0.8]])
_JENSEN_MAPS = {
    "affine": AffineSetMap(np.eye(2), Box([-0.5, -0.5], [0.5, 0.5])),
    "affine-shear": AffineSetMap(_SHEAR, VertexPolytope([[0.0, 0.0], [0.4, 0.1], [0.1, 0.3]])),
    "sum": AffineSetMap(1.0, Zonotope([0.0, 0.1], [[1.0, 0.5]], [0.3])),
    "scale": AffineSetMap(-1.5, None),
    "scale-matrix": AffineSetMap(_SHEAR, None),
    "identity": AffineSetMap(1.0, None),
}


# a ball body stays a ball only under scalar scaling and the identity; the
# other maps make 360-vertex polygons whose per-draw fold is too slow here
_JENSEN_CASES = [(m, b) for m in sorted(_JENSEN_MAPS) for b in ("box", "polygon", "zonotope")]
_JENSEN_CASES += [("identity", "ball"), ("scale", "ball")]


@pytest.mark.parametrize(("map_name", "body_kind"), _JENSEN_CASES)
def test_jensen_family_gap_matches_per_draw_oracle(map_name, body_kind):
    set_map = _JENSEN_MAPS[map_name]
    model = RandomlyTranslatedSet(_ORACLE_BODIES[body_kind][0], _NOISE_C)
    for n in (7, 50):
        seed = RngSeed(33, n)
        got = jensen_inclusion_gap(set_map, model, n_samples=n, seed=seed)
        assert abs(got - _per_draw_jensen_gap(set_map, model, n, seed)) <= 1e-12


def test_delta_method_linear_scale_identity():
    model = _square_model()
    mapped, base = delta_method_statistics(AffineSetMap(2.0, None), model, 200, 10, RngSeed(5))
    np.testing.assert_allclose(mapped, 2.0 * base, atol=1e-10)


def test_delta_method_sum_map_nonexpansive():
    model = _square_model()
    m = AffineSetMap(1.0, Box([-0.25, -0.25], [0.25, 0.25]))
    mapped, base = delta_method_statistics(m, model, 200, 10, RngSeed(6))
    assert np.all(mapped <= base + 1e-10)


def test_delta_method_tail_bound():
    model = _square_model()
    for m in [AffineSetMap(1.5, None), AffineSetMap(1.0, Box([-0.5, -0.5], [0.5, 0.5]))]:
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


# float.hex of the Jensen gap (n = 50) and bytes of the mapped delta statistics
# (n = 20, 2 replicates) that the separate sum, scale and identity map classes
# gave before AffineSetMap took their place: 1.0 * C and 1.0 * s are exact
_AFFINE_PINS = {
    ("affine", "box"): ("0x1.3957bda9d95c0p-5", "75ed47be4e18b83fd5425405eabac83f"),
    ("affine", "polygon"): ("0x1.3957bda9d95c0p-5", "a5ed47be4e18b83ff8425405eabac83f"),
    ("affine", "zonotope"): ("0x1.3957bda9d95c0p-5", "75ed47be4e18b83ff8425405eabac83f"),
    ("affine", "ball"): ("0x1.3957bda9d95c0p-5", "85ed47be4e18b83ff8425405eabac83f"),
    ("affine-shear", "box"): ("0x1.c6e05bf7f3840p-5", "9042aaba16d8bf3f50aabe4791eed13f"),
    ("affine-shear", "polygon"): ("0x1.c6e05bf7f3840p-5", "3043aaba16d8bf3f52aabe4791eed13f"),
    ("affine-shear", "zonotope"): ("0x1.c6e05bf7f3860p-5", "e142aaba16d8bf3f56aabe4791eed13f"),
    ("affine-shear", "ball"): ("0x1.c6e05bf7f3860p-5", "9542aaba16d8bf3f4eaabe4791eed13f"),
    ("identity", "box"): ("0x1.3957bda9d95a0p-5", "65ed47be4e18b83ff6425405eabac83f"),
    ("identity", "polygon"): ("0x1.3957bda9d95e0p-5", "a5ed47be4e18b83ff8425405eabac83f"),
    ("identity", "zonotope"): ("0x1.3957bda9d95c0p-5", "d6131fc11818b83f60b57466e9bac83f"),
    ("identity", "ball"): ("0x1.3957bda9d95c0p-5", "76ed47be4e18b83fee425405eabac83f"),
    ("scale", "box"): ("0x1.d6039c7ec60c0p-5", "f8f1b50e3b12c23f3732ff832f8cd23f"),
    ("scale", "polygon"): ("0x1.d6039c7ec60a0p-5", "5bf2b50e3b12c23f3932ff832f8cd23f"),
    ("scale", "zonotope"): ("0x1.d6039c7ec60c0p-5", "fb4ed7901212c23fff87d70c2f8cd23f"),
    ("scale", "ball"): ("0x1.d6039c7ec6080p-5", "1ef2b50e3b12c23f3532ff832f8cd23f"),
    ("scale-matrix", "box"): ("0x1.c6e05bf7f3860p-5", "5242aaba16d8bf3f4eaabe4791eed13f"),
    ("scale-matrix", "polygon"): ("0x1.c6e05bf7f3860p-5", "2043aaba16d8bf3f50aabe4791eed13f"),
    ("scale-matrix", "zonotope"): ("0x1.c6e05bf7f3840p-5", "a579dfa805d8bf3f668c4c1a91eed13f"),
    ("scale-matrix", "ball"): ("0x1.c6e05bf7f3840p-5", "8642aaba16d8bf3f4eaabe4791eed13f"),
    ("sum", "box"): ("0x1.3957bda9d95c0p-5", "54ed47be4e18b83ff6425405eabac83f"),
    ("sum", "polygon"): ("0x1.3957bda9d95a0p-5", "a5ed47be4e18b83ff8425405eabac83f"),
    ("sum", "zonotope"): ("0x1.3957bda9d95c0p-5", "fa131fc11818b83f60b57466e9bac83f"),
    ("sum", "ball"): ("0x1.3957bda9d95c0p-5", "aded47be4e18b83ff7425405eabac83f"),
}


def test_affine_map_keeps_the_pinned_gaps_and_delta_statistics_bit_for_bit():
    for (map_name, body_kind), (gap_hex, mapped_hex) in _AFFINE_PINS.items():
        set_map = _JENSEN_MAPS[map_name]
        model = RandomlyTranslatedSet(_ORACLE_BODIES[body_kind][0], _NOISE_C)
        gap = jensen_inclusion_gap(set_map, model, n_samples=50, seed=RngSeed(33, 50))
        mapped, _ = delta_method_statistics(set_map, model, 20, 2, RngSeed(9))
        assert (gap.hex(), mapped.tobytes().hex()) == (gap_hex, mapped_hex), (map_name, body_kind)


def test_affine_map_lipschitz_constant_and_delta_tails():
    k0 = Box([-0.5, -0.5], [0.5, 0.5])
    m = AffineSetMap(_SHEAR, k0)
    assert m.lipschitz == np.linalg.norm(_SHEAR, 2)
    assert AffineSetMap(-1.5, k0).lipschitz == 1.5
    assert AffineSetMap(1.0, None).lipschitz == 1.0
    rep = delta_method_tails(m, _square_model(), 50, 40, RngSeed(7), threshold=0.6)
    assert rep.replicates == 40
    assert rep.lhs_tail - rep.rhs_tail <= 2.0 * (rep.lhs_se + rep.rhs_se) + 1e-12


def test_affine_map_linear_part_is_a_scalar_or_a_matrix():
    out = AffineSetMap(2.0, None).apply_to_set(Box([-1.0, 0.0], [1.0, 0.5]))
    assert isinstance(out, Box)
    assert out.lower.tolist() == [-2.0, 0.0] and out.upper.tolist() == [2.0, 1.0]
    shifted = AffineSetMap(-1.0, Box([0.0, 0.0], [1.0, 1.0])).apply_to_set(Box([0.0, 0.0], [1.0, 2.0]))
    assert isinstance(shifted, Box) and shifted.lower.tolist() == [-1.0, -2.0]
    for linear in ([1.0, 2.0], np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="scalar or an"):
            AffineSetMap(linear, None)


def test_slln_curve_on_a_polygon_matches_the_per_replicate_chain_bit_for_bit():
    triangle = VertexPolytope([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    model = RandomlyTranslatedSet(triangle, UniformBoxNoise([-1.0, -0.5], [1.0, 0.5]))
    n_values, seed = [4, 30], RngSeed(12, stream=3)
    points, records = slln_curve(model, n_values, 3, seed)
    expectation = selection_expectation(model)
    want = {}
    for i, n in enumerate(n_values):
        for r in range(3):
            family = sample_translated_sets(model, n, seed.derive(1_000_000 * i + r))
            want[n, r] = hausdorff(minkowski_sample_mean(family), expectation)
    assert [(n, r) for n, r, _ in records] == [(n, r) for r in range(3) for n in n_values]
    assert all(np.float64(e).tobytes() == np.float64(want[n, r]).tobytes() for n, r, e in records)
    means = [float(np.mean([want[n, r] for r in range(3)])) for n in n_values]
    assert [p.mean_error for p in points] == means
