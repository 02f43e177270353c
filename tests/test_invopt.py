"""Inverse approximate optimization: solution sets, estimators, duality."""

import json
import math

import numpy as np
import pytest

from setstat import geometry
from setstat.geometry import (
    Box,
    VertexPolytope,
    bounds_of,
    hausdorff,
    interval,
    minkowski_sum,
    sq_dist_point,
    support,
)
from setstat.invopt import (
    BoxLinearProgram,
    BoxQuadraticProgram,
    EstimationResult,
    MembershipSet,
    ObservationDataset,
    ParametricProgram,
    PriorRegion,
    SolverLimitError,
    TruncatedGaussianNoiseDensity,
    UniformNoiseDensity,
    abp_estimate,
    abp_objective,
    eps_argmin_set,
    generate_boxlinear_observations,
    generate_boxquadratic_observations,
    kkt_estimate,
    mle_estimate,
    mle_objective,
    noise_support_box,
    presmooth_estimate,
    rdf_eval,
    read_observations_jsonl,
    result_to_dict,
    sq_dist_to_inflated_set,
    value_function,
    via_estimate,
    write_observations_jsonl,
)
from setstat.randomsets import RngSeed


class MiniLinear(ParametricProgram):
    """min -x on [-2, 2] without an analytic value, to force generic solves."""

    def __init__(self):
        self.x_dim = 1
        self.u_dim = 0
        self.theta_dim = 0
        self.n_constraints = 2
        self.outer_box = Box([-3.0], [3.0])

    def objective(self, x, u, theta):
        return float(-x[0])

    def objective_grad_x(self, x, u, theta):
        return np.array([-1.0])

    def constraints(self, x, u, theta):
        return np.array([x[0] - 2.0, -x[0] - 2.0])

    def constraint_grads_x(self, x, u, theta):
        return np.array([[1.0], [-1.0]])


class Infeasible(ParametricProgram):
    """Constraint g = 1 everywhere; no feasible point exists."""

    def __init__(self):
        self.x_dim = 1
        self.u_dim = 0
        self.theta_dim = 0
        self.n_constraints = 1
        self.outer_box = Box([-1.0], [1.0])

    def objective(self, x, u, theta):
        return float(x[0])

    def objective_grad_x(self, x, u, theta):
        return np.array([1.0])

    def constraints(self, x, u, theta):
        return np.array([1.0])

    def constraint_grads_x(self, x, u, theta):
        return np.array([[0.0]])


_NO_ARGS = np.zeros(0)


# ----------------------------------------------------------------- programs


def test_box_linear_program_basics():
    p = BoxLinearProgram()
    assert (p.x_dim, p.u_dim, p.theta_dim, p.n_constraints) == (1, 1, 1, 2)
    assert p.objective([1.5], [1.0], [0.5]) == -(0.5 + 1.0) * 1.5
    np.testing.assert_allclose(p.constraints([2.5], [0.0], [0.0]), [0.5, -4.5])
    assert value_function(p, [1.0], [0.0]) == -2.0
    assert value_function(p, [1.0], [-1.0]) == 0.0
    p2 = BoxLinearProgram(x_dim=2)
    assert value_function(p2, [1.0, -0.5], [0.0, 0.0]) == -2.0 * 1.5


def test_box_quadratic_program_basics():
    p = BoxQuadraticProgram()
    assert (p.x_dim, p.u_dim, p.theta_dim) == (1, 0, 0)
    assert p.objective([0.5], _NO_ARGS, _NO_ARGS) == 0.25
    assert value_function(p, _NO_ARGS, _NO_ARGS) == 0.0


def test_value_function_generic_solver_matches_analytic():
    v = value_function(MiniLinear(), _NO_ARGS, _NO_ARGS)
    assert abs(v - (-2.0)) < 1e-8


def test_value_function_solver_failure_raises():
    with pytest.raises(SolverLimitError):
        value_function(Infeasible(), _NO_ARGS, _NO_ARGS)


# ----------------------------------------------------------- solution sets


def test_eps_argmin_linear_1d_closed_form():
    p = BoxLinearProgram()
    lo, hi = bounds_of(eps_argmin_set(p, [1.0], 1.0, [0.0]))
    assert (lo[0], hi[0]) == (1.0, 2.0)
    lo, hi = bounds_of(eps_argmin_set(p, [-1.0], 1.0, [0.0]))
    assert (lo[0], hi[0]) == (-2.0, -1.0)
    lo, hi = bounds_of(eps_argmin_set(p, [0.0], 1.0, [0.0]))  # flat objective
    assert (lo[0], hi[0]) == (-2.0, 2.0)
    lo, hi = bounds_of(eps_argmin_set(p, [0.25], 20.0, [0.0]))  # eps saturates
    assert (lo[0], hi[0]) == (-2.0, 2.0)


def test_eps_argmin_linear_1d_keeps_scalar_formula_bits():
    # the scalar path writes c < 0 as -b + eps/(-c), which is -b - eps/c
    # exactly in IEEE arithmetic
    p = BoxLinearProgram()
    rng = np.random.default_rng(13)
    b = p.bound
    for c in np.concatenate([rng.normal(scale=3.0, size=200), [0.0]]).tolist():
        eps = float(rng.uniform(0.0, 5.0))
        if c > 0:
            want = (max(-b, b - eps / c), b)
        elif c < 0:
            want = (-b, min(b, -b - eps / c))
        else:
            want = (-b, b)
        lo, hi = bounds_of(eps_argmin_set(p, [c], eps, [0.0]))
        assert (lo[0], hi[0]) == want


def test_eps_argmin_linear_2d_degenerate_sets():
    p = BoxLinearProgram(x_dim=2)
    point = eps_argmin_set(p, [1.0, 1.0], 0.0, [0.0, 0.0])
    assert np.array_equal(point.vertices, [[2.0, 2.0]])
    edge = eps_argmin_set(p, [1.0, 0.0], 0.0, [0.0, 0.0])
    assert np.array_equal(edge.vertices, [[2.0, -2.0], [2.0, 2.0]])
    # eps = 4 puts the objective row on the far box facet: the whole box
    whole = eps_argmin_set(p, [1.0, 0.0], 4.0, [0.0, 0.0])
    assert hausdorff(whole, Box([-2.0, -2.0], [2.0, 2.0])) == 0.0


def test_solver_limit_error_is_shared_with_geometry():
    assert SolverLimitError is geometry.SolverLimitError


def test_eps_argmin_quadratic_closed_form():
    p = BoxQuadraticProgram()
    lo, hi = bounds_of(eps_argmin_set(p, _NO_ARGS, 0.25, _NO_ARGS))
    assert (lo[0], hi[0]) == (-0.5, 0.5)
    lo, hi = bounds_of(eps_argmin_set(p, _NO_ARGS, 9.0, _NO_ARGS))
    assert (lo[0], hi[0]) == (-1.0, 1.0)
    with pytest.raises(ValueError):
        eps_argmin_set(p, _NO_ARGS, -0.1, _NO_ARGS)


def test_eps_argmin_linear_2d_polygon():
    p = BoxLinearProgram(x_dim=2)
    s = eps_argmin_set(p, [1.0, 1.0], 2.0, [0.0, 0.0])
    # {x in [-2,2]^2 : x1 + x2 >= 2}, the corner triangle
    want = VertexPolytope([[0.0, 2.0], [2.0, 0.0], [2.0, 2.0]])
    assert hausdorff(s, want) <= 1e-9


def test_eps_argmin_monotone_in_eps():
    p = BoxLinearProgram()
    dirs = [np.array([1.0]), np.array([-1.0])]
    prev = eps_argmin_set(p, [0.7], 0.1, [0.3])
    for eps in [0.5, 1.0, 3.0]:
        cur = eps_argmin_set(p, [0.7], eps, [0.3])
        for u in dirs:
            assert support(prev, u) <= support(cur, u) + 1e-12
        prev = cur


def test_eps_argmin_membership_fallback():
    s = eps_argmin_set(MiniLinear(), _NO_ARGS, 0.5, _NO_ARGS)
    assert isinstance(s, MembershipSet)
    assert s.contains([1.8])
    assert not s.contains([1.2])  # objective gap 0.8 > eps
    assert not s.contains([2.3])  # infeasible


# ------------------------------------------------------ distance to S + W


def test_sq_dist_closed_form_interval():
    p = BoxLinearProgram()
    # S(1, 1, 0) = [1, 2], W = [-1, 1], inflated [0, 3], d(3.5)^2 = 0.25
    d = sq_dist_to_inflated_set(p, [3.5], [1.0], 1.0, [0.0], interval(-1.0, 1.0))
    assert math.isclose(d, 0.25, abs_tol=1e-12)
    d0 = sq_dist_to_inflated_set(p, [2.5], [1.0], 1.0, [0.0], interval(-1.0, 1.0))
    assert d0 == 0.0


def test_sq_dist_membership_route_matches_exact():
    # same geometry through the alternating-projection route
    p = MiniLinear()
    w = Box([-0.25], [0.25])
    d = sq_dist_to_inflated_set(p, [3.5], _NO_ARGS, 0.5, _NO_ARGS, w)
    assert abs(d - 1.25**2) < 1e-6


def test_sq_dist_2d_matches_polytope_arithmetic():
    p = BoxLinearProgram(x_dim=2)
    w = Box([-0.5, -0.5], [0.5, 0.5])
    y = np.array([3.0, 3.0])
    d = sq_dist_to_inflated_set(p, y, [1.0, 1.0], 2.0, [0.0, 0.0], w)
    s = eps_argmin_set(p, [1.0, 1.0], 2.0, [0.0, 0.0])
    want = sq_dist_point(y, minkowski_sum(s, w))
    assert abs(d - want) < 1e-9
    assert math.isclose(want, 2 * 0.5**2, abs_tol=1e-9)  # nearest point (2.5, 2.5)


def test_sq_dist_nonincreasing_in_eps():
    p = BoxLinearProgram()
    w = interval(-1.0, 1.0)
    vals = [
        sq_dist_to_inflated_set(p, [3.9], [1.0], e, [0.0], w)
        for e in [0.1, 0.5, 1.0, 2.0, 4.0]
    ]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------- datasets and prior


def test_observation_dataset_shapes():
    ds = ObservationDataset(np.zeros(5), np.ones(5))
    assert len(ds) == 5 and ds.u_dim == 1 and ds.y_dim == 1
    empty_u = ObservationDataset(np.zeros((4, 0)), np.ones(4))
    assert empty_u.u_dim == 0
    with pytest.raises(ValueError):
        ObservationDataset(np.zeros(3), np.ones(4))


def test_prior_region_axes():
    prior = PriorRegion(
        eps_range=(0.1, 10.0),
        w_set=interval(-1.0, 1.0),
        theta_box=Box([-2.0], [2.0]),
        d_eps=0.05,
        d_theta=0.05,
    )
    eps = prior.eps_axis()
    assert len(eps) == 199
    assert math.isclose(eps[0], 0.1) and math.isclose(eps[-1], 10.0)
    pts = prior.theta_points()
    assert pts.shape == (81, 1)
    assert math.isclose(pts[0, 0], -2.0) and math.isclose(pts[-1, 0], 2.0)


def test_prior_region_theta_free_and_validation():
    prior = PriorRegion(eps_range=(0.0, 1.0), w_set=interval(-1, 1))
    assert prior.theta_points().shape == (1, 0)
    assert prior.theta_axes() == []
    with pytest.raises(ValueError):
        PriorRegion(eps_range=(1.0, 0.5), w_set=interval(-1, 1))
    with pytest.raises(ValueError):
        PriorRegion(eps_range=(0.0, 1.0), w_set=interval(-1, 1), d_eps=0.0)


def test_prior_theta_points_lexicographic_order():
    prior = PriorRegion(
        eps_range=(0.0, 0.1),
        w_set=interval(-1, 1),
        theta_box=Box([0.0, 0.0], [1.0, 1.0]),
        d_theta=1.0,
    )
    np.testing.assert_allclose(
        prior.theta_points(), [[0, 0], [0, 1], [1, 0], [1, 1]]
    )


# -------------------------------------------------------------- estimators


def test_abp_objective_by_hand():
    p = BoxLinearProgram()
    ds = ObservationDataset(np.array([1.0]), np.array([3.5]))
    val = abp_objective(p, ds, 1.0, [0.0], 0.1, interval(-1.0, 1.0))
    assert math.isclose(val, 0.25 + 0.1, abs_tol=1e-12)
    with pytest.raises(ValueError):
        abp_objective(p, ds, 1.0, [0.0], -0.5, interval(-1.0, 1.0))


def test_abp_vectorized_grid_matches_pointwise_objective():
    p = BoxLinearProgram()
    ds = generate_boxlinear_observations(40, RngSeed(3))
    prior = PriorRegion(
        eps_range=(0.2, 1.0),
        w_set=interval(-1.0, 1.0),
        theta_box=Box([-0.5], [0.5]),
        d_eps=0.2,
        d_theta=0.25,
    )
    res = abp_estimate(p, ds, prior, lam=0.01)
    eps_axis = prior.eps_axis()
    pts = prior.theta_points()
    for i in range(len(eps_axis)):
        for j in range(len(pts)):
            want = abp_objective(p, ds, float(eps_axis[i]), pts[j], 0.01, prior.w_set)
            assert abs(res.grid_values[i, j] - want) < 1e-10


def test_abp_lambda_defaults_to_reciprocal_sample_size():
    ds = generate_boxlinear_observations(25, RngSeed(4))
    prior = PriorRegion(eps_range=(0.5, 2.0), w_set=interval(-1, 1),
                        theta_box=Box([0.0], [0.0]), d_eps=0.5)
    res = abp_estimate(BoxLinearProgram(), ds, prior)
    assert res.lam == 1.0 / 25.0


def test_abp_noiseless_data_certificate():
    # noise-free observations drawn inside S(u, 1, 0): at the truth the fit
    # term vanishes exactly, so the objective there is lam * eps
    p = BoxLinearProgram()
    rng = RngSeed(11).generator()
    us = rng.uniform(-2.0, 2.0, size=60)
    ys = np.empty(60)
    for i, u in enumerate(us):
        lo, hi = bounds_of(eps_argmin_set(p, [u], 1.0, [0.0]))
        ys[i] = rng.uniform(lo[0], hi[0])
    ds = ObservationDataset(us, ys)
    point_w = interval(0.0, 0.0)
    assert math.isclose(
        abp_objective(p, ds, 1.0, [0.0], 0.001, point_w), 0.001, abs_tol=1e-15
    )
    prior = PriorRegion(eps_range=(0.1, 2.0), w_set=point_w,
                        theta_box=Box([-0.5], [0.5]), d_eps=0.05, d_theta=0.25)
    res = abp_estimate(p, ds, prior, lam=1e-6)
    assert res.eps_hat <= 1.0 + 1e-12
    assert abs(res.theta_hat[0]) <= 0.25 + 1e-12


def test_abp_tie_break_smallest_eps():
    # every eps >= 0.25 covers the single observation, lam = 0 leaves a tie
    p = BoxQuadraticProgram()
    ds = ObservationDataset(np.zeros((1, 0)), np.array([0.5]))
    prior = PriorRegion(eps_range=(0.1, 1.0), w_set=interval(0.0, 0.0), d_eps=0.05)
    res = abp_estimate(p, ds, prior, lam=0.0)
    assert math.isclose(res.eps_hat, 0.25, abs_tol=1e-12)


def test_abp_quadratic_grid_matches_pointwise():
    p = BoxQuadraticProgram()
    ds = generate_boxquadratic_observations(30, 3.0, RngSeed(5))
    prior = PriorRegion(eps_range=(0.2, 1.0), w_set=interval(-3.0, 3.0), d_eps=0.2)
    res = abp_estimate(p, ds, prior, lam=0.05)
    for i, eps in enumerate(prior.eps_axis()):
        want = abp_objective(p, ds, float(eps), _NO_ARGS, 0.05, prior.w_set)
        assert abs(res.grid_values[i, 0] - want) < 1e-10


def test_via_closed_form_singletons():
    quad = BoxQuadraticProgram()
    ds = ObservationDataset(np.zeros((1, 0)), np.array([1.0]))
    assert math.isclose(via_estimate(quad, ds).eps_hat, 4.0, abs_tol=1e-12)
    lin = BoxLinearProgram()
    ds2 = ObservationDataset(np.array([1.0]), np.array([1.0]))
    # grad = -(0 + 1): eps = -1 * 1 + 2 * 1 = 1
    assert math.isclose(via_estimate(lin, ds2, theta=[0.0]).eps_hat, 1.0, abs_tol=1e-12)
    ds3 = ObservationDataset(np.array([1.0]), np.array([-2.0]))
    assert math.isclose(via_estimate(lin, ds3, theta=[0.0]).eps_hat, 4.0, abs_tol=1e-12)


def test_via_nonnegative_and_zero_at_optimum():
    lin = BoxLinearProgram()
    ds = ObservationDataset(np.array([1.0]), np.array([2.0]))  # exact argmin
    assert math.isclose(via_estimate(lin, ds, theta=[0.0]).eps_hat, 0.0, abs_tol=1e-12)


def test_kkt_closed_form_singletons():
    quad = BoxQuadraticProgram()
    # infeasible observation: feasibility residual 1, stationarity 4
    ds = ObservationDataset(np.zeros((1, 0)), np.array([2.0]))
    assert math.isclose(kkt_estimate(quad, ds).eps_hat, 4.0, abs_tol=1e-12)
    # interior observation: only the stationarity residual |2y| remains
    ds2 = ObservationDataset(np.zeros((1, 0)), np.array([0.5]))
    assert math.isclose(kkt_estimate(quad, ds2).eps_hat, 1.0, abs_tol=1e-12)
    # y = 0 is the exact optimum: all residual groups vanish
    ds3 = ObservationDataset(np.zeros((1, 0)), np.array([0.0]))
    assert kkt_estimate(quad, ds3).eps_hat == 0.0


def test_baselines_reject_unknown_programs():
    ds = ObservationDataset(np.zeros((1, 0)), np.array([0.5]))
    with pytest.raises(ValueError):
        via_estimate(MiniLinear(), ds)
    with pytest.raises(ValueError):
        kkt_estimate(MiniLinear(), ds)


# ------------------------------------------------------------------- MLE


def test_mle_objective_log2_oracle():
    p = BoxLinearProgram()
    ds = ObservationDataset(np.array([1.0]), np.array([1.5]))
    # S = [1, 2]; integral of the U(-1,1) density over S is 1/2; |S| = 1
    val = mle_objective(p, ds, 1.0, [0.0], UniformNoiseDensity(-1.0, 1.0))
    assert math.isclose(val, math.log(2.0), abs_tol=1e-12)


def test_mle_objective_infinite_when_unreachable():
    p = BoxLinearProgram()
    ds = ObservationDataset(np.array([1.0]), np.array([50.0]))
    val = mle_objective(p, ds, 1.0, [0.0], UniformNoiseDensity(-1.0, 1.0))
    assert val == math.inf


def test_mle_grid_matches_pointwise_objective():
    p = BoxLinearProgram()
    ds = generate_boxlinear_observations(30, RngSeed(6))
    prior = PriorRegion(eps_range=(0.4, 1.6), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-0.5], [0.5]), d_eps=0.3, d_theta=0.25)
    density = UniformNoiseDensity(-1.0, 1.0)
    res = mle_estimate(p, ds, prior, density)
    eps_axis = prior.eps_axis()
    pts = prior.theta_points()
    for i in range(len(eps_axis)):
        for j in range(len(pts)):
            want = mle_objective(p, ds, float(eps_axis[i]), pts[j], density)
            got = res.grid_values[i, j]
            assert (want == math.inf and got == math.inf) or abs(got - want) < 1e-10


def _two_endpoint_interval(b, c, eps):
    """The 1-D box-linear eps-argmin interval with both endpoints evaluated
    for every cell: the formula the in-place grid kernels replaced."""
    c_safe = np.where(c == 0, 1.0, c)
    width = eps / np.abs(c_safe)
    lo = np.where(c > 0, np.maximum(-b, b - width), -b)
    hi = np.where(c < 0, np.minimum(b, -b + width), b)
    return lo, hi


def _two_endpoint_grids(prog, ds, prior, lam, density):
    """abp and mle grids built cell by cell from _two_endpoint_interval."""
    eps_col = prior.eps_axis()[:, None]
    pts = prior.theta_points()
    us, ys = ds.us[:, 0], ds.ys[:, 0]
    w_lo, w_hi = (float(v[0]) for v in bounds_of(prior.w_set))
    abp = np.empty((len(eps_col), len(pts)))
    mle = np.empty_like(abp)
    for j, th in enumerate(pts):
        lo, hi = _two_endpoint_interval(prog.bound, th[0] + us, eps_col)
        d = np.maximum.reduce([lo + w_lo - ys, ys - (hi + w_hi), np.zeros_like(lo)])
        abp[:, j] = (d * d).mean(axis=1)
        if density is not None:
            ov = density.integrate_shifted(ys[None, :], lo, hi)
            s_width = hi - lo
            bad = (ov <= 0) | (s_width <= 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(bad, np.inf, np.log(s_width) - np.log(ov))
            mle[:, j] = terms.mean(axis=1)
    abp += lam * eps_col
    return abp, mle


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize(
    "seed, n, w, eps_lo, on_grid",
    [
        (1, 1, (-1.0, 1.0), 0.0, False),
        (2, 1, (-0.3, 0.9), 0.05, True),
        (3, 200, (-1.0, 1.0), 0.0, True),
        (4, 500, (-1.3, 0.4), 0.2, False),
        (5, 64, (0.25, 0.25), 0.0, True),  # zero-width W: abp only
        (6, 997, (-0.5, 1.5), 0.0, True),
    ],
)
def test_boxlinear_grids_bit_identical_to_two_endpoint_oracle(seed, n, w, eps_lo, on_grid):
    rng = np.random.default_rng(seed)
    prog = BoxLinearProgram()
    prior = PriorRegion(eps_range=(eps_lo, eps_lo + 2.0), w_set=interval(*w),
                        theta_box=Box([-0.5], [0.5]), d_eps=0.1, d_theta=0.125)
    pts = prior.theta_points()
    us = rng.uniform(-2.0, 2.0, size=n)
    if on_grid:  # c = theta + u == 0 exactly in some columns
        us[::2] = -pts[rng.integers(0, len(pts), size=len(us[::2])), 0]
    lo, hi = _two_endpoint_interval(prog.bound, us, 1.0)
    ys = rng.uniform(lo, hi) + rng.uniform(w[0], w[1], size=n)
    ds = ObservationDataset(us, ys)
    density = UniformNoiseDensity(*w) if w[0] < w[1] else None
    want_abp, want_mle = _two_endpoint_grids(prog, ds, prior, 0.01, density)
    got_abp = abp_estimate(prog, ds, prior, lam=0.01).grid_values
    assert np.array_equal(_bits(got_abp), _bits(want_abp))
    # points beyond -b + w_lo and b + w_hi, which no eps can reach
    far = ObservationDataset(us, ys + rng.choice([-3.0, 0.0, 3.0], size=n))
    want_far, _ = _two_endpoint_grids(prog, far, prior, 0.01, None)
    got_far = abp_estimate(prog, far, prior, lam=0.01).grid_values
    assert np.array_equal(_bits(got_far), _bits(want_far))
    if density is None:
        return
    got_mle = mle_estimate(prog, ds, prior, density).grid_values
    assert np.array_equal(_bits(got_mle), _bits(want_mle))
    assert np.isfinite(got_mle).any()
    if eps_lo == 0.0:  # eps = 0 makes S a point for c != 0: +inf sentinels
        assert np.isinf(got_mle[0]).any()


@pytest.mark.parametrize("seed, n, w", [(7, 1, (-1.0, 1.0)), (8, 300, (-1.3, 0.4))])
def test_boxlinear_grids_match_per_point_objectives(seed, n, w):
    rng = np.random.default_rng(seed)
    prog = BoxLinearProgram()
    prior = PriorRegion(eps_range=(0.0, 2.0), w_set=interval(*w),
                        theta_box=Box([-0.5], [0.5]), d_eps=0.25, d_theta=0.25)
    pts = prior.theta_points()
    us = rng.uniform(-2.0, 2.0, size=n)
    us[0] = -pts[1, 0]  # a c == 0 sample
    lo, hi = _two_endpoint_interval(prog.bound, us, 1.0)
    ds = ObservationDataset(us, rng.uniform(lo, hi) + rng.uniform(w[0], w[1], size=n))
    far = ObservationDataset(us, ds.ys[:, 0] + rng.choice([-3.0, 0.0, 3.0], size=n))
    density = UniformNoiseDensity(*w)
    abp = abp_estimate(prog, far, prior, lam=0.01).grid_values
    mle = mle_estimate(prog, ds, prior, density).grid_values
    eps_axis = prior.eps_axis()
    for i, j in [(0, 0), (0, 2), (3, 1), (4, 2), (8, 4)]:
        eps = float(eps_axis[i])
        want = abp_objective(prog, far, eps, pts[j], 0.01, prior.w_set)
        assert abs(abp[i, j] - want) <= 1e-12
        want = mle_objective(prog, ds, eps, pts[j], density)
        assert mle[i, j] == want == math.inf or abs(mle[i, j] - want) <= 1e-12


def test_eps_argmin_set_rejects_nan_eps():
    for prog in (BoxLinearProgram(), BoxQuadraticProgram()):
        with pytest.raises(ValueError):
            eps_argmin_set(prog, [0.5], math.nan, [0.0])


def test_mle_recovers_truth_region_on_demo_data():
    p = BoxLinearProgram()
    ds = generate_boxlinear_observations(800, RngSeed(7))
    prior = PriorRegion(eps_range=(0.5, 2.0), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-0.5], [0.5]), d_eps=0.05, d_theta=0.05)
    res = mle_estimate(p, ds, prior, UniformNoiseDensity(-1.0, 1.0))
    assert abs(res.eps_hat - 1.0) <= 0.2
    assert abs(res.theta_hat[0]) <= 0.2


def test_truncated_gaussian_density_normalized():
    d = TruncatedGaussianNoiseDensity(1.0, 2.0)
    total = d.integrate_shifted(0.0, -5.0, 5.0)  # integral over full support
    assert abs(total - 1.0) < 1e-9
    assert d.density(3.0) == 0.0
    assert d.density(0.0) > 0.0


def test_truncated_gaussian_density_keeps_scipy_stats_and_per_call_rule_bits():
    from scipy import stats

    rng = np.random.default_rng(17)
    for sigma, halfwidth in rng.uniform(0.05, 4.0, size=(25, 2)):
        d = TruncatedGaussianNoiseDensity(sigma, halfwidth)
        mass = stats.norm.cdf(halfwidth / sigma) - stats.norm.cdf(-halfwidth / sigma)
        assert d._mass == mass
    # the stored 256-node rule gives the bits of computing it in every call
    d = TruncatedGaussianNoiseDensity(1.3, 2.1)
    y, lo, hi = rng.uniform(-3, 3, 40), rng.uniform(-4, 0, 40), rng.uniform(0, 4, 40)
    nodes, weights = np.polynomial.legendre.leggauss(256)
    lo_c, hi_c = np.maximum(lo, y - 2.1), np.minimum(hi, y + 2.1)
    half = 0.5 * np.maximum(hi_c - lo_c, 0.0)
    xs = (0.5 * (lo_c + hi_c))[:, None] + half[:, None] * nodes
    expected = (d.density(y[:, None] - xs) * weights).sum(axis=-1) * half
    assert np.array_equal(d.integrate_shifted(y, lo, hi), expected)


def test_mle_with_truncated_gaussian_noise_runs():
    p = BoxQuadraticProgram()
    ds = generate_boxquadratic_observations(50, 1.0, RngSeed(8))
    prior = PriorRegion(eps_range=(0.2, 1.0), w_set=interval(-2.0, 2.0), d_eps=0.2)
    res = mle_estimate(p, ds, prior, TruncatedGaussianNoiseDensity(1.0, 2.0))
    assert math.isfinite(res.objective)


# ------------------------------------------------------------ dual function


def test_rdf_value_at_zero_multipliers():
    p = BoxLinearProgram()
    for u, th in [(0.7, 0.2), (-1.3, 0.4), (0.0, 0.0)]:
        val, _, _ = rdf_eval(p, [u], [th], [0.0, 0.0], 0.0)
        assert math.isclose(val, -3.0 * abs(u + th), abs_tol=1e-12)


def test_rdf_weak_duality_lower_bound():
    p = BoxLinearProgram()
    rng = np.random.default_rng(12)
    for _ in range(50):
        u, th = rng.uniform(-2, 2, size=2)
        lam = rng.uniform(0, 2, size=2)
        val, _, _ = rdf_eval(p, [u], [th], lam, 0.0)
        assert val <= value_function(p, [u], [th]) + 1e-12


def test_rdf_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    p = BoxLinearProgram()
    step = 1e-6
    for _ in range(50):
        u = rng.uniform(-2, 2, size=1)
        th = rng.uniform(-2, 2, size=1)
        lam = rng.uniform(0.05, 2.0, size=2)
        mu = rng.uniform(0.05, 1.0)
        _, g_th, g_lam = rdf_eval(p, u, th, lam, mu)
        num = (
            rdf_eval(p, u, th + step, lam, mu)[0]
            - rdf_eval(p, u, th - step, lam, mu)[0]
        ) / (2 * step)
        assert abs(g_th[0] - num) < 1e-6
        for k in range(2):
            lp, lm = lam.copy(), lam.copy()
            lp[k] += step
            lm[k] -= step
            num = (rdf_eval(p, u, th, lp, mu)[0] - rdf_eval(p, u, th, lm, mu)[0]) / (2 * step)
            assert abs(g_lam[k] - num) < 1e-6


def test_rdf_quadratic_program_gradients():
    p = BoxQuadraticProgram()
    rng = np.random.default_rng(14)
    step = 1e-6
    for _ in range(20):
        lam = rng.uniform(0.05, 1.5, size=2)
        mu = rng.uniform(0.05, 1.0)
        val, g_th, g_lam = rdf_eval(p, _NO_ARGS, _NO_ARGS, lam, mu)
        assert g_th.shape == (0,)
        for k in range(2):
            lp, lm = lam.copy(), lam.copy()
            lp[k] += step
            lm[k] -= step
            num = (
                rdf_eval(p, _NO_ARGS, _NO_ARGS, lp, mu)[0]
                - rdf_eval(p, _NO_ARGS, _NO_ARGS, lm, mu)[0]
            ) / (2 * step)
            assert abs(g_lam[k] - num) < 1e-6


def test_rdf_validates_inputs():
    p = BoxLinearProgram()
    with pytest.raises(ValueError):
        rdf_eval(p, [0.0], [0.0], [-0.1, 0.0], 0.5)
    with pytest.raises(ValueError):
        rdf_eval(p, [0.0], [0.0], [0.1, 0.0, 0.3], 0.5)
    with pytest.raises(ValueError):
        rdf_eval(p, [0.0], [0.0], [0.1, 0.0], -1.0)


# ------------------------------------------------------------- presmoothing


def test_presmooth_recovers_plausible_parameters():
    ds = generate_boxlinear_observations(500, RngSeed(9))
    prior = PriorRegion(eps_range=(0.1, 4.0), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-1.0], [1.0]), d_eps=0.05, d_theta=0.1)
    res = presmooth_estimate(BoxLinearProgram(), ds, 0.2, prior, RngSeed(10))
    assert res.estimator == "presmooth"
    assert 0.1 <= res.eps_hat <= 4.0
    assert res.extras["n_used"] + res.extras["n_skipped"] == 500
    assert res.extras["h"] == 0.2


def test_presmooth_all_skipped_raises():
    # W far wider than the data spread erodes every neighborhood hull away
    ds = ObservationDataset(np.array([0.0, 0.1]), np.array([0.0, 0.05]))
    prior = PriorRegion(eps_range=(0.1, 1.0), w_set=interval(-5.0, 5.0),
                        theta_box=Box([-1.0], [1.0]))
    with pytest.raises(ValueError):
        presmooth_estimate(BoxLinearProgram(), ds, 0.2, prior, RngSeed(0))


def test_presmooth_rejects_other_programs():
    ds = generate_boxquadratic_observations(10, 1.0, RngSeed(1))
    prior = PriorRegion(eps_range=(0.1, 1.0), w_set=interval(-1.0, 1.0))
    with pytest.raises(ValueError):
        presmooth_estimate(BoxQuadraticProgram(), ds, 0.2, prior, RngSeed(0))


# ----------------------------------------------------- generators and files


def test_generate_boxlinear_observations_support():
    ds = generate_boxlinear_observations(300, RngSeed(15), eps0=1.0, theta0=0.0)
    assert len(ds) == 300 and ds.u_dim == 1 and ds.y_dim == 1
    assert np.all(np.abs(ds.us) <= 2.0)
    assert np.all(np.abs(ds.ys) <= 3.0 + 1e-12)  # x in [-2,2] plus w in [-1,1]
    again = generate_boxlinear_observations(300, RngSeed(15))
    np.testing.assert_array_equal(ds.ys, again.ys)


def test_generate_boxquadratic_observations_support():
    ds = generate_boxquadratic_observations(200, 3.0, RngSeed(16))
    assert ds.u_dim == 0
    assert np.all(np.abs(ds.ys) <= 4.0 + 1e-12)


def test_noise_support_box_scales():
    n = int(round(math.exp(2.0)))  # log n = 2 up to rounding
    box = noise_support_box([[1.0]], n)
    half = box.upper[0]
    assert abs(half - math.sqrt(2 * math.log(n))) < 1e-12
    sub = noise_support_box([[1.0]], n, tail="subexponential")
    assert abs(sub.upper[0] - (math.sqrt(2 * math.log(n)) + math.log(n))) < 1e-12
    with pytest.raises(ValueError):
        noise_support_box([[1.0]], 10, tail="heavy")
    with pytest.raises(ValueError):
        noise_support_box([[1.0]], 1)


def test_observations_jsonl_round_trip(tmp_path):
    ds = generate_boxlinear_observations(40, RngSeed(17))
    path = tmp_path / "obs.jsonl"
    write_observations_jsonl(ds, path)
    back = read_observations_jsonl(path)
    np.testing.assert_allclose(back.us, ds.us)
    np.testing.assert_allclose(back.ys, ds.ys)
    path.write_text('{"u": [0.0]}\n')
    with pytest.raises(ValueError):
        read_observations_jsonl(path)


def test_result_to_dict_json_ready():
    ds = generate_boxlinear_observations(30, RngSeed(18))
    prior = PriorRegion(eps_range=(0.5, 1.5), w_set=interval(-1, 1),
                        theta_box=Box([0.0], [0.0]), d_eps=0.5)
    res = abp_estimate(BoxLinearProgram(), ds, prior)
    d = result_to_dict(res)
    text = json.dumps(d)  # must not raise
    assert json.loads(text)["estimator"] == "abp"
    assert d["grid"]["eps_axis"] == [0.5, 1.0, 1.5]
    via = result_to_dict(via_estimate(BoxLinearProgram(), ds, theta=[0.0]))
    assert via["grid"] is None
