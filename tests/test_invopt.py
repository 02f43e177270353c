"""Inverse approximate optimization: solution sets, estimators, duality."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from setstat import geometry, invopt
from setstat.geometry import (
    Ball,
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
    ObservationDataset,
    PriorRegion,
    SolverLimitError,
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
    via_estimate,
    write_observations_jsonl,
)
from setstat.randomsets import (
    RngSeed,
    TriangularNoise,
    TruncatedGaussianNoise,
    UniformBallNoise,
    UniformBoxNoise,
)


class MiniLinear:
    """min -x on [-2, 2]: the interface of the built-ins without their type."""

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


_NO_ARGS = np.zeros(0)


# ----------------------------------------------------------------- programs


def test_box_linear_program_basics():
    p = BoxLinearProgram()
    assert (p.x_dim, p.u_dim, p.theta_dim, p.n_constraints) == (1, 1, 1, 2)
    assert p.objective([1.5], [1.0], [0.5]) == -(0.5 + 1.0) * 1.5
    np.testing.assert_allclose(p.constraints([2.5], [0.0], [0.0]), [0.5, -4.5])
    assert p.value([1.0], [0.0]) == -2.0
    assert p.value([1.0], [-1.0]) == 0.0
    p2 = BoxLinearProgram(x_dim=2)
    assert p2.value([1.0, -0.5], [0.0, 0.0]) == -2.0 * 1.5


def test_box_quadratic_program_basics():
    p = BoxQuadraticProgram()
    assert (p.x_dim, p.u_dim, p.theta_dim) == (1, 0, 0)
    assert p.objective([0.5], _NO_ARGS, _NO_ARGS) == 0.25
    assert p.value(_NO_ARGS, _NO_ARGS) == 0.0


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


def _scalar_interval(b, c, eps):
    """The 1-D box-linear eps-argmin interval in Python floats: the oracle."""
    if c > 0:
        return max(-b, b - eps / c), b
    if c < 0:
        return -b, min(b, -b + eps / -c)
    return -b, b


def test_eps_argmin_linear_1d_keeps_scalar_formula_bits():
    p = BoxLinearProgram()
    rng = np.random.default_rng(13)
    b = p.bound
    cases = [(c, float(rng.uniform(0.0, 5.0)), float(rng.uniform(-1.0, 1.0)))
             for c in rng.normal(scale=3.0, size=200).tolist()]
    # c = +-0, eps = 0, eps/|c| == b (an exact zero endpoint), eps/|c| == 2b
    cases += [(c, eps, 0.0) for c in (0.0, -0.0, 1.0, -1.0, 0.5, -0.5)
              for eps in (0.0, 1.0, 2.0, 4.0)]
    cases += [(-0.25, 0.0, 0.25), (0.25, 1.0, -0.25), (-0.0, 0.5, 0.0)]
    for u, eps, theta in cases:
        want = _scalar_interval(b, theta + u, eps)
        s = eps_argmin_set(p, [u], eps, [theta])  # a Box; bounds_of would turn 0.0 into -0.0
        assert np.array_equal(_bits([s.lower[0], s.upper[0]]), _bits(want)), (u, eps, theta)


def test_solution_interval_keeps_the_parent_formulas_bits():
    # broadcast over (eps, c) cells: box-linear against _scalar_interval, the
    # box-quadratic [-m, m] against m = min(b, sqrt(eps)) in Python floats;
    # c = +-0 and eps = 0 give signed zeros (-0.0 for the quadratic eps = 0)
    rng = np.random.default_rng(21)
    c = np.concatenate([rng.normal(scale=3.0, size=60), [0.0, -0.0, 1.0, -1.0, 0.5, -0.5]])
    eps = np.concatenate([rng.uniform(0.0, 5.0, size=20), [0.0, 1.0, 2.0, 4.0]])[:, None]
    lin, quad = BoxLinearProgram(), BoxQuadraticProgram()
    lo, hi = invopt._solution_interval(lin, c, eps)
    assert lo.shape == hi.shape == (len(eps), len(c))
    want = np.array([[_scalar_interval(lin.bound, ci, e) for ci in c.tolist()]
                     for e in eps[:, 0].tolist()])
    assert np.array_equal(_bits(lo), _bits(want[..., 0]))
    assert np.array_equal(_bits(hi), _bits(want[..., 1]))
    lo, hi = invopt._solution_interval(quad, np.zeros(0), eps)
    m = np.array([[min(quad.bound, math.sqrt(e))] for e in eps[:, 0].tolist()])
    assert np.array_equal(_bits(lo), _bits(-m)) and np.array_equal(_bits(hi), _bits(m))
    assert _bits(lo[-4, 0]) == _bits(-0.0)  # eps = 0
    for e, m_e in zip(eps[:, 0].tolist(), m[:, 0]):
        s = eps_argmin_set(quad, _NO_ARGS, e, _NO_ARGS)
        assert np.array_equal(_bits([s.lower[0], s.upper[0]]), _bits([-m_e, m_e]))


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


# ------------------------------------------------------ distance to S + W


def test_sq_dist_closed_form_interval():
    p = BoxLinearProgram()
    # S(1, 1, 0) = [1, 2], W = [-1, 1], inflated [0, 3], d(3.5)^2 = 0.25
    d = sq_dist_to_inflated_set(p, [3.5], [1.0], 1.0, [0.0], interval(-1.0, 1.0))
    assert math.isclose(d, 0.25, abs_tol=1e-12)
    d0 = sq_dist_to_inflated_set(p, [2.5], [1.0], 1.0, [0.0], interval(-1.0, 1.0))
    assert d0 == 0.0


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


def _joint_qp_sq_dist(y, x_bound, constraint, grad, w_set):
    """min |y - x - w|^2 over x in [-x_bound, x_bound]^d with constraint(x) >= 0
    (gradient grad(x)) and w in the box or ball w_set, the least value of
    three SLSQP solves of the joint (x, w) program that end feasible: a
    reference independent of any set arithmetic, for a constraint with
    interior points (SLSQP stalls where the feasible x form a face)."""
    from scipy.optimize import minimize

    d = len(y)
    constraints = [{"type": "ineq", "fun": lambda z: constraint(z[:d]),
                    "jac": lambda z: np.concatenate([grad(z[:d]), np.zeros(d)])}]
    if isinstance(w_set, Ball):  # r^2 - |w - center|^2 >= 0
        w_bounds = [(None, None)] * d
        constraints.append({
            "type": "ineq", "fun": lambda z: w_set.radius**2 - np.sum((z[d:] - w_set.center) ** 2),
            "jac": lambda z: np.concatenate([np.zeros(d), -2.0 * (z[d:] - w_set.center)])})
    else:
        w_bounds = list(zip(w_set.lower, w_set.upper))
    rng = np.random.default_rng(0)
    best = math.inf
    for start in range(3):
        z0 = rng.uniform(-1.0, 1.0, 2 * d) if start else np.zeros(2 * d)
        res = minimize(
            lambda z: float(np.sum((y - z[:d] - z[d:]) ** 2)), z0,
            jac=lambda z: np.tile(-2.0 * (y - z[:d] - z[d:]), 2),
            bounds=[(-x_bound, x_bound)] * d + w_bounds, constraints=constraints,
            method="SLSQP", options={"ftol": 1e-15, "maxiter": 1000},
        )
        # at ftol 1e-15 a solve may end in "Positive directional derivative
        # for linesearch" (status 8) at the optimum; an infeasible end reads low
        if res.status in (0, 8) and all(c["fun"](res.x) >= -1e-12 for c in constraints):
            best = min(best, res.fun)
    assert best < math.inf
    return best


def _reference_sq_dist(prog, y, c, eps, w_set):
    """d^2(y, S + W) for a box W: in closed form where S is a box (the
    box-quadratic point at eps = 0, the box-linear argmin face at eps = 0 or
    the whole box at eps >= 2b|c|_1), by _joint_qp_sq_dist otherwise."""
    b, d = prog.bound, len(y)
    if isinstance(prog, BoxQuadraticProgram):
        if eps > 0.0:
            return _joint_qp_sq_dist(y, b, lambda x: eps - x @ x, lambda x: -2.0 * x, w_set)
        lo = hi = np.zeros(d)
    elif eps == 0.0:  # x_j = b sign(c_j) where c_j != 0
        lo, hi = np.where(c == 0.0, -b, b * np.sign(c)), np.where(c == 0.0, b, b * np.sign(c))
    elif eps >= 2 * b * np.abs(c).sum():
        lo, hi = np.full(d, -b), np.full(d, b)
    else:
        level = b * np.abs(c).sum() - eps  # c'x >= -V(c) - eps
        return _joint_qp_sq_dist(y, b, lambda x: c @ x - level, lambda x: c, w_set)
    gap = np.maximum(np.maximum(lo + w_set.lower - y, y - (hi + w_set.upper)), 0.0)
    return float(gap @ gap)


def _box_linear_cases(d, count, seed):
    """(c, eps, y) with eps = 0, a random eps and eps past 2b|c|_1 in turn, a
    zero entry of c in every third case, and y outside b + W along x_1."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        c = rng.normal(scale=1.5, size=d)
        if k % 3 == 1:
            c[rng.integers(d)] = 0.0
        eps = (0.0, float(rng.uniform(0.0, 4.0)), 4.0 * 2.0 * np.abs(c).sum() + 1.0)[k % 3]
        y = rng.normal(scale=2.0, size=d)
        y[0] = rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 5.0)
        cases.append((c, eps, y))
    return cases


@pytest.mark.parametrize("d", [3, 4])
def test_sq_dist_box_linear_matches_the_joint_qp(d):
    p = BoxLinearProgram(x_dim=d)
    w = Box(np.full(d, -0.3), np.full(d, 0.3))
    for c, eps, y in _box_linear_cases(d, 12, seed=d):
        got = sq_dist_to_inflated_set(p, y, c, eps, np.zeros(d), w)
        want = _reference_sq_dist(p, y, c, eps, w)
        assert want > 0.1 and abs(got - want) <= 1e-9 * want, (c, eps, y, got, want)


@pytest.mark.parametrize("d", [2, 3])
def test_sq_dist_with_a_ball_w_matches_the_joint_qp(d):
    # S + W for a ball W is no polytope: the distance is max(d(y - c, S) - r, 0)^2
    p = BoxLinearProgram(x_dim=d)
    w = Ball(np.linspace(-0.2, 0.1, d), 0.5)
    for c, eps, y in _box_linear_cases(d, 24, seed=30 + d)[1::3]:  # eps in (0, 4)
        got = sq_dist_to_inflated_set(p, y, c, eps, np.zeros(d), w)
        level = p.bound * np.abs(c).sum() - eps  # c'x >= -V(c) - eps
        want = _joint_qp_sq_dist(y, p.bound, lambda x: c @ x - level, lambda x: c, w)
        assert want > 0.1 and abs(got - want) <= 1e-9 * want, (c, eps, y, got, want)
    q = BoxQuadraticProgram(x_dim=d)  # both sets balls: S is the ball the rule takes
    y = np.full(d, 2.0)
    got = sq_dist_to_inflated_set(q, y, _NO_ARGS, 0.5, _NO_ARGS, w)
    assert math.isclose(got, (np.linalg.norm(y - w.center) - math.sqrt(0.5) - 0.5) ** 2, rel_tol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_eps_argmin_box_linear_vertices(d):
    p = BoxLinearProgram(x_dim=d)
    b = p.bound
    for c, eps, _ in _box_linear_cases(d, 9, seed=10 + d):
        s = eps_argmin_set(p, c, eps, np.zeros(d))
        v = s.vertices
        assert len(v) <= 2**d + d * 2 ** (d - 1)
        assert (np.abs(v) <= b).all()
        assert (v @ c >= b * np.abs(c).sum() - eps - 1e-12).all()
        corners = {tuple(x) for x in v if (np.abs(x) == b).all()}
        if eps == 0.0:  # the argmin face: x_j = b sign(c_j) wherever c_j != 0
            assert corners == {x for x in itertools.product((-b, b), repeat=d)
                               if all(xj * cj > 0 for xj, cj in zip(x, c) if cj != 0)}
            assert len(v) == len(corners)
        elif eps > 2 * b * np.abs(c).sum():  # the whole box
            assert len(corners) == 2**d
    whole = eps_argmin_set(p, np.zeros(d), 0.0, np.zeros(d))  # c = 0: the whole box
    assert hausdorff(whole, Box(np.full(d, -b), np.full(d, b))) == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_sq_dist_box_quadratic_ball_matches_the_joint_qp(d):
    p = BoxQuadraticProgram(x_dim=d)
    w = Box(np.full(d, -0.5), np.linspace(0.2, 0.6, d))
    rng = np.random.default_rng(20 + d)
    for eps in (0.0, 0.3, 1.0):
        s = eps_argmin_set(p, _NO_ARGS, eps, _NO_ARGS)
        assert (s.radius, s.center.tolist()) == (math.sqrt(eps), [0.0] * d)
        for _ in range(4):
            y = rng.normal(size=d)
            y *= rng.uniform(2.0, 4.0) / np.linalg.norm(y)
            got = sq_dist_to_inflated_set(p, y, _NO_ARGS, eps, _NO_ARGS, w)
            want = _reference_sq_dist(p, y, None, eps, w)
            assert want > 0.1 and abs(got - want) <= 1e-9 * want, (eps, y, got, want)
    assert sq_dist_to_inflated_set(p, np.full(d, 0.1), _NO_ARGS, 0.5, _NO_ARGS, w) == 0.0


def test_eps_argmin_box_quadratic_refuses_eps_past_the_box():
    p = BoxQuadraticProgram(x_dim=2)
    with pytest.raises(ValueError, match=r"eps = 1\.5 exceeds bound\^2 = 1\.0"):
        eps_argmin_set(p, _NO_ARGS, 1.5, _NO_ARGS)
    with pytest.raises(ValueError, match="eps = 1.5"):
        sq_dist_to_inflated_set(p, [3.0, 0.0], _NO_ARGS, 1.5, _NO_ARGS, Box([-1, -1], [1, 1]))


def test_set_routines_refuse_other_programs():
    ds = ObservationDataset(np.zeros((2, 0)), np.array([0.5, 1.5]))
    prior = PriorRegion(eps_range=(0.0, 1.0), w_set=interval(-1.0, 1.0), d_eps=0.5)
    with pytest.raises(ValueError, match="box-constrained built-ins"):
        eps_argmin_set(MiniLinear(), _NO_ARGS, 0.5, _NO_ARGS)
    with pytest.raises(ValueError, match="box-constrained built-ins"):
        sq_dist_to_inflated_set(MiniLinear(), [3.5], _NO_ARGS, 0.5, _NO_ARGS, interval(-1, 1))
    with pytest.raises(ValueError, match="box-constrained built-ins"):
        abp_estimate(MiniLinear(), ds, prior)


def test_mle_objective_refuses_a_multivariate_program_before_any_set():
    ds = ObservationDataset(np.zeros((1, 0)), np.array([[0.5, 0.5]]))
    noise = UniformBoxNoise([-1.0], [1.0])
    # eps = 2 would make eps_argmin_set raise its own error first
    for eps in (0.5, 2.0):
        with pytest.raises(ValueError, match="needs 1-D interval solution sets"):
            mle_objective(BoxQuadraticProgram(x_dim=2), ds, eps, _NO_ARGS, noise)
    prior = PriorRegion(eps_range=(0.0, 2.0), w_set=Box([-1, -1], [1, 1]), d_eps=0.5)
    for prog in (BoxQuadraticProgram(x_dim=2), BoxLinearProgram(x_dim=2)):
        with pytest.raises(ValueError, match="needs 1-D interval solution sets"):
            mle_estimate(prog, ds, prior, noise)


# ------------------------------------------------------- datasets and prior


def test_observation_dataset_shapes():
    ds = ObservationDataset(np.zeros(5), np.ones(5))
    assert len(ds) == 5 and ds.u_dim == 1 and ds.y_dim == 1
    empty_u = ObservationDataset(np.zeros((4, 0)), np.ones(4))
    assert empty_u.u_dim == 0
    with pytest.raises(ValueError):
        ObservationDataset(np.zeros(3), np.ones(4))


def test_observation_datasets_reject_non_finite_entries(tmp_path):
    bad = [([0.0, math.nan], [1.0, 2.0]), ([0.0, 1.0], [1.0, math.inf]), ([-math.inf], [0.0])]
    for us, ys in bad:
        with pytest.raises(ValueError, match="finite"):
            ObservationDataset(np.array(us), np.array(ys))
    path = tmp_path / "obs.jsonl"
    path.write_text('{"u": [0.5], "y": [1.0]}\n{"u": [0.5], "y": [NaN]}\n')  # json parses NaN
    with pytest.raises(ValueError, match="finite"):
        read_observations_jsonl(path)


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


def test_prior_region_axes_stop_at_the_prior_box():
    # round((2 - -2) / 0.45) = 9 steps would end at 2.05, outside the theta box
    prior = PriorRegion(eps_range=(0.1, 1.0), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-2.0], [2.0]), d_eps=0.4, d_theta=0.45)
    (theta,) = prior.theta_axes()
    assert theta.tobytes() == (-2.0 + 0.45 * np.arange(9)).tobytes() and theta[-1] <= 2.0
    assert prior.eps_axis().tobytes() == (0.1 + 0.4 * np.arange(3)).tobytes()


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


def _population_abp_objective(prog, eps, r, lam):
    """E d^2(x + w, S(eps) + W) + lam eps for x ~ U(-b, b), w ~ U(-r, r), the
    law of generate_boxquadratic_observations, by Gauss-Legendre quadrature.

    S(eps) + W comes from the library; the integrand is piecewise quadratic,
    so splitting x and w at its kinks makes six nodes a piece exact.
    """
    inflated = minkowski_sum(eps_argmin_set(prog, _NO_ARGS, eps, _NO_ARGS), interval(-r, r))
    lo, hi = (float(v[0]) for v in bounds_of(inflated))
    nodes, weights = np.polynomial.legendre.leggauss(6)

    def pieces(a, z, cuts):
        ends = sorted({a, z, *(t for t in cuts if a < t < z)})
        for p, q in zip(ends, ends[1:]):
            yield 0.5 * (q - p) * nodes + 0.5 * (p + q), 0.5 * (q - p) * weights

    b = prog.bound
    total = 0.0
    for xs, xw in pieces(-b, b, [lo + r, lo - r, hi + r, hi - r]):
        for x, wx in zip(xs, xw):
            for ws, ww in pieces(-r, r, [lo - x, hi - x]):
                gap = np.maximum(np.maximum(lo - (x + ws), (x + ws) - hi), 0.0)
                total += wx * float(ww @ (gap * gap))
    return total / (4.0 * b * r) + lam * eps


def test_abp_population_argmin_explains_criterion_7():
    # criterion 7 asks median |eps_hat - 1| <= 0.3 from abp at noise half-width
    # r = 6 with lam = 1/n = 1e-4; the penalized population objective already
    # has its minimum below 0.7, so the shortfall is the estimator's, not noise
    from scipy.optimize import brentq, minimize_scalar

    prog, r, lam = BoxQuadraticProgram(), 6.0, 1e-4
    res = minimize_scalar(
        lambda e: _population_abp_objective(prog, e, r, lam),
        bounds=(0.1, 1.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    # stationarity of (1 - m)^4 / (24 r) + lam m^2 in m = sqrt(eps)
    m = brentq(lambda m: (1.0 - m) ** 3 - 12.0 * r * lam * m, 0.0, 1.0, xtol=1e-15)
    assert abs(res.x - m * m) <= 1e-6
    assert 0.67 < m * m < 0.68
    prior = PriorRegion(eps_range=(0.1, 10.0), w_set=interval(-r, r), d_eps=0.05)
    axis = prior.eps_axis()
    cell = axis[int(np.argmin([_population_abp_objective(prog, e, r, lam) for e in axis]))]
    assert math.isclose(cell, 0.65) and abs(cell - 1.0) > 0.3  # the 0.35 criterion 7 reports


def _gl_pieces(ends, k):
    """k-point Gauss-Legendre nodes and weights on every gap between the
    sorted breakpoints along the last axis of ends."""
    x, w = np.polynomial.legendre.leggauss(k)
    a, z = ends[..., :-1, None], ends[..., 1:, None]
    half = 0.5 * (z - a)
    shape = (*ends.shape[:-1], -1)
    return (0.5 * (a + z) + half * x).reshape(shape), (half * w).reshape(shape)


def _population_boxlinear(kind, eps, theta, nodes=(8, 6)):
    """Population abp fit term (kind "abp") or likelihood objective ("mle") of
    the 1-D box-linear program at the cells (eps_k, theta), under the law of
    generate_boxlinear_observations: u ~ U(-2, 2), x ~ U(S(u, 1, 0)) and
    y = x + w with w ~ U(-1, 1), with noise support W = [-1, 1].

    Gauss-Legendre quadrature, in u on the pieces between the kinks of both
    solution sets (c = 0, |c| = eps/(2b)), and in y on the pieces between the
    kinks of the density of y and of the integrand; that makes the inner abp
    integral exact.  A cell whose set misses part of the true set at some u
    node has zero likelihood there: +inf.  Against 64 u and 24 y nodes per
    piece, the default nodes move an abp cell by under 3e-7 and a likelihood
    cell by under 2e-4, far less than the gaps between neighbouring cells.
    """
    b = 2.0
    eps = np.asarray(eps, dtype=float)[:, None]
    kinks = np.broadcast_to([-2.0, -0.25, 0.0, 0.25, 2.0, -theta], (len(eps), 6))
    kinks = np.hstack([kinks, -theta - eps / (2 * b), -theta + eps / (2 * b)])
    u, wu = _gl_pieces(np.sort(np.clip(kinks, -2.0, 2.0)), nodes[0])
    a, z = _two_endpoint_interval(b, u, 1.0)
    lo, hi = _two_endpoint_interval(b, theta + u, eps)
    out = np.full(len(eps), np.inf)
    keep = ~((a < lo) | (z > hi)).any(axis=1) if kind == "mle" else np.ones(len(eps), bool)
    a, z, lo, hi, u, wu = (v[keep] for v in (a, z, lo, hi, u, wu))
    ends = np.stack([a - 1, a + 1, z - 1, z + 1, lo - 1, lo + 1, hi - 1, hi + 1], axis=-1)
    y, wy = _gl_pieces(np.sort(np.clip(ends, (a - 1)[..., None], (z + 1)[..., None])), nodes[1])
    a, z, lo, hi = (v[..., None] for v in (a, z, lo, hi))
    dens = np.maximum(np.minimum(y + 1, z) - np.maximum(y - 1, a), 0.0) / (2 * (z - a))
    if kind == "abp":
        gap = np.maximum(np.maximum((lo - 1) - y, y - (hi + 1)), 0.0)
        term = gap * gap
    else:
        overlap = np.maximum(np.minimum(hi, y + 1) - np.maximum(lo, y - 1), 0.0) / 2
        term = np.log(hi - lo) - np.log(np.where(dens > 0, overlap, 1.0))
    out[keep] = (wu * (wy * dens * term).sum(axis=-1)).sum(axis=-1) / 4.0
    return out


def test_population_argmins_explain_criterion_8():
    # criterion 8 asks abp and mle to land within one 0.05 grid cell in 16 of
    # 20 replicates at n = 1000; on the population objectives themselves the
    # lam = 1/n penalty already puts abp two cells below the likelihood's eps = 1
    prior = PriorRegion(eps_range=(0.1, 10.0), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-2.0], [2.0]), d_eps=0.05, d_theta=0.05)
    eps_axis, thetas, lam = prior.eps_axis(), prior.theta_points()[:, 0], 1e-3
    truth = int(np.argmin(np.abs(eps_axis - 1.0)))
    # with eps >= 1 at theta = 0 every y lies in S + W: the fit is 0 and the
    # objective lam eps, so no cell above eps = 1 can beat the truth cell
    head = eps_axis[: truth + 1]
    abp = np.column_stack([_population_boxlinear("abp", head, t) for t in thetas])
    abp += lam * head[:, None]
    assert abp[truth, np.argmin(np.abs(thetas))] == lam * eps_axis[truth]
    mle = np.column_stack([_population_boxlinear("mle", eps_axis, t) for t in thetas])
    i_abp, j_abp = np.unravel_index(np.argmin(abp), abp.shape)
    i_mle, j_mle = np.unravel_index(np.argmin(mle), mle.shape)
    eps_abp, eps_mle = eps_axis[i_abp], eps_axis[i_mle]
    assert thetas[j_abp] == thetas[j_mle] == 0.0
    assert math.isclose(eps_mle, 1.0)
    assert 0.80 - 1e-9 <= eps_abp <= 0.95 + 1e-9  # the README's range
    assert abs(eps_abp - eps_mle) > 0.05 + 1e-9  # more than one grid cell apart


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


def _via_loop(prog, dataset, theta):
    """via_estimate with one loop iteration per observation: the oracle."""
    total = 0.0
    for u, y in zip(dataset.us, dataset.ys):
        grad = prog.objective_grad_x(y, u, theta)
        total += float(grad @ y) + prog.bound * float(np.abs(grad).sum())
    return total / len(dataset)


def _kkt_loop(prog, dataset, theta):
    """kkt_estimate with one loop iteration per observation: the oracle."""
    p = prog.x_dim
    feas, stat, comp = np.zeros(2 * p), np.zeros(p), np.zeros(2 * p)
    for u, y in zip(dataset.us, dataset.ys):
        a = prog.objective_grad_x(y, u, theta)
        g = prog.constraints(y, u, theta)
        feas += np.maximum(g, 0.0)
        for j in range(p):
            g1, g2 = g[j], g[p + j]
            l1, l2 = max(-a[j], 0.0), max(a[j], 0.0)
            if l1 * abs(g1) + l2 * abs(g2) < abs(a[j]):
                comp[j] += l1 * abs(g1)
                comp[p + j] += l2 * abs(g2)
            else:
                stat[j] += abs(a[j])
    return float(max(feas.max(), stat.max(), comp.max()) / len(dataset))


def _edge_observations(rng, n, p, bound):
    """Observations rounded to 0.1, with +-0.0 and +-bound entries mixed in."""
    ys = np.round(rng.uniform(-1.5 * bound, 1.5 * bound, size=(n, p)), 1)
    ys[rng.random((n, p)) < 0.1] = 0.0
    ys[rng.random((n, p)) < 0.1] = -0.0
    ys[rng.random((n, p)) < 0.1] = bound
    ys[rng.random((n, p)) < 0.1] = -bound
    return ys


def _baseline_cases():
    rng = np.random.default_rng(29)
    quad, lin, lin2 = BoxQuadraticProgram(), BoxLinearProgram(), BoxLinearProgram(x_dim=2)
    yield quad, generate_boxquadratic_observations(10_000, 6.0, RngSeed(7)), None
    yield quad, ObservationDataset(np.zeros((400, 0)), _edge_observations(rng, 400, 1, 1.0)), None
    quad2 = BoxQuadraticProgram(x_dim=2)
    yield quad2, ObservationDataset(np.zeros((400, 0)), _edge_observations(rng, 400, 2, 1.0)), None
    yield lin, generate_boxlinear_observations(1000, RngSeed(3)), [0.35]
    # theta + u == +-0 in some rows: a zero gradient of either sign
    us = np.round(rng.uniform(-2.0, 2.0, size=(400, 1)), 1)
    yield lin, ObservationDataset(us, _edge_observations(rng, 400, 1, 2.0)), [0.3]
    us = np.round(rng.uniform(-2.0, 2.0, size=(600, 2)), 1)
    yield lin2, ObservationDataset(us, _edge_observations(rng, 600, 2, 2.0)), [0.1, -0.3]
    yield lin2, ObservationDataset(us[:1], np.array([[-0.0, 2.0]])), [0.0, 0.0]


def test_baselines_bit_identical_to_per_observation_loops():
    for prog, ds, theta in _baseline_cases():
        th = np.zeros(prog.theta_dim) if theta is None else np.asarray(theta)
        via = via_estimate(prog, ds, theta).eps_hat
        kkt = kkt_estimate(prog, ds, theta).eps_hat
        assert _bits(np.array([via, kkt])).tolist() == _bits(
            np.array([_via_loop(prog, ds, th), _kkt_loop(prog, ds, th)])
        ).tolist(), (type(prog).__name__, prog.x_dim, len(ds))


def test_baselines_evaluate_the_program_once_per_dataset():
    calls = []

    class Counting(BoxLinearProgram):
        def objective_grad_x(self, x, u, theta):
            calls.append("grad")
            return super().objective_grad_x(x, u, theta)

        def constraints(self, x, u, theta):
            calls.append("constraints")
            return super().constraints(x, u, theta)

    ds = generate_boxlinear_observations(500, RngSeed(9))
    via_estimate(Counting(), ds)
    kkt_estimate(Counting(), ds)
    assert calls == ["grad", "grad", "constraints"]


# ------------------------------------------------------------------- MLE


def test_mle_objective_log2_oracle():
    p = BoxLinearProgram()
    ds = ObservationDataset(np.array([1.0]), np.array([1.5]))
    # S = [1, 2]; integral of the U(-1,1) density over S is 1/2; |S| = 1
    val = mle_objective(p, ds, 1.0, [0.0], UniformBoxNoise([-1.0], [1.0]))
    assert math.isclose(val, math.log(2.0), abs_tol=1e-12)


def test_mle_objective_infinite_when_unreachable():
    p = BoxLinearProgram()
    ds = ObservationDataset(np.array([1.0]), np.array([50.0]))
    val = mle_objective(p, ds, 1.0, [0.0], UniformBoxNoise([-1.0], [1.0]))
    assert val == math.inf


def test_mle_grid_matches_pointwise_objective():
    p = BoxLinearProgram()
    ds = generate_boxlinear_observations(30, RngSeed(6))
    prior = PriorRegion(eps_range=(0.4, 1.6), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-0.5], [0.5]), d_eps=0.3, d_theta=0.25)
    noise = UniformBoxNoise([-1.0], [1.0])
    res = mle_estimate(p, ds, prior, noise)
    eps_axis = prior.eps_axis()
    pts = prior.theta_points()
    for i in range(len(eps_axis)):
        for j in range(len(pts)):
            want = mle_objective(p, ds, float(eps_axis[i]), pts[j], noise)
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


def _two_endpoint_grids(prog, ds, prior, lam, noise):
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
        if noise is not None:
            ov = noise.integrate_shifted(ys[None, :], lo, hi)
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
    noise = UniformBoxNoise([w[0]], [w[1]]) if w[0] < w[1] else None
    want_abp, want_mle = _two_endpoint_grids(prog, ds, prior, 0.01, noise)
    got_abp = abp_estimate(prog, ds, prior, lam=0.01).grid_values
    assert np.array_equal(_bits(got_abp), _bits(want_abp))
    # the general 1-D branch gives the fast branches' bits too
    penalty = 0.01 * prior.eps_axis()[:, None]
    general = invopt._abp_interval_grid(prog, ds, prior) + penalty
    assert np.array_equal(_bits(general), _bits(want_abp))
    # points beyond -b + w_lo and b + w_hi, which no eps can reach
    far = ObservationDataset(us, ys + rng.choice([-3.0, 0.0, 3.0], size=n))
    want_far, _ = _two_endpoint_grids(prog, far, prior, 0.01, None)
    got_far = abp_estimate(prog, far, prior, lam=0.01).grid_values
    assert np.array_equal(_bits(got_far), _bits(want_far))
    general = invopt._abp_interval_grid(prog, far, prior) + penalty
    assert np.array_equal(_bits(general), _bits(want_far))
    if noise is None:
        return
    got_mle = mle_estimate(prog, ds, prior, noise).grid_values
    assert np.array_equal(_bits(got_mle), _bits(want_mle))
    general = invopt._mle_interval_grid(prog, ds, prior, noise)
    assert np.array_equal(_bits(general), _bits(want_mle))
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
    noise = UniformBoxNoise([w[0]], [w[1]])
    abp = abp_estimate(prog, far, prior, lam=0.01).grid_values
    mle = mle_estimate(prog, ds, prior, noise).grid_values
    eps_axis = prior.eps_axis()
    for i, j in [(0, 0), (0, 2), (3, 1), (4, 2), (8, 4)]:
        eps = float(eps_axis[i])
        want = abp_objective(prog, far, eps, pts[j], 0.01, prior.w_set)
        assert abs(abp[i, j] - want) <= 1e-12
        want = mle_objective(prog, ds, eps, pts[j], noise)
        assert mle[i, j] == want == math.inf or abs(mle[i, j] - want) <= 1e-12


def _first_eps_free_rows(prog, ds, prior):
    """Per theta column, the first row from which every sample's abp gap
    equals its eps -> inf floor, by _two_endpoint_interval."""
    us, ys = ds.us[:, 0], ds.ys[:, 0]
    w_lo, w_hi = (float(v[0]) for v in bounds_of(prior.w_set))
    eps_col = np.append(prior.eps_axis(), np.inf)[:, None]
    firsts = []
    for th in prior.theta_points():
        lo, hi = _two_endpoint_interval(prog.bound, th[0] + us, eps_col)
        d = np.maximum.reduce([lo + w_lo - ys, ys - (hi + w_hi), np.zeros_like(lo)])
        at = (d[:-1] == d[-1]).all(axis=1)
        first = int((~at).sum())
        assert at[first:].all()  # once at the floor, a column stays there
        firsts.append(first)
    return np.array(firsts)


def _count_lower_rows(monkeypatch):
    """The row counts of the _boxlinear_lower calls made from here on."""
    rows = []
    lower = invopt._boxlinear_lower
    monkeypatch.setattr(invopt, "_boxlinear_lower",
                        lambda out, *a: rows.append(out.shape[0]) or lower(out, *a))
    return rows


@pytest.mark.parametrize(
    "seed, n, w, eps_lo, on_grid",
    [
        (11, 1, (-1.0, 1.0), 0.0, False),
        (12, 300, (-1.0, 1.0), 0.0, True),
        (13, 200, (0.25, 0.25), 0.0, True),  # zero-width W
        (14, 1000, (-1.3, 0.4), 0.1, False),
    ],
)
def test_abp_eps_free_tail_matches_two_endpoint_oracle_and_skips_its_rows(
    seed, n, w, eps_lo, on_grid, monkeypatch
):
    rng = np.random.default_rng(seed)
    prog = BoxLinearProgram()
    prior = PriorRegion(eps_range=(eps_lo, eps_lo + 20.0), w_set=interval(*w),
                        theta_box=Box([-1.0], [1.0]), d_eps=0.1, d_theta=0.125)
    pts = prior.theta_points()
    us = rng.uniform(-1.0, 1.0, size=n)
    if on_grid:  # c = theta + u == 0 exactly in some columns
        us[::2] = -pts[rng.integers(0, len(pts), size=len(us[::2])), 0]
    lo, hi = _two_endpoint_interval(prog.bound, us, rng.uniform(0.2, 3.0))
    ys = rng.uniform(lo, hi) + rng.uniform(w[0], w[1], size=n)
    # the far points lie beyond -b + w_lo and b + w_hi, which no eps can reach
    for ds in (ObservationDataset(us, ys),
               ObservationDataset(us, ys + rng.choice([-3.0, 0.0, 3.0], size=n))):
        want, _ = _two_endpoint_grids(prog, ds, prior, 0.01, None)
        firsts = _first_eps_free_rows(prog, ds, prior)
        rows = _count_lower_rows(monkeypatch)
        got = abp_estimate(prog, ds, prior, lam=0.01).grid_values
        monkeypatch.undo()
        assert np.array_equal(_bits(got), _bits(want))
        # one call per column, stopping at most two rows past the column's
        # last eps-dependent row
        n_eps, n_theta = want.shape
        assert len(rows) == n_theta
        assert (np.array(rows) <= firsts + 2).all()
        assert sum(rows) < n_eps * n_theta / 2


def test_abp_falls_back_to_the_full_column_when_its_check_row_is_eps_dependent(monkeypatch):
    # y + 1.5 lies off the float grid of M = fl(b - fl(eps/|c|)) near b, so
    # f(M) reaches its floor 65 steps of 2 ulps (5.6e-17) past the bound
    # (b - 1.5) - y, far past the check row
    prog = BoxLinearProgram()
    y = 0.4975
    reach = (prog.bound - 1.5) - y
    step = 2 * np.spacing(reach)
    prior = PriorRegion(eps_range=(reach - 2 * step, reach + 100 * step),
                        w_set=interval(-1.5, 1.0), theta_box=Box([0.0], [0.0]),
                        d_eps=step, d_theta=1.0)
    ds = ObservationDataset([1.0], [y])
    want, _ = _two_endpoint_grids(prog, ds, prior, 0.0, None)
    first = _first_eps_free_rows(prog, ds, prior)[0]
    assert 0 < first < len(want)  # eps-dependent rows, then floor rows
    rows = _count_lower_rows(monkeypatch)
    got = abp_estimate(prog, ds, prior, lam=0.0).grid_values
    assert np.array_equal(_bits(got), _bits(want))
    # the bound's rows, whose last is eps-dependent, then the rest of the column
    assert len(rows) == 2 and rows[0] <= first and sum(rows) == len(want)


def _full_block_mle_grid(prog, ds, prior, noise):
    """The 1-D box-linear likelihood grid with every row of every theta run
    through the (n_eps, n) buffers: the evaluation the infinite-prefix skip
    replaced."""
    eps_axis = prior.eps_axis()
    theta_points = prior.theta_points()
    values = np.empty((len(eps_axis), len(theta_points)))
    us, ys = ds.us[:, 0], ds.ys[:, 0]
    eps_col = eps_axis[:, None]
    b, lo_w, hi_w = prog.bound, float(noise.lower[0]), float(noise.upper[0])
    q_pos, q_neg = ys - hi_w, lo_w - ys
    p_pos, p_neg = np.minimum(b, ys - lo_w), -np.maximum(-b, ys - hi_w)
    ov = np.empty((len(eps_axis), len(ys)))
    terms = np.empty_like(ov)
    for j, th in enumerate(theta_points):
        c = th[0] + us
        neg = c < 0
        invopt._boxlinear_lower(ov, b, c, eps_col)
        np.subtract(b, ov, out=terms)
        np.maximum(ov, np.where(neg, q_neg, q_pos), out=ov)
        np.subtract(np.where(neg, p_neg, p_pos), ov, out=ov)
        np.maximum(ov, 0.0, out=ov)
        ov /= hi_w - lo_w
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(terms, out=terms)
            np.log(ov, out=ov)
            terms -= ov
        row = terms.mean(axis=1)
        values[:, j] = np.where(np.isnan(row), np.inf, row)
    return values


@pytest.mark.parametrize("n", [1, 100, 1000])
@pytest.mark.parametrize(
    "seed, w, eps_lo",
    [(0, (-1.0, 1.0), 0.0), (1, (-1.3, 0.4), 0.1), (2, (-0.2, 0.9), 0.05), (3, (-1.0, 1.0), 0.0)],
)
def test_mle_infinite_prefix_skip_matches_full_block_bit_for_bit(seed, w, eps_lo, n, monkeypatch):
    rng = np.random.default_rng(100 + seed)
    prog = BoxLinearProgram()
    prior = PriorRegion(eps_range=(eps_lo, eps_lo + 4.0), w_set=interval(*w),
                        theta_box=Box([-1.0], [1.0]), d_eps=0.05, d_theta=0.125)
    pts = prior.theta_points()
    us = rng.uniform(-2.0, 2.0, size=n)
    us[::3] = -pts[rng.integers(0, len(pts), size=len(us[::3])), 0]  # c = theta + u == 0
    lo, hi = _two_endpoint_interval(prog.bound, us, rng.uniform(0.2, 3.0))
    ys = rng.uniform(lo, hi) + rng.uniform(w[0], w[1], size=n)
    if seed == 3:  # for theta < 0.9 reachable only where eps >= 3.95 |c|
        us[-1], ys[-1] = -0.9, prog.bound + w[1] - 0.05
    ds = ObservationDataset(us, ys)
    noise = UniformBoxNoise([w[0]], [w[1]])
    want = _full_block_mle_grid(prog, ds, prior, noise)
    rows = _count_lower_rows(monkeypatch)
    got = mle_estimate(prog, ds, prior, noise).grid_values
    assert np.array_equal(_bits(got), _bits(want))
    inf = np.isinf(want)
    # the +inf prefix is not evaluated: each theta costs its finite rows
    # and at most one row more
    n_eps, n_theta = want.shape
    prefix = np.argmin(inf, axis=0) + n_eps * inf.all(axis=0)
    assert sum(rows) <= (n_eps - prefix).sum() + n_theta
    assert inf[0].any() and not inf[-1].all()  # a skipped prefix and evaluated rows
    if seed == 3:
        assert inf.all(axis=0).any()  # theta columns with no finite row at all


def test_mle_evaluates_the_row_just_past_a_samples_zero_overlap_bound():
    # one sample, c = 2, whose zero-overlap bound (b - p)|c| lies 1e-7
    # (relative) below the eps row 3.0: that row is finite and is evaluated
    prog = BoxLinearProgram()
    prior = PriorRegion(eps_range=(0.0, 4.0), w_set=interval(-1.0, 1.0),
                        theta_box=Box([1.0], [1.0]), d_eps=0.05, d_theta=0.125)
    p = prog.bound - 1.5 * (1 - 1e-7)  # y - L with y = p - 1
    ds = ObservationDataset([1.0], [p - 1.0])
    noise = UniformBoxNoise([-1.0], [1.0])
    want = _full_block_mle_grid(prog, ds, prior, noise)
    got = mle_estimate(prog, ds, prior, noise).grid_values
    assert np.array_equal(_bits(got), _bits(want))
    assert np.isinf(want[:60]).all() and np.isfinite(want[60:]).all()


def test_mle_all_infinite_grid_still_raises():
    prog = BoxLinearProgram()
    prior = PriorRegion(eps_range=(0.0, 2.0), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-0.5], [0.5]), d_eps=0.1, d_theta=0.25)
    ds = generate_boxlinear_observations(50, RngSeed(3))
    far = ObservationDataset(ds.us, ds.ys + 10.0)
    noise = UniformBoxNoise([-1.0], [1.0])
    assert np.isposinf(_full_block_mle_grid(prog, far, prior, noise)).all()
    with pytest.raises(ValueError, match="no grid point produced a finite objective"):
        mle_estimate(prog, far, prior, noise)


def test_eps_argmin_set_rejects_nan_eps():
    for prog in (BoxLinearProgram(), BoxQuadraticProgram()):
        with pytest.raises(ValueError):
            eps_argmin_set(prog, [0.5], math.nan, [0.0])


def test_mle_recovers_truth_region_on_demo_data():
    p = BoxLinearProgram()
    ds = generate_boxlinear_observations(800, RngSeed(7))
    prior = PriorRegion(eps_range=(0.5, 2.0), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-0.5], [0.5]), d_eps=0.05, d_theta=0.05)
    res = mle_estimate(p, ds, prior, UniformBoxNoise([-1.0], [1.0]))
    assert abs(res.eps_hat - 1.0) <= 0.2
    assert abs(res.theta_hat[0]) <= 0.2


def _truncated_gaussian(sigma, halfwidth):
    """N(0, sigma^2) conditioned on [-halfwidth, halfwidth], as the 1-D law."""
    return TruncatedGaussianNoise([[sigma**2]], halfwidth / sigma)


def _truncated_gaussian_pdf(sigma, halfwidth):
    """The density of w that law's integrate_shifted integrates."""
    from scipy import stats

    mass = stats.norm.cdf(halfwidth / sigma) - stats.norm.cdf(-halfwidth / sigma)
    scale = sigma * math.sqrt(2 * math.pi) * mass
    return lambda w: math.exp(-0.5 * (w / sigma) ** 2) / scale if abs(w) <= halfwidth else 0.0


def test_uniform_law_integrates_as_the_closed_form_it_replaced():
    # max(min(hi, y - L) - max(lo, y - U), 0) / (U - L), bit for bit, with y
    # a row broadcast against (n_eps, n) endpoints
    rng = np.random.default_rng(31)
    for lower, upper in [(-1.0, 1.0), (-1.3, 0.4), (0.25, 0.2500001), (-0.2, 0.9)]:
        y = rng.uniform(-3.0, 3.0, size=40)
        lo = rng.uniform(-2.0, 1.0, size=(25, 40))
        hi = lo + rng.uniform(0.0, 2.0, size=(25, 1))
        hi[0] = lo[0]  # zero-width cells
        a = np.maximum(lo, y - upper)
        b = np.minimum(hi, y - lower)
        want = np.maximum(b - a, 0.0) / (upper - lower)
        got = UniformBoxNoise([lower], [upper]).integrate_shifted(y, lo, hi)
        assert got.shape == (25, 40) and np.array_equal(_bits(got), _bits(want))
        assert (got == 0).any() and (got > 0).any()


def test_likelihood_refuses_a_law_with_no_1d_interval_probability():
    laws = [UniformBoxNoise([-1.0, -1.0], [1.0, 1.0]), UniformBoxNoise([0.5], [0.5]),
            TruncatedGaussianNoise(np.eye(2), 2.0), TruncatedGaussianNoise([[0.0]], 2.0),
            TriangularNoise(1.0), UniformBallNoise(1.0, 1)]
    refusal = "likelihood needs a 1-D|likelihood takes a UniformBoxNoise or TruncatedGaussianNoise"
    linear = generate_boxlinear_observations(5, RngSeed(4))
    quadratic = generate_boxquadratic_observations(5, 1.0, RngSeed(4))
    prior = PriorRegion(eps_range=(0.5, 1.5), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-0.5], [0.5]), d_eps=0.5, d_theta=0.5)
    for noise in laws:
        with pytest.raises(ValueError, match=refusal):
            noise.integrate_shifted(0.0, -1.0, 1.0)
        for prog, ds in ((BoxLinearProgram(), linear), (BoxQuadraticProgram(), quadratic)):
            with pytest.raises(ValueError, match=refusal):
                mle_objective(prog, ds, 1.0, prog.theta_dim * [0.0], noise)
            with pytest.raises(ValueError, match=refusal):
                mle_estimate(prog, ds, prior, noise)


def test_truncated_gaussian_density_normalized():
    d = _truncated_gaussian(1.0, 2.0)
    total = d.integrate_shifted(0.0, -5.0, 5.0)  # integral over full support
    assert abs(total - 1.0) < 1e-9
    assert d.integrate_shifted(0.0, -3.0, -2.5) == 0.0  # w in [2.5, 3]: past the support
    assert d.integrate_shifted(0.0, -0.1, 0.1) > 0.0


def test_truncated_gaussian_density_keeps_scipy_stats_mass():
    # the half support w in [0, halfwidth] holds (Phi(r) - 1/2) / mass for
    # r = halfwidth / sigma: the quotient's bits with the scipy.stats mass
    from scipy import stats
    from scipy.special import ndtr

    rng = np.random.default_rng(17)
    for sigma, halfwidth in rng.uniform(0.05, 4.0, size=(25, 2)):
        d = _truncated_gaussian(sigma, halfwidth)
        r = halfwidth / sigma
        mass = stats.norm.cdf(r) - stats.norm.cdf(-r)
        assert d.integrate_shifted(0.0, -2.0 * halfwidth, 0.0) == (ndtr(r) - 0.5) / mass


def test_truncated_gaussian_likelihood_matches_quad():
    # the closed form against adaptive quadrature of the density over
    # w = y - x in [y - hi, y - lo], with intervals reaching 8 sigma into
    # either tail; an empty overlap or a zero-width interval is exactly 0
    from scipy import integrate

    rng = np.random.default_rng(23)
    cases = []
    for sigma in rng.uniform(0.05, 4.0, size=100).tolist():
        halfwidth = sigma * float(rng.uniform(0.5, 8.0))
        y = float(rng.uniform(-3.0, 3.0)) * sigma
        lo = y - halfwidth * float(rng.uniform(0.0, 1.0))  # y - lo in [0, hw]: a real overlap
        hi = lo + halfwidth * float(rng.uniform(0.05, 2.0))
        cases.append((sigma, halfwidth, y, lo, hi))
    for side in (1.0, -1.0):  # slivers of the tails, out to 8 sigma
        for sigma in (0.3, 1.0, 2.5):
            for a, b in ((7.0, 8.0), (7.9, 8.0), (5.0, 8.0), (2.0, 3.0), (0.5, 8.0)):
                w_lo, w_hi = sorted((side * a * sigma, side * b * sigma))
                y = 0.25 * sigma
                cases.append((sigma, 8.0 * sigma, y, y - w_hi, y - w_lo))
    for sigma, halfwidth, y, lo, hi in cases:
        d = _truncated_gaussian(sigma, halfwidth)
        a, b = max(y - hi, -halfwidth), min(y - lo, halfwidth)
        want, _ = integrate.quad(_truncated_gaussian_pdf(sigma, halfwidth), a, b, epsabs=0.0,
                                 epsrel=1e-13, limit=200)
        got = float(d.integrate_shifted(y, lo, hi))
        assert abs(got - want) <= 1e-12 * want, (sigma, halfwidth, y, lo, hi, got, want)
    d = _truncated_gaussian(1.3, 2.1)
    # disjoint from either end of the support, touching it at a point, zero width
    y, lo, hi = np.array([[0.0, 5.0, 6.0], [0.0, -6.0, -5.0], [0.0, 2.1, 3.0], [5.0, -1.0, 2.9],
                          [0.4, 0.3, 0.3]]).T
    assert d.integrate_shifted(y, lo, hi).tolist() == [0.0] * 5
    # y broadcasts against (n_eps, n) endpoints as the row of each cell
    y = rng.uniform(-2.0, 2.0, size=7)
    lo = rng.uniform(-1.0, 0.0, size=(3, 7))
    hi = lo + rng.uniform(0.0, 1.0, size=(3, 1))
    grid = d.integrate_shifted(y, lo, hi)
    assert grid.shape == (3, 7)
    cells = [float(d.integrate_shifted(y[j], lo[i, j], hi[i, j])) for i in range(3) for j in range(7)]
    assert np.array_equal(grid.ravel(), cells)


def test_mle_with_truncated_gaussian_noise_runs():
    p = BoxQuadraticProgram()
    ds = generate_boxquadratic_observations(50, 1.0, RngSeed(8))
    prior = PriorRegion(eps_range=(0.2, 1.0), w_set=interval(-2.0, 2.0), d_eps=0.2)
    res = mle_estimate(p, ds, prior, _truncated_gaussian(1.0, 2.0))
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
        assert val <= p.value([u], [th]) + 1e-12


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


def test_presmooth_and_abp_share_the_lam_check():
    ds = generate_boxlinear_observations(50, RngSeed(9))
    prior = PriorRegion(eps_range=(0.1, 2.0), w_set=interval(-1.0, 1.0),
                        theta_box=Box([-1.0], [1.0]), d_eps=0.1, d_theta=0.25)
    for lam in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lam"):
            presmooth_estimate(BoxLinearProgram(), ds, 0.2, prior, RngSeed(10), lam=lam)
        with pytest.raises(ValueError, match="lam"):
            abp_estimate(BoxLinearProgram(), ds, prior, lam=lam)
    for estimate in (lambda lam: presmooth_estimate(BoxLinearProgram(), ds, 0.2, prior,
                                                    RngSeed(10), lam=lam),
                     lambda lam: abp_estimate(BoxLinearProgram(), ds, prior, lam=lam)):
        default, explicit = estimate(None), estimate(1.0 / 50)
        assert default.lam == explicit.lam == 1.0 / 50
        assert np.array_equal(default.grid_values, explicit.grid_values)
        assert estimate(0.0).lam == 0.0


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
    with pytest.raises(ValueError, match=r"line 1: expected keys u and y, got \['u'\]"):
        read_observations_jsonl(path)
    for line in ("5", "[1]", '"x"', "null"):  # a line that is not a JSON object
        path.write_text(f'{{"u": [0.0], "y": [1.0]}}\n{line}\n')
        with pytest.raises(ValueError, match=rf"line 2: expected keys u and y, got {re.escape(line)}$"):
            read_observations_jsonl(path)
    # JSON true and false are not numbers, at any depth
    for line, field in (('{"u": [true], "y": [1.0]}', "u"), ('{"u": [0.0], "y": false}', "y"),
                        ('{"u": [[0.0, true]], "y": [1.0]}', "u")):
        path.write_text(f'{{"u": [0.0], "y": [1.0]}}\n{line}\n')
        with pytest.raises(ValueError, match=f"line 2: {field} must hold numbers, not bools"):
            read_observations_jsonl(path)
    path.write_text('\n')
    with pytest.raises(ValueError, match="nonempty"):
        read_observations_jsonl(path)


@pytest.mark.parametrize(
    "ds",
    [
        generate_boxlinear_observations(60, RngSeed(5)),
        generate_boxquadratic_observations(40, 3.0, RngSeed(6)),  # u has no columns
        ObservationDataset(np.array([[-0.0, 1e300], [5e-324, 1 / 3]]), np.array([1e16, -2.5])),
    ],
)
def test_observation_lines_are_the_json_encoding(ds, tmp_path):
    path = tmp_path / "obs.jsonl"
    write_observations_jsonl(ds, path)
    want = "".join(
        json.dumps({"u": [float(v) for v in u], "y": [float(v) for v in y]},
                   separators=(", ", ": ")) + "\n"
        for u, y in zip(ds.us, ds.ys)
    )
    assert path.read_text() == want
    back = read_observations_jsonl(path)
    assert back.us.tobytes() == ds.us.tobytes() and back.ys.tobytes() == ds.ys.tobytes()


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


@pytest.mark.parametrize("prog, noise", [
    (BoxQuadraticProgram(), UniformBoxNoise([-1.0], [1.0])),
    (BoxQuadraticProgram(), _truncated_gaussian(0.6, 1.0)),
    (BoxLinearProgram(), _truncated_gaussian(0.6, 1.0)),
], ids=["quad-uniform", "quad-gaussian", "lin-gaussian"])
def test_mle_quadratic_grid_matches_per_cell_objective(prog, noise):
    # The array pass takes the logs of the same widths and overlaps as
    # mle_objective but sums them in another order: equal within 1e-12
    # relative.  Small eps leaves samples with zero likelihood (|y| > 1 +
    # sqrt(eps) for the quadratic) and eps = 0 a zero-width S: +inf in both,
    # cell for cell.
    if isinstance(prog, BoxQuadraticProgram):
        ds = generate_boxquadratic_observations(25, 1.0, RngSeed(6))
        prior = PriorRegion(eps_range=(0.0, 1.5), w_set=interval(-1.0, 1.0), d_eps=0.05)
    else:
        ds = generate_boxlinear_observations(25, RngSeed(6))
        prior = PriorRegion(eps_range=(0.0, 2.0), w_set=interval(-1.0, 1.0),
                            theta_box=Box([-0.5], [0.5]), d_eps=0.1, d_theta=0.25)
    got = mle_estimate(prog, ds, prior, noise).grid_values
    want = np.array([[mle_objective(prog, ds, float(e), th, noise) for th in prior.theta_points()]
                     for e in prior.eps_axis()])
    inf = np.isinf(want)
    assert inf[0].all() and inf.sum() > inf.shape[1] and not inf[-1].all()
    assert np.array_equal(np.isinf(got), inf)
    np.testing.assert_allclose(got[~inf], want[~inf], rtol=1e-12, atol=0.0)


def _parent_quadratic_abp(prog, ds, prior):
    """The box-quadratic abp fit term as a branch of its own computed it."""
    w_lo, w_hi = (float(v[0]) for v in bounds_of(prior.w_set))
    ys = ds.ys[:, 0]
    m = np.minimum(prog.bound, np.sqrt(prior.eps_axis()[:, None]))
    d = np.maximum(np.maximum((-m + w_lo) - ys, ys - (m + w_hi)), 0.0)
    return (d * d).mean(axis=1)[:, None]


def _parent_quadratic_mle(prog, ds, prior, noise):
    """The box-quadratic likelihood grid as a branch of its own computed it."""
    ys = ds.ys[:, 0]
    m = np.minimum(prog.bound, np.sqrt(prior.eps_axis()))[:, None]
    ov = noise.integrate_shifted(ys[None, :], -m, m)
    s_width = 2 * m * np.ones_like(ov)
    bad = (ov <= 0) | (s_width <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(bad, np.inf, np.log(s_width) - np.log(ov))
    return terms.mean(axis=1)[:, None]


def test_general_branch_keeps_the_quadratic_bits_within_its_peak_memory():
    # 199 x 20,000 cells: the one array pass per theta gives the bits of the
    # box-quadratic branches it replaced, at no higher a tracemalloc peak
    import tracemalloc

    prog, noise = BoxQuadraticProgram(), UniformBoxNoise([-1.0], [1.0])
    ds = generate_boxquadratic_observations(20_000, 1.0, RngSeed(9))
    prior = PriorRegion(eps_range=(0.01, 1.99), w_set=interval(-1.0, 1.0), d_eps=0.01)
    assert len(prior.eps_axis()) == 199
    for new, old in [(lambda: invopt._abp_interval_grid(prog, ds, prior),
                      lambda: _parent_quadratic_abp(prog, ds, prior)),
                     (lambda: invopt._mle_interval_grid(prog, ds, prior, noise),
                      lambda: _parent_quadratic_mle(prog, ds, prior, noise))]:
        peaks, grids = [], []
        for fn in (new, old):
            tracemalloc.start()
            grids.append(fn())
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert np.array_equal(_bits(grids[0]), _bits(grids[1]))
        assert peaks[0] <= peaks[1], peaks


@pytest.mark.parametrize("prog", [BoxLinearProgram(x_dim=2), BoxLinearProgram(x_dim=3),
                                  BoxQuadraticProgram(x_dim=2)], ids=["lin2", "lin3", "quad2"])
def test_abp_per_cell_grid_on_multivariate_built_ins_matches_the_joint_qp(prog):
    d = prog.x_dim
    rng = np.random.default_rng(30 + d)
    n = 2
    us = rng.uniform(-2.0, 2.0, size=(n, prog.u_dim))
    ys = rng.normal(size=(n, d))
    ys[:, 0] = [3.5, -3.2]  # every sample outside S + W
    ds = ObservationDataset(us, ys)
    w = Box(np.full(d, -0.3), np.full(d, 0.3))
    linear = isinstance(prog, BoxLinearProgram)
    theta_box = Box(np.full(d, -0.2), np.full(d, 0.2)) if linear else None
    prior = PriorRegion(eps_range=(0.0, 1.0), w_set=w, theta_box=theta_box,
                        d_eps=0.5, d_theta=0.4)
    res = abp_estimate(prog, ds, prior, lam=0.1)
    eps_axis, pts = prior.eps_axis(), prior.theta_points()
    assert res.grid_values.shape == (3, len(pts)) == (3, 2**d if linear else 1)
    for i, eps in enumerate(eps_axis):
        for j, th in enumerate(pts):
            total = sum(_reference_sq_dist(prog, y, th + u, eps, w) for u, y in zip(us, ys))
            want = total / n + 0.1 * eps
            assert abs(res.grid_values[i, j] - want) <= 1e-9 * want, (i, j)
