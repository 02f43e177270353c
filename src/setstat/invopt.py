"""Inverse optimization over near-optimal solution sets.

Observations y_i = x_i + w_i are noisy selections from the epsilon-argmin set
S(u_i, eps, theta) of a parametric convex program.  The primary estimator
(tagged "abp") minimizes the mean squared distance of observations to the
noise-inflated solution set plus a lambda * eps penalty over an (eps, theta)
grid.  Baselines that fit first-order conditions on the raw observations
("kkt", "via"), a likelihood variant ("mle"), a regularized dual function
with exact gradients, and a presmoothing pipeline round out the toolkit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Box,
    ConvexSet,
    SolverLimitError,
    VertexPolytope,
    _halfplane_vertices,
    bounds_of,
    contains,
    interval,
    minkowski_sum,
    project_point,
    sq_dist_point,
)
from .randomsets import RngSeed

__all__ = [
    "SolverLimitError",
    "ParametricProgram",
    "BoxLinearProgram",
    "BoxQuadraticProgram",
    "MembershipSet",
    "ObservationDataset",
    "PriorRegion",
    "theta_mesh",
    "EstimationResult",
    "value_function",
    "eps_argmin_set",
    "sq_dist_to_inflated_set",
    "abp_objective",
    "abp_estimate",
    "via_estimate",
    "kkt_estimate",
    "UniformNoiseDensity",
    "TruncatedGaussianNoiseDensity",
    "mle_objective",
    "mle_estimate",
    "rdf_eval",
    "presmooth_estimate",
    "generate_boxlinear_observations",
    "generate_boxquadratic_observations",
    "noise_support_box",
    "result_to_dict",
    "write_observations_jsonl",
    "read_observations_jsonl",
]


class ParametricProgram:
    """Convex program min_x { f(x, u, theta) : g(x, u, theta) <= 0 }.

    Subclasses provide the objective, componentwise constraints, their
    x-gradients, and a compact outer box that contains every feasible set in
    its interior.  f and g must be convex in x for fixed (u, theta), and
    every (u, theta) must admit a strictly feasible point (caller contract).
    """

    x_dim: int
    u_dim: int
    theta_dim: int
    n_constraints: int
    outer_box: Box

    def objective(self, x, u, theta) -> float:
        raise NotImplementedError

    def objective_grad_x(self, x, u, theta) -> np.ndarray:
        raise NotImplementedError

    def constraints(self, x, u, theta) -> np.ndarray:
        raise NotImplementedError

    def constraint_grads_x(self, x, u, theta) -> np.ndarray:
        raise NotImplementedError


class BoxLinearProgram(ParametricProgram):
    """f = -(theta + u)' x over the box |x_j| <= bound.

    Constraints are stacked as [x - bound; -x - bound].  The value function
    and epsilon-argmin sets are analytic.
    """

    def __init__(self, bound: float = 2.0, x_dim: int = 1, outer_bound: float = 3.0):
        if bound <= 0 or outer_bound <= bound:
            raise ValueError("need 0 < bound < outer_bound")
        self.bound = float(bound)
        self.x_dim = int(x_dim)
        self.u_dim = self.x_dim
        self.theta_dim = self.x_dim
        self.n_constraints = 2 * self.x_dim
        self.outer_box = Box(
            np.full(self.x_dim, -outer_bound), np.full(self.x_dim, outer_bound)
        )

    def objective(self, x, u, theta):
        c = np.asarray(theta, dtype=float) + np.asarray(u, dtype=float)
        return float(-(c @ np.asarray(x, dtype=float)))

    def objective_grad_x(self, x, u, theta):
        return -(np.asarray(theta, dtype=float) + np.asarray(u, dtype=float))

    def constraints(self, x, u, theta):
        x = np.asarray(x, dtype=float)
        return np.concatenate([x - self.bound, -x - self.bound])

    def constraint_grads_x(self, x, u, theta):
        eye = np.eye(self.x_dim)
        return np.vstack([eye, -eye])

    def value(self, u, theta) -> float:
        c = np.asarray(theta, dtype=float) + np.asarray(u, dtype=float)
        return float(-self.bound * np.abs(c).sum())


class BoxQuadraticProgram(ParametricProgram):
    """f = |x|^2 over the box |x_j| <= bound; no u or theta dependence."""

    def __init__(self, bound: float = 1.0, x_dim: int = 1, outer_bound: float = 2.0):
        if bound <= 0 or outer_bound <= bound:
            raise ValueError("need 0 < bound < outer_bound")
        self.bound = float(bound)
        self.x_dim = int(x_dim)
        self.u_dim = 0
        self.theta_dim = 0
        self.n_constraints = 2 * self.x_dim
        self.outer_box = Box(
            np.full(self.x_dim, -outer_bound), np.full(self.x_dim, outer_bound)
        )

    def objective(self, x, u, theta):
        x = np.asarray(x, dtype=float)
        return float(x @ x)

    def objective_grad_x(self, x, u, theta):
        return 2.0 * np.asarray(x, dtype=float)

    def constraints(self, x, u, theta):
        x = np.asarray(x, dtype=float)
        return np.concatenate([x - self.bound, -x - self.bound])

    def constraint_grads_x(self, x, u, theta):
        eye = np.eye(self.x_dim)
        return np.vstack([eye, -eye])

    def value(self, u, theta) -> float:
        return 0.0


class MembershipSet:
    """Solution set represented by a membership predicate plus an anchor point.

    Used for programs without an analytic set representation; the anchor is a
    feasible minimizer used by projection routines.
    """

    def __init__(self, dim, member, anchor):
        self.dim = int(dim)
        self.member = member
        self.anchor = np.asarray(anchor, dtype=float)

    def contains(self, x) -> bool:
        return bool(self.member(np.asarray(x, dtype=float)))


def value_function(prog: ParametricProgram, u, theta, tol: float = 1e-8,
                   max_iter: int = 100_000) -> float:
    """Optimal value V(u, theta); analytic for built-ins.

    The generic path solves the smooth constrained program numerically and
    raises SolverLimitError when the solver reports failure.
    """
    if hasattr(prog, "value"):
        return prog.value(u, theta)
    return float(_solve_generic(prog, u, theta, tol, max_iter).fun)


def _solve_generic(prog, u, theta, tol, max_iter):
    from scipy.optimize import minimize

    x0 = 0.5 * (prog.outer_box.lower + prog.outer_box.upper)
    res = minimize(
        lambda x: prog.objective(x, u, theta),
        x0,
        jac=lambda x: prog.objective_grad_x(x, u, theta),
        bounds=list(zip(prog.outer_box.lower, prog.outer_box.upper)),
        constraints=[
            {
                "type": "ineq",
                "fun": lambda x: -prog.constraints(x, u, theta),
                "jac": lambda x: -prog.constraint_grads_x(x, u, theta),
            }
        ],
        method="SLSQP",
        options={"maxiter": int(min(max_iter, 1000)), "ftol": tol},
    )
    if not res.success:
        raise SolverLimitError(f"generic program solve failed: {res.message}")
    return res


def eps_argmin_set(prog: ParametricProgram, u, eps: float, theta):
    """Near-optimal solution set {x : f(x,u,theta) <= V(u,theta) + eps, g <= 0}.

    Returns a ConvexSet for the built-in programs in one or two dimensions
    and a MembershipSet otherwise.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if isinstance(prog, BoxLinearProgram) and prog.x_dim == 1:
        # Python floats round as the float64 arrays of _boxlinear_lower do
        c = float(np.ravel(theta)[0]) + float(np.ravel(u)[0])
        b, eps = prog.bound, float(eps)
        if c > 0:
            return interval(max(-b, b - eps / c), b)
        if c < 0:
            return interval(-b, min(b, -b + eps / -c))
        return interval(-b, b)
    if isinstance(prog, BoxLinearProgram) and prog.x_dim == 2:
        c = np.asarray(theta, dtype=float) + np.asarray(u, dtype=float)
        b = prog.bound
        if np.all(c == 0):
            return VertexPolytope([[-b, -b], [b, -b], [b, b], [-b, b]])
        # the box facets and -c'x <= V + eps; the minimizing corner is inside
        a = np.vstack([np.eye(2), -np.eye(2), -c])
        rhs = np.array([b, b, b, b, prog.value(u, theta) + eps])
        return VertexPolytope(_halfplane_vertices(a, rhs, 1e-12 * (1.0 + np.max(np.abs(rhs)))))
    if isinstance(prog, BoxQuadraticProgram) and prog.x_dim == 1:
        m = min(prog.bound, math.sqrt(eps))
        return interval(-m, m)
    v = value_function(prog, u, theta)
    anchor = _argmin_point(prog, u, theta)

    def member(x, _v=v, _u=u, _t=theta, _e=eps):
        feas = np.all(prog.constraints(x, _u, _t) <= 1e-9)
        return feas and prog.objective(x, _u, _t) <= _v + _e + 1e-9

    return MembershipSet(prog.x_dim, member, anchor)


def _argmin_point(prog, u, theta):
    if isinstance(prog, BoxLinearProgram):
        c = np.asarray(theta, dtype=float) + np.asarray(u, dtype=float)
        return np.where(c >= 0, prog.bound, -prog.bound).astype(float)
    if isinstance(prog, BoxQuadraticProgram):
        return np.zeros(prog.x_dim)
    return np.asarray(_solve_generic(prog, u, theta, 1e-8, 100_000).x, dtype=float)


def _boxlinear_lower(out, bound, c, eps):
    """Fill out with M = max(-b, b - eps/|c|), or -b where c == 0; c and eps
    broadcast to the shape of out.

    M is the lower endpoint of the c > 0 eps-argmin interval [M, b].  IEEE
    round-to-nearest is sign-symmetric, so the c < 0 interval
    [-b, min(b, -b + eps/|c|)] is [-b, -M] bit for bit, and c == 0 gives the
    whole box [-b, b]: one block of M serves samples of either sign.
    """
    zero = c == 0
    np.divide(eps, np.abs(np.where(zero, 1.0, c)), out=out)
    np.subtract(bound, out, out=out)
    np.maximum(out, -bound, out=out)
    if zero.any():
        out[..., zero] = -bound
    return out


def sq_dist_to_inflated_set(prog, y, u, eps, theta, w_set: ConvexSet,
                            tol: float = 1e-8, max_iter: int = 100_000) -> float:
    """Squared distance d^2(y, S(u, eps, theta) + W).

    Exact via set arithmetic when the solution set has a ConvexSet
    representation; otherwise alternating projections between W and a
    bisection-based projection onto the membership set (approximate,
    tolerance recorded in the signature).
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s = eps_argmin_set(prog, u, eps, theta)
    if isinstance(s, ConvexSet):
        return sq_dist_point(y, minkowski_sum(s, w_set))
    x = s.anchor.copy()
    prev = math.inf
    for _ in range(max_iter):
        w, _ = project_point(y - x, w_set)
        z = y - w
        x = _project_membership(s, x, z, tol)
        gap = float((y - x - w) @ (y - x - w))
        if prev - gap < tol:
            return gap
        prev = gap
    raise SolverLimitError("alternating projection hit its iteration cap")


def _project_membership(s: MembershipSet, anchor, z, tol):
    """Point of [anchor, z] nearest z that stays in the membership set."""
    if s.contains(z):
        return np.asarray(z, dtype=float)
    lo_t, hi_t = 0.0, 1.0
    anchor = np.asarray(anchor, dtype=float)
    z = np.asarray(z, dtype=float)
    while hi_t - lo_t > tol:
        mid = 0.5 * (lo_t + hi_t)
        if s.contains(anchor + mid * (z - anchor)):
            lo_t = mid
        else:
            hi_t = mid
    return anchor + lo_t * (z - anchor)


# --- datasets and priors ----------------------------------------------------


class ObservationDataset:
    """Paired observations (u_i, y_i) of near-optimal noisy decisions."""

    def __init__(self, us, ys):
        us = np.asarray(us, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if us.ndim == 1:
            us = us[:, None]
        if ys.ndim == 1:
            ys = ys[:, None]
        if ys.shape[0] < 1 or us.shape[0] != ys.shape[0]:
            raise ValueError("need matching nonempty u and y arrays")
        self.us = us
        self.ys = ys

    def __len__(self):
        return self.ys.shape[0]

    @property
    def u_dim(self):
        return self.us.shape[1]

    @property
    def y_dim(self):
        return self.ys.shape[1]


def write_observations_jsonl(dataset: ObservationDataset, path) -> None:
    """One observation per line: {"u": [...], "y": [...]}."""
    with open(path, "w") as fh:
        for u, y in zip(dataset.us, dataset.ys):
            rec = {"u": [float(v) for v in u], "y": [float(v) for v in y]}
            fh.write(json.dumps(rec, separators=(", ", ": ")) + "\n")


def read_observations_jsonl(path) -> ObservationDataset:
    us, ys = [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if set(rec) != {"u", "y"}:
                raise ValueError(
                    f"line {line_no}: expected keys u and y, got {sorted(rec)}"
                )
            us.append(rec["u"])
            ys.append(rec["y"])
    return ObservationDataset(np.asarray(us), np.asarray(ys))


@dataclass(frozen=True)
class PriorRegion:
    """Search region: eps interval, theta box (None when theta-free), noise
    support W, and grid steps."""

    eps_range: tuple
    w_set: ConvexSet
    theta_box: Box | None = None
    d_eps: float = 0.05
    d_theta: float = 0.05

    def __post_init__(self):
        lo, hi = self.eps_range
        if not 0 <= lo <= hi:
            raise ValueError("eps_range must satisfy 0 <= lo <= hi")
        if self.d_eps <= 0 or self.d_theta <= 0:
            raise ValueError("grid steps must be positive")

    def eps_axis(self) -> np.ndarray:
        lo, hi = self.eps_range
        count = int(round((hi - lo) / self.d_eps)) + 1
        return lo + self.d_eps * np.arange(count)

    def theta_axes(self) -> list[np.ndarray]:
        if self.theta_box is None:
            return []
        axes = []
        for lo, hi in zip(self.theta_box.lower, self.theta_box.upper):
            count = int(round((hi - lo) / self.d_theta)) + 1
            axes.append(lo + self.d_theta * np.arange(count))
        return axes

    def theta_points(self) -> np.ndarray:
        """Cartesian product of the theta axes, shape (count, p)."""
        return theta_mesh(self.theta_axes())


def theta_mesh(axes) -> np.ndarray:
    """Cartesian product of theta axes in C order, shape (count, p); one
    empty point, shape (1, 0), when there are no axes."""
    if not axes:
        return np.zeros((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class EstimationResult:
    """Grid-search outcome; grid fields are None for closed-form baselines."""

    estimator: str
    eps_hat: float
    theta_hat: np.ndarray
    objective: float
    lam: float | None = None
    eps_axis: np.ndarray | None = None
    theta_axes: list | None = None
    grid_values: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


def _grid_argmin(eps_axis, theta_points, values):
    """First flat minimum: smallest eps, then lexicographically smallest theta."""
    flat = np.asarray(values).reshape(len(eps_axis), len(theta_points))
    if not np.isfinite(flat.min()):
        raise ValueError("no grid point produced a finite objective")
    idx = int(np.argmin(flat))
    i, j = divmod(idx, len(theta_points))
    return float(eps_axis[i]), theta_points[j].copy(), float(flat[i, j])


def abp_objective(prog, dataset: ObservationDataset, eps, theta, lam,
                  w_set: ConvexSet) -> float:
    """(1/n) sum_i d^2(y_i, S(u_i, eps, theta) + W) + lam * eps."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    total = 0.0
    for u, y in zip(dataset.us, dataset.ys):
        total += sq_dist_to_inflated_set(prog, y, u, eps, theta, w_set)
    return total / len(dataset) + lam * eps


def _interval_w(w_set: ConvexSet) -> tuple[float, float]:
    if w_set.dim != 1:
        raise ValueError("fast path expects a 1-D noise support")
    lo, hi = bounds_of(w_set)
    return float(lo[0]), float(hi[0])


def abp_estimate(prog, dataset: ObservationDataset, prior: PriorRegion,
                 lam: float | None = None) -> EstimationResult:
    """Full-grid minimization of the abp objective.

    lam defaults to 1/n.  Ties break to the smallest eps, then the
    lexicographically smallest theta (C-order first minimum).  The grid
    table is kept in the result.  1-D built-ins use vectorized closed-form
    distances; other programs fall back to per-point evaluation.

    The 1-D box-linear grid fills one (n_eps, n) buffer in place per theta.
    With S = [lo, hi] and W = [w_lo, w_hi], the distance is
    max(lo + w_lo - y, y - (hi + w_hi), 0).  A sample with c = theta + u >= 0
    has lo = M and hi = b; one with c < 0 has lo = -b and hi = -M, where
    M = max(-b, b - eps/|c|) (-b when c == 0).  Round-to-nearest is
    sign-symmetric, so y - (-M + w_hi) == (M - w_hi) - (-y) exactly, and both
    signs take the form max((M + a) - y', k) with per-sample a, y' and an
    eps-free k.  The grid is bit-identical to evaluating both interval
    endpoints for every cell.
    """
    if lam is None:
        lam = 1.0 / len(dataset)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    eps_axis = prior.eps_axis()
    theta_points = prior.theta_points()
    values = np.empty((len(eps_axis), len(theta_points)))
    eps_col = eps_axis[:, None]
    if isinstance(prog, BoxLinearProgram) and prog.x_dim == 1:
        w_lo, w_hi = _interval_w(prior.w_set)
        us, ys = dataset.us[:, 0], dataset.ys[:, 0]
        b = prog.bound
        below = np.maximum((-b + w_lo) - ys, 0.0)  # the c < 0 gap below -b + W
        above = np.maximum(ys - (b + w_hi), 0.0)  # the c >= 0 gap above b + W
        d = np.empty((len(eps_axis), len(ys)))  # per call: replicates run in threads
        for j, th in enumerate(theta_points):
            c = th[0] + us
            neg = c < 0
            _boxlinear_lower(d, b, c, eps_col)
            d += np.where(neg, -w_hi, w_lo)
            d -= np.where(neg, -ys, ys)
            np.maximum(d, np.where(neg, below, above), out=d)
            d *= d
            values[:, j] = d.mean(axis=1)
    elif isinstance(prog, BoxQuadraticProgram) and prog.x_dim == 1:
        w_lo, w_hi = _interval_w(prior.w_set)
        ys = dataset.ys[:, 0]
        m = np.minimum(prog.bound, np.sqrt(eps_col))  # (n_eps, 1)
        d = np.maximum(np.maximum((-m + w_lo) - ys, ys - (m + w_hi)), 0.0)
        values[:, :] = (d * d).mean(axis=1)[:, None]
    else:
        for i, eps in enumerate(eps_axis):
            for j, th in enumerate(theta_points):
                values[i, j] = abp_objective(prog, dataset, float(eps), th, 0.0,
                                             prior.w_set)
    values += lam * eps_col
    eps_hat, theta_hat, objective = _grid_argmin(eps_axis, theta_points, values)
    return EstimationResult(
        estimator="abp",
        eps_hat=eps_hat,
        theta_hat=theta_hat,
        objective=objective,
        lam=float(lam),
        eps_axis=eps_axis,
        theta_axes=prior.theta_axes(),
        grid_values=values,
    )


def via_estimate(prog, dataset: ObservationDataset, theta=None) -> EstimationResult:
    """Mean worst-case first-order suboptimality of the raw observations.

    Per sample eps_i = max over feasible x of grad f(y_i)' (y_i - x), which
    is the smallest eps making y_i satisfy the variational inequality; the
    box feasible set gives the closed form grad'y + bound * |grad|_1.
    """
    theta = _default_theta(prog, theta)
    b = _program_bound(prog)
    total = 0.0
    for u, y in zip(dataset.us, dataset.ys):
        grad = prog.objective_grad_x(y, u, theta)
        total += float(grad @ y) + b * float(np.abs(grad).sum())
    eps_hat = total / len(dataset)
    return EstimationResult(
        estimator="via", eps_hat=eps_hat, theta_hat=theta, objective=eps_hat
    )


def kkt_estimate(prog, dataset: ObservationDataset, theta=None) -> EstimationResult:
    """Smallest uniform bound on averaged KKT residuals of the observations.

    Per sample, multipliers minimize |grad f + lambda1 - lambda2| summed with
    the complementary-slackness magnitudes; for box constraints the optimum
    is one of two closed-form candidates per coordinate (all-zero, or the
    stationarity-annihilating vertex).  eps_hat is the max over the averaged
    feasibility, stationarity, and complementarity residual groups.
    """
    theta = _default_theta(prog, theta)
    b = _program_bound(prog)
    n = len(dataset)
    p = prog.x_dim
    feas = np.zeros(2 * p)
    stat = np.zeros(p)
    comp = np.zeros(2 * p)
    for u, y in zip(dataset.us, dataset.ys):
        a = prog.objective_grad_x(y, u, theta)
        g = prog.constraints(y, u, theta)
        feas += np.maximum(g, 0.0)
        for j in range(p):
            g1, g2 = g[j], g[p + j]
            cand0 = abs(a[j])
            l1, l2 = max(-a[j], 0.0), max(a[j], 0.0)
            cand1 = l1 * abs(g1) + l2 * abs(g2)
            if cand1 < cand0:
                comp[j] += l1 * abs(g1)
                comp[p + j] += l2 * abs(g2)
            else:
                stat[j] += abs(a[j])
    eps_hat = float(max(feas.max(), stat.max(), comp.max()) / n)
    return EstimationResult(
        estimator="kkt", eps_hat=eps_hat, theta_hat=theta, objective=eps_hat
    )


def _default_theta(prog, theta):
    if theta is None:
        return np.zeros(prog.theta_dim)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape[0] != prog.theta_dim:
        raise ValueError(f"theta must have length {prog.theta_dim}")
    return theta


def _program_bound(prog) -> float:
    if not isinstance(prog, (BoxLinearProgram, BoxQuadraticProgram)):
        raise ValueError("estimator implemented for the box-constrained built-ins")
    return prog.bound


# --- maximum likelihood variant ---------------------------------------------


class UniformNoiseDensity:
    """Uniform density on [lower, upper] with analytic interval integrals."""

    def __init__(self, lower: float, upper: float):
        if not lower < upper:
            raise ValueError("need lower < upper")
        self.lower, self.upper = float(lower), float(upper)

    def integrate_shifted(self, y, lo, hi):
        """Integral over x in [lo, hi] of density(y - x) (vectorized)."""
        a = np.maximum(lo, y - self.upper)
        b = np.minimum(hi, y - self.lower)
        return np.maximum(b - a, 0.0) / (self.upper - self.lower)


class TruncatedGaussianNoiseDensity:
    """N(0, sigma^2) conditioned on [-halfwidth, halfwidth], 1-D."""

    def __init__(self, sigma: float, halfwidth: float):
        if sigma <= 0 or halfwidth <= 0:
            raise ValueError("need positive sigma and halfwidth")
        self.sigma, self.halfwidth = float(sigma), float(halfwidth)
        from scipy.special import ndtr  # standard normal cdf

        self._mass = ndtr(halfwidth / sigma) - ndtr(-halfwidth / sigma)
        self._nodes, self._weights = np.polynomial.legendre.leggauss(256)

    def density(self, w):
        w = np.asarray(w, dtype=float)
        inside = np.abs(w) <= self.halfwidth
        vals = np.exp(-0.5 * (w / self.sigma) ** 2) / (
            self.sigma * math.sqrt(2 * math.pi) * self._mass
        )
        return np.where(inside, vals, 0.0)

    def integrate_shifted(self, y, lo, hi):
        """256-node Gauss-Legendre integral over x in [lo,hi] of density(y-x)."""
        y = np.asarray(y, dtype=float)
        lo = np.broadcast_to(np.asarray(lo, dtype=float), y.shape).copy()
        hi = np.broadcast_to(np.asarray(hi, dtype=float), y.shape).copy()
        # restrict to where the density is nonzero
        lo = np.maximum(lo, y - self.halfwidth)
        hi = np.minimum(hi, y + self.halfwidth)
        width = np.maximum(hi - lo, 0.0)
        mid = 0.5 * (lo + hi)
        half = 0.5 * width
        xs = mid[..., None] + half[..., None] * self._nodes
        vals = self.density(y[..., None] - xs)
        return (vals * self._weights).sum(axis=-1) * half


def mle_objective(prog, dataset: ObservationDataset, eps, theta, density) -> float:
    """Negative mean log-likelihood of y under x uniform on S and noise W.

    Equals -(1/n) sum log integral_S f_W(y_i - x) dx + (1/n) sum log |S_i|;
    any zero integral (or zero-width S) returns the +inf sentinel.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    total = 0.0
    for u, y in zip(dataset.us, dataset.ys):
        s = eps_argmin_set(prog, u, eps, theta)
        if not isinstance(s, ConvexSet) or s.dim != 1:
            raise ValueError("likelihood objective needs 1-D interval solution sets")
        lo, hi = bounds_of(s)
        width = hi[0] - lo[0]
        integral = float(density.integrate_shifted(float(y[0]), lo[0], hi[0]))
        if width <= 0 or integral <= 0:
            return math.inf
        total += -math.log(integral) + math.log(width)
    return total / len(dataset)


def mle_estimate(prog, dataset: ObservationDataset, prior: PriorRegion,
                 density) -> EstimationResult:
    """Grid argmin of the likelihood objective, same grid semantics as abp.

    Grid points where any sample has zero likelihood carry the +inf
    sentinel; an all-infinite grid is an error.

    The 1-D box-linear grid under uniform noise on [L, U] fills two
    (n_eps, n) buffers in place per theta, folding both signs of
    c = theta + u onto M = max(-b, b - eps/|c|) as abp_estimate does.  The
    overlap of S with [y - U, y - L] is max(p - max(M, q), 0) / (U - L), with
    q = y - U, p = min(b, y - L) for c >= 0 and q = L - y,
    p = -max(-b, y - U) for c < 0, and the width of S is b - M.  The grid is
    bit-identical to evaluating both interval endpoints for every cell.
    """
    eps_axis = prior.eps_axis()
    theta_points = prior.theta_points()
    values = np.empty((len(eps_axis), len(theta_points)))
    uniform = isinstance(density, UniformNoiseDensity)
    if isinstance(prog, BoxLinearProgram) and prog.x_dim == 1 and uniform:
        us, ys = dataset.us[:, 0], dataset.ys[:, 0]
        eps_col = eps_axis[:, None]
        b, lo_w, hi_w = prog.bound, density.lower, density.upper
        q_pos, q_neg = ys - hi_w, lo_w - ys
        p_pos, p_neg = np.minimum(b, ys - lo_w), -np.maximum(-b, ys - hi_w)
        ov = np.empty((len(eps_axis), len(ys)))  # per call: replicates run in threads
        terms = np.empty_like(ov)
        for j, th in enumerate(theta_points):
            c = th[0] + us
            neg = c < 0
            _boxlinear_lower(ov, b, c, eps_col)
            np.subtract(b, ov, out=terms)  # width of S
            np.maximum(ov, np.where(neg, q_neg, q_pos), out=ov)
            np.subtract(np.where(neg, p_neg, p_pos), ov, out=ov)
            np.maximum(ov, 0.0, out=ov)
            ov /= hi_w - lo_w
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log(terms, out=terms)
                np.log(ov, out=ov)
                terms -= ov
            row = terms.mean(axis=1)
            # a zero overlap (as any point S has) makes its row +inf, or NaN
            # when S is a point: log 0 - log 0
            values[:, j] = np.where(np.isnan(row), np.inf, row)
    elif isinstance(prog, BoxQuadraticProgram) and prog.x_dim == 1 and uniform:
        ys = dataset.ys[:, 0]
        m = np.minimum(prog.bound, np.sqrt(eps_axis))[:, None]
        ov = density.integrate_shifted(ys[None, :], -m, m)
        s_width = 2 * m * np.ones_like(ov)
        bad = (ov <= 0) | (s_width <= 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(bad, np.inf, np.log(s_width) - np.log(ov))
        values[:, :] = terms.mean(axis=1)[:, None]
    else:
        for i, eps in enumerate(eps_axis):
            for j, th in enumerate(theta_points):
                values[i, j] = mle_objective(prog, dataset, float(eps), th, density)
    eps_hat, theta_hat, objective = _grid_argmin(eps_axis, theta_points, values)
    return EstimationResult(
        estimator="mle",
        eps_hat=eps_hat,
        theta_hat=theta_hat,
        objective=objective,
        eps_axis=eps_axis,
        theta_axes=prior.theta_axes(),
        grid_values=values,
    )


# --- regularized dual function ----------------------------------------------


def rdf_eval(prog, u, theta, lam, mu):
    """Regularized dual value h_mu = min over the outer box of
    mu |x|^2 + f + lam' g, with exact envelope gradients.

    Returns (value, grad wrt theta, grad wrt lam).  The inner minimizer is a
    coordinatewise clamp; mu = 0 falls back to a boundary scan.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape[0] != prog.n_constraints or np.any(lam < 0):
        raise ValueError("lam must be a nonnegative vector, one per constraint")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    p = prog.x_dim
    l1, l2 = lam[:p], lam[p:]
    b = _program_bound(prog)
    xlo, xhi = prog.outer_box.lower, prog.outer_box.upper
    if isinstance(prog, BoxLinearProgram):
        c = np.asarray(theta, dtype=float) + np.asarray(u, dtype=float)
        beta = -c + l1 - l2
        quad = mu
    else:
        beta = l1 - l2
        quad = mu + 1.0
    if quad > 0:
        x_star = np.clip(-beta / (2 * quad), xlo, xhi)
    else:
        x_star = np.where(beta > 0, xlo, np.where(beta < 0, xhi, 0.0))
    value = float(quad * (x_star @ x_star) + beta @ x_star - b * lam.sum())
    if isinstance(prog, BoxLinearProgram):
        grad_theta = -x_star
    else:
        grad_theta = np.zeros(prog.theta_dim)
    grad_lam = np.concatenate([x_star - b, -x_star - b])
    return value, grad_theta, grad_lam


# --- presmoothing pipeline ---------------------------------------------------


def presmooth_estimate(prog, dataset: ObservationDataset, h: float,
                       prior: PriorRegion, seed: RngSeed,
                       lam: float | None = None) -> EstimationResult:
    """Neighborhood-hull presmoothing followed by a duality-relaxed grid fit.

    Per sample the observations with |u_j - u_i| <= h are hulled and the
    hull eroded by W to S_hat(u_i); a point x_hat_i is drawn uniformly from
    it.  Samples with empty erosion are skipped (count reported).  A grid
    point (eps, theta) is feasible when eps >= f(x_hat_i, u_i, theta) -
    V(u_i, theta) for every kept sample -- the constraint-free weak-duality
    relaxation with multipliers at their optimum -- and the reported
    objective is mean |y_i - x_hat_i|^2 + lam * eps.
    """
    if not (isinstance(prog, BoxLinearProgram) and prog.x_dim == 1):
        raise ValueError("presmoothing is implemented for the 1-D linear program")
    if h < 0:
        raise ValueError("neighborhood radius h must be nonnegative")
    if lam is None:
        lam = 1.0 / len(dataset)
    w_lo, w_hi = _interval_w(prior.w_set)
    us, ys = dataset.us[:, 0], dataset.ys[:, 0]
    rng = seed.generator()
    kept_u, kept_y, kept_x = [], [], []
    n_skipped = 0
    for i in range(len(us)):
        near = np.abs(us - us[i]) <= h
        lo, hi = ys[near].min() - w_lo, ys[near].max() - w_hi
        if hi < lo:
            n_skipped += 1
            continue
        kept_u.append(us[i])
        kept_y.append(ys[i])
        kept_x.append(rng.uniform(lo, hi))
    if not kept_u:
        raise ValueError("every sample was skipped; widen h or shrink W")
    ku = np.array(kept_u)
    ky = np.array(kept_y)
    kx = np.array(kept_x)
    fit = float(np.mean((ky - kx) ** 2))
    eps_axis = prior.eps_axis()
    theta_points = prior.theta_points()
    values = np.full((len(eps_axis), len(theta_points)), np.inf)
    b = prog.bound
    for j, th in enumerate(theta_points):
        c = th[0] + ku
        gaps = b * np.abs(c) - c * kx  # f - V = -c x + b|c| per sample
        eps_min = float(gaps.max())
        feasible = eps_axis >= eps_min - 1e-12
        values[feasible, j] = fit + lam * eps_axis[feasible]
    eps_hat, theta_hat, objective = _grid_argmin(eps_axis, theta_points, values)
    return EstimationResult(
        estimator="presmooth",
        eps_hat=eps_hat,
        theta_hat=theta_hat,
        objective=objective,
        lam=float(lam),
        eps_axis=eps_axis,
        theta_axes=prior.theta_axes(),
        grid_values=values,
        extras={"n_skipped": n_skipped, "n_used": int(len(ku)), "h": float(h)},
    )


# --- data generation and noise heuristics ------------------------------------


def generate_boxlinear_observations(n: int, seed: RngSeed, eps0: float = 1.0,
                                    theta0: float = 0.0,
                                    prog: BoxLinearProgram | None = None
                                    ) -> ObservationDataset:
    """u ~ U(-2,2); x uniform on S(u, eps0, theta0); y = x + w, w ~ U(-1,1)."""
    if n < 1:
        raise ValueError("need n >= 1 observations")
    if prog is None:
        prog = BoxLinearProgram()
    rng = seed.generator()
    us = rng.uniform(-2.0, 2.0, size=n)
    b, c = prog.bound, theta0 + us
    m = _boxlinear_lower(np.empty(n), b, c, eps0)
    neg = c < 0
    # the same draws, in order, as one call per sample
    xs = rng.uniform(np.where(neg, -b, m), np.where(neg, -m, b))
    ws = rng.uniform(-1.0, 1.0, size=n)
    return ObservationDataset(us[:, None], (xs + ws)[:, None])


def generate_boxquadratic_observations(n: int, noise_radius: float,
                                       seed: RngSeed,
                                       prog: BoxQuadraticProgram | None = None
                                       ) -> ObservationDataset:
    """x uniform on [-bound, bound]; y = x + w, w ~ U(-r, r); u is empty."""
    if n < 1:
        raise ValueError("need n >= 1 observations")
    if noise_radius < 0:
        raise ValueError("noise_radius must be nonnegative")
    if prog is None:
        prog = BoxQuadraticProgram()
    rng = seed.generator()
    xs = rng.uniform(-prog.bound, prog.bound, size=n)
    ws = rng.uniform(-noise_radius, noise_radius, size=n)
    return ObservationDataset(np.zeros((n, 0)), (xs + ws)[:, None])


def noise_support_box(cov, n: int, tail: str = "subgaussian") -> Box:
    """Heuristic noise-support box from a covariance estimate.

    Half-width per axis is scale * sqrt(cov_jj) with scale = sqrt(2 log n)
    for subgaussian tails and sqrt(2 log n) + log n for subexponential ones.
    The box shape (rather than an ellipsoid) is a recorded convention.
    """
    if n < 2:
        raise ValueError("need n >= 2 for the log-scale heuristic")
    if tail not in ("subgaussian", "subexponential"):
        raise ValueError("tail must be subgaussian or subexponential")
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.shape[0] != cov.shape[1]:
        raise ValueError("cov must be square")
    diag = np.diag(cov)
    if np.any(diag < 0):
        raise ValueError("cov must have nonnegative diagonal")
    scale = math.sqrt(2 * math.log(n))
    if tail == "subexponential":
        scale += math.log(n)
    half = scale * np.sqrt(diag)
    return Box(-half, half)


def result_to_dict(res: EstimationResult) -> dict:
    """JSON-ready summary: scalars, axes, and the nested grid table."""
    out = {
        "estimator": res.estimator,
        "eps_hat": float(res.eps_hat),
        "theta_hat": [float(v) for v in np.atleast_1d(res.theta_hat)],
        "objective": float(res.objective),
        "lambda": None if res.lam is None else float(res.lam),
        "grid": None,
    }
    if res.grid_values is not None:
        out["grid"] = {
            "eps_axis": [float(v) for v in res.eps_axis],
            "theta_axes": [[float(v) for v in ax] for ax in res.theta_axes],
            "values": res.grid_values.tolist(),
        }
    if res.extras:
        out["extras"] = res.extras
    return out
