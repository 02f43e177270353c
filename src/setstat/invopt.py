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

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Ball,
    Box,
    ConvexSet,
    SolverLimitError,
    VertexPolytope,
    _grid_axis,
    _jsonl_records,
    _row_reprs,
    bounds_of,
    dist_point,
    interval,
    minkowski_sum,
    sq_dist_point,
)
from .randomsets import RngSeed, UniformBoxNoise

__all__ = [
    "SolverLimitError",
    "BoxLinearProgram",
    "BoxQuadraticProgram",
    "ObservationDataset",
    "PriorRegion",
    "theta_mesh",
    "EstimationResult",
    "eps_argmin_set",
    "sq_dist_to_inflated_set",
    "abp_objective",
    "abp_estimate",
    "via_estimate",
    "kkt_estimate",
    "mle_objective",
    "mle_estimate",
    "rdf_eval",
    "presmooth_estimate",
    "EmptyNeighbourhoodError",
    "generate_boxlinear_observations",
    "generate_boxquadratic_observations",
    "noise_support_box",
    "result_to_dict",
    "write_observations_jsonl",
    "read_observations_jsonl",
]


class EmptyNeighbourhoodError(ValueError):
    """Presmoothing skipped every sample: each h-neighbourhood eroded to empty."""


class _BoxProgram:
    """Convex program min_x { f(x, u, theta) : g(x, u, theta) <= 0 } over the
    box |x_j| <= bound, with the constraints stacked as [x - bound; -x - bound]
    and the outer box |x_j| <= outer_bound; each subclass fixes
    0 < bound < outer_bound.

    Subclasses provide the objective, its x-gradient and the optimal value
    V(u, theta).  f is convex in x for fixed (u, theta), and the box is
    strictly feasible.
    """

    def __init__(self, x_dim: int = 1):
        self.x_dim = int(x_dim)
        self.n_constraints = 2 * self.x_dim
        self.outer_box = Box(
            np.full(self.x_dim, -self.outer_bound), np.full(self.x_dim, self.outer_bound)
        )

    def constraints(self, x, u, theta):
        x = np.asarray(x, dtype=float)
        return np.concatenate([x - self.bound, -x - self.bound], axis=-1)


class BoxLinearProgram(_BoxProgram):
    """f = -(theta + u)' x over the box |x_j| <= 2.

    The value function and epsilon-argmin sets are analytic.
    """

    bound, outer_bound = 2.0, 3.0
    u_dim = theta_dim = property(lambda self: self.x_dim)

    def objective(self, x, u, theta):
        c = np.asarray(theta, dtype=float) + np.asarray(u, dtype=float)
        return float(-(c @ np.asarray(x, dtype=float)))

    def objective_grad_x(self, x, u, theta):
        return -(np.asarray(theta, dtype=float) + np.asarray(u, dtype=float))

    def value(self, u, theta) -> float:
        c = np.asarray(theta, dtype=float) + np.asarray(u, dtype=float)
        return float(-self.bound * np.abs(c).sum())


class BoxQuadraticProgram(_BoxProgram):
    """f = |x|^2 over the box |x_j| <= 1; no u or theta dependence."""

    bound, outer_bound, u_dim, theta_dim = 1.0, 2.0, 0, 0

    def objective(self, x, u, theta):
        x = np.asarray(x, dtype=float)
        return float(x @ x)

    def objective_grad_x(self, x, u, theta):
        return 2.0 * np.asarray(x, dtype=float)

    def value(self, u, theta) -> float:
        return 0.0


def eps_argmin_set(prog, u, eps: float, theta) -> ConvexSet:
    """Near-optimal solution set {x : f(x,u,theta) <= V(u,theta) + eps, g <= 0}
    of a built-in program, exact in every dimension; any other program is a
    ValueError.

    In 1-D the set is the interval of _solution_interval.  In d >= 2,
    box-linear gives the box cut by c'x >= L, c = theta + u, as the
    VertexPolytope of _boxlinear_vertices (at most 2^d + d 2^(d-1)
    vertices), and box-quadratic gives Ball(0, sqrt(eps)) while
    eps <= bound^2 = 1; for a larger eps the set is the box cut by that
    ball, which no set variant represents, and eps is refused.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    b = _program_bound(prog)
    if isinstance(prog, BoxQuadraticProgram) and prog.x_dim > 1:
        if eps > b * b:
            raise ValueError(f"eps = {eps!r} exceeds bound^2 = {b * b!r}: the box-quadratic "
                             f"set in {prog.x_dim}-D is then a box cut by a ball")
        return Ball(np.zeros(prog.x_dim), math.sqrt(eps))
    c = np.ravel(np.asarray(theta, dtype=float) + np.asarray(u, dtype=float))
    if prog.x_dim == 1:
        lo, hi = _solution_interval(prog, c[:1], eps)
        return interval(lo.item(), hi.item())
    return VertexPolytope(_boxlinear_vertices(b, c, eps))


def _solution_interval(prog, c, eps):
    """Endpoints (lo, hi) of a built-in's 1-D eps-argmin interval, broadcast
    over c = theta + u and eps.  Box-linear: (M, b) where c >= 0 and
    (-b, 0.0 - M) where c < 0, M from _boxlinear_lower.  Box-quadratic:
    (-m, m), m = min(b, sqrt(eps)), shaped by eps alone."""
    b = _program_bound(prog)
    if isinstance(prog, BoxQuadraticProgram):
        m = np.minimum(b, np.sqrt(eps))
        return -m, m
    c = np.asarray(c, dtype=float)
    m = _boxlinear_lower(np.empty(np.broadcast_shapes(c.shape, np.shape(eps))), b, c, eps)
    pos = c >= 0
    return np.where(pos, m, -b), np.where(pos, b, 0.0 - m)


def _boxlinear_vertices(b, c, eps) -> np.ndarray:
    """Vertices of {x in [-b, b]^d : c'x >= L}, L = (max over corners of c'x) - eps.

    They are the box corners with c'x >= L and the crossings of c'x = L with
    the box edges whose two corners lie strictly on opposite sides of it.
    The argmin corner passes its own test, so the set is never empty; eps = 0
    leaves the argmin face and c = 0 the whole box.
    """
    d = c.shape[0]
    bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
    corners = np.where(bits == 1, -b, b)
    gaps = corners @ c
    gaps -= gaps.max() - eps  # c'x - L per corner
    k, j = np.nonzero(bits == 0)  # the edge from corner k (x_j = b) to k + 2^j (x_j = -b)
    cross = np.sign(gaps[k]) * np.sign(gaps[k + (1 << j)]) < 0
    k, j = k[cross], j[cross]
    points = corners[k]
    # c'x - L falls by c_j per unit step of x_j down from b
    points[np.arange(len(k)), j] = np.clip(b - gaps[k] / c[j], -b, b)
    return np.vstack([corners[gaps >= 0], points])


def _boxlinear_lower(out, bound, c, eps):
    """Fill out with M = max(-b, b - eps/|c|), or -b where c == 0; c and eps
    broadcast to the shape of out.

    M is the lower endpoint of the c >= 0 eps-argmin interval [M, b].
    Round-to-nearest is sign-symmetric, so the c < 0 interval
    [-b, min(b, -b + eps/|c|)] is [-b, 0.0 - M] bit for bit (-M would turn an
    exact 0.0 into -0.0): one block of M serves samples of either sign.
    """
    zero = c == 0
    np.divide(eps, np.abs(np.where(zero, 1.0, c)), out=out)
    np.subtract(bound, out, out=out)
    np.maximum(out, -bound, out=out)
    if zero.any():
        out[..., zero] = -bound
    return out


def sq_dist_to_inflated_set(prog, y, u, eps, theta, w_set: ConvexSet) -> float:
    """Squared distance d^2(y, S(u, eps, theta) + W), S from eps_argmin_set.

    A ball S or W = Ball(z, r), whose sum minkowski_sum would sample in
    d >= 2, gives max(d(y - z, C) - r, 0)^2 exactly, C the other set (W when
    both are balls); two polytopes give the exact minkowski_sum(S, W).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    s = eps_argmin_set(prog, u, eps, theta)
    ball, other = (s, w_set) if isinstance(s, Ball) else (w_set, s)
    if isinstance(ball, Ball):
        return max(dist_point(y - ball.center, other) - ball.radius, 0.0) ** 2
    return sq_dist_point(y, minkowski_sum(s, w_set))


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
        if not (np.isfinite(us).all() and np.isfinite(ys).all()):
            raise ValueError("observations must be finite")
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
    """One observation per line: {"u": [...], "y": [...]}.  Observations are
    finite, so each row is written as the float.__repr__ text json gives."""
    with open(path, "w") as fh:
        fh.writelines(
            '{"u": [%s], "y": [%s]}\n' % row
            for row in zip(_row_reprs(dataset.us), _row_reprs(dataset.ys))
        )


def read_observations_jsonl(path) -> ObservationDataset:
    rows = list(_jsonl_records(path, ("u", "y")))
    return ObservationDataset(np.asarray([u for u, _ in rows]), np.asarray([y for _, y in rows]))


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
        return _grid_axis(*self.eps_range, self.d_eps)

    def theta_axes(self) -> list[np.ndarray]:
        if self.theta_box is None:
            return []
        return [
            _grid_axis(lo, hi, self.d_theta)
            for lo, hi in zip(self.theta_box.lower, self.theta_box.upper)
        ]

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


def _grid_result(estimator, prior, values, lam=None, extras=None) -> EstimationResult:
    """The result at the first flat minimum of the (n_eps, n_theta) grid
    values: smallest eps, then lexicographically smallest theta."""
    if not np.isfinite(values.min()):
        raise ValueError("no grid point produced a finite objective")
    eps_axis, theta_axes = prior.eps_axis(), prior.theta_axes()
    i, j = divmod(int(np.argmin(values)), values.shape[1])
    return EstimationResult(
        estimator=estimator,
        eps_hat=float(eps_axis[i]),
        theta_hat=theta_mesh(theta_axes)[j].copy(),
        objective=float(values[i, j]),
        lam=None if lam is None else float(lam),
        eps_axis=eps_axis,
        theta_axes=theta_axes,
        grid_values=values,
        extras=extras or {},
    )


def _penalty(lam, dataset) -> float:
    """The eps penalty weight lam, 1/n by default; a lam that is not finite
    and nonnegative is an error."""
    if lam is not None and not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam!r}")
    return 1.0 / len(dataset) if lam is None else lam


def abp_objective(prog, dataset: ObservationDataset, eps, theta, lam,
                  w_set: ConvexSet) -> float:
    """(1/n) sum_i d^2(y_i, S(u_i, eps, theta) + W) + lam * eps, where
    lam = None means 1/n."""
    lam = _penalty(lam, dataset)
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
    table is kept in the result.  1-D built-ins take one array pass per
    theta (_abp_interval_grid); the x_dim >= 2 built-ins fall back to
    per-point evaluation of the exact sets of eps_argmin_set, and any other
    program is a ValueError.

    The one specialization, the 1-D box-linear grid, fills one (n_eps, n)
    buffer in place per theta.  A sample with c = theta + u >= 0 has lo = M
    and hi = b; one with c < 0 has lo = -b and hi = -M, where
    M = max(-b, b - eps/|c|) (-b when c == 0).  Round-to-nearest is
    sign-symmetric, so y - (-M + w_hi) == (M - w_hi) - (-y) exactly, and both
    signs take the form max(f(M), k) with f(m) = (m + a) - y', per-sample a
    and y' and an eps-free k.  The grid is bit-identical to evaluating both
    interval endpoints for every cell.

    As M >= -b, max(f(M), k) = max(f(M), k') with the floor
    k' = max(k, f(-b)).  eps -> fl(eps/|c|) and m -> f(m) are monotone, so
    once a row of a theta column has every sample at its floor, so has every
    later row, and those rows share one value.  A sample is at its floor
    from eps = |c|(f(b) - k') on, up to rounding.  The column is evaluated
    through one row past the first row at or above the largest such eps; if
    that last row is at the floor, the rest copy its value, and otherwise
    they are evaluated too.
    """
    lam = _penalty(lam, dataset)
    eps_axis = prior.eps_axis()
    theta_points = prior.theta_points()
    values = np.empty((len(eps_axis), len(theta_points)))
    eps_col = eps_axis[:, None]
    if isinstance(prog, BoxLinearProgram) and prog.x_dim == 1:
        w_lo, w_hi = _interval_w(prior.w_set)
        us, ys = dataset.us[:, 0], dataset.ys[:, 0]
        b, n_eps = prog.bound, len(eps_axis)
        below = np.maximum((-b + w_lo) - ys, 0.0)  # the c < 0 gap below -b + W
        above = np.maximum(ys - (b + w_hi), 0.0)  # the c >= 0 gap above b + W
        d = np.empty((n_eps, len(ys)))  # per call: replicates run in threads
        for j, th in enumerate(theta_points):
            c = th[0] + us
            neg = c < 0
            a, y1 = np.where(neg, -w_hi, w_lo), np.where(neg, -ys, ys)
            floor = np.maximum(np.where(neg, below, above), (-b + a) - y1)
            reach = (np.abs(c) * (((b + a) - y1) - floor)).max()
            r = min(int(np.searchsorted(eps_axis, reach)) + 2, n_eps)
            for rows in (slice(0, r), slice(r, n_eps)):
                dr = _boxlinear_lower(d[rows], b, c, eps_col[rows])
                dr += a
                dr -= y1
                np.maximum(dr, floor, out=dr)
                if r == n_eps or (d[r - 1] <= floor).all():
                    break
            else:  # row r - 1 is still eps-dependent: every row is evaluated
                r = n_eps
            dr = d[:r]
            dr *= dr
            values[:r, j] = dr.mean(axis=1)
            values[r:, j] = values[r - 1, j]
    elif prog.x_dim == 1:
        values[:, :] = _abp_interval_grid(prog, dataset, prior)
    else:
        for i, eps in enumerate(eps_axis):
            for j, th in enumerate(theta_points):
                values[i, j] = abp_objective(prog, dataset, float(eps), th, 0.0,
                                             prior.w_set)
    values += lam * eps_col
    return _grid_result("abp", prior, values, lam=lam)


def _interval_columns(prog, dataset: ObservationDataset, prior: PriorRegion):
    """Per theta point, _solution_interval over the (n_eps, n) cells."""
    eps_col = prior.eps_axis()[:, None]
    return (_solution_interval(prog, np.ravel(th + dataset.us), eps_col)
            for th in prior.theta_points())


def _abp_interval_grid(prog, dataset: ObservationDataset, prior: PriorRegion) -> np.ndarray:
    """The abp fit term of a 1-D built-in, one array pass per theta:
    d = max(lo + w_lo - y, y - (hi + w_hi), 0), S = [lo, hi], W = [w_lo, w_hi]."""
    w_lo, w_hi = _interval_w(prior.w_set)
    ys = dataset.ys[:, 0]
    values = np.empty((len(prior.eps_axis()), len(prior.theta_points())))
    for j, (lo, hi) in enumerate(_interval_columns(prog, dataset, prior)):
        d = (lo + w_lo) - ys
        np.maximum(d, ys - (hi + w_hi), out=d)
        np.maximum(d, 0.0, out=d)
        d *= d
        values[:, j] = d.mean(axis=1)
    return values


def via_estimate(prog, dataset: ObservationDataset, theta=None) -> EstimationResult:
    """Mean worst-case first-order suboptimality of the raw observations.

    Per sample eps_i = max over feasible x of grad f(y_i)' (y_i - x), which
    is the smallest eps making y_i satisfy the variational inequality; the
    box feasible set gives the closed form grad'y + bound * |grad|_1.
    """
    theta = _default_theta(prog, theta)
    b = _program_bound(prog)
    grad = prog.objective_grad_x(dataset.ys, dataset.us, theta)
    dots = np.matmul(grad[:, None, :], dataset.ys[:, :, None])[:, 0, 0]  # grad @ y, a ddot per row
    eps_hat = float(_sum_rows(dots + b * np.abs(grad).sum(axis=1))) / len(dataset)
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
    _program_bound(prog)
    a = prog.objective_grad_x(dataset.ys, dataset.us, theta)
    g = prog.constraints(dataset.ys, dataset.us, theta)
    comp = np.maximum(np.hstack([-a, a]), 0.0) * np.abs(g)
    chosen = comp[:, : prog.x_dim] + comp[:, prog.x_dim :] < np.abs(a)
    # the candidate not chosen adds +0.0, which leaves a sum's bits alone
    feas = _sum_rows(np.maximum(g, 0.0))
    stat = _sum_rows(np.where(chosen, 0.0, np.abs(a)))
    comp = _sum_rows(np.where(np.tile(chosen, 2), comp, 0.0))
    eps_hat = float(max(feas.max(), stat.max(), comp.max()) / len(dataset))
    return EstimationResult(
        estimator="kkt", eps_hat=eps_hat, theta_hat=theta, objective=eps_hat
    )


def _sum_rows(block):
    """Sum over axis 0, the rows added left to right from 0.0 as a loop adds
    them; ndarray.sum adds pairwise and Python's sum() compensates (3.12+)."""
    zero = np.zeros((1, *block.shape[1:]))
    return np.add.accumulate(np.concatenate([zero, block]), axis=0)[-1]


def _default_theta(prog, theta):
    if theta is None:
        return np.zeros(prog.theta_dim)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape[0] != prog.theta_dim:
        raise ValueError(f"theta must have length {prog.theta_dim}")
    return theta


def _program_bound(prog) -> float:
    if not isinstance(prog, _BoxProgram):
        raise ValueError("estimator implemented for the box-constrained built-ins")
    return prog.bound


# --- maximum likelihood variant ---------------------------------------------


def mle_objective(prog, dataset: ObservationDataset, eps, theta, noise) -> float:
    """Negative mean log-likelihood of y under x uniform on S and noise W.

    Equals -(1/n) sum log integral_S f_W(y_i - x) dx + (1/n) sum log |S_i|;
    any zero integral (or zero-width S) returns the +inf sentinel.  The
    integral is noise.integrate_shifted: a 1-D UniformBoxNoise or
    TruncatedGaussianNoise, and any other law raises ValueError.
    """
    _require_intervals(prog)
    total = 0.0
    for u, y in zip(dataset.us, dataset.ys):
        lo, hi = bounds_of(eps_argmin_set(prog, u, eps, theta))
        width = hi[0] - lo[0]
        integral = float(noise.integrate_shifted(float(y[0]), lo[0], hi[0]))
        if width <= 0 or integral <= 0:
            return math.inf
        total += -math.log(integral) + math.log(width)
    return total / len(dataset)


def _require_intervals(prog) -> None:
    if prog.x_dim != 1:
        raise ValueError("likelihood objective needs 1-D interval solution sets")


def mle_estimate(prog, dataset: ObservationDataset, prior: PriorRegion,
                 noise) -> EstimationResult:
    """Grid argmin of the likelihood objective, same grid semantics as abp.

    Grid points where any sample has zero likelihood carry the +inf
    sentinel; an all-infinite grid, or a program with x_dim != 1, is an
    error, and so is a noise law mle_objective refuses.  Grids take one
    array pass per theta (_mle_interval_grid), but box-linear under a
    UniformBoxNoise on [L, U] fills two (n_eps, n) buffers in place per
    theta, folding both signs of c = theta + u onto
    M = max(-b, b - eps/|c|) as abp_estimate does.  The overlap of S with
    [y - U, y - L] is max(p - max(M, q), 0) / (U - L), with q = y - U,
    p = min(b, y - L) for c >= 0 and q = L - y, p = -max(-b, y - U) for
    c < 0, and the width of S is b - M.  The grid is bit-identical to
    evaluating both interval endpoints for every cell.

    A row where some sample's overlap is zero is +inf: its mean has a +inf
    term, or is NaN (log 0 - log 0 where S is a point, or +inf and -inf
    terms), and NaN maps to +inf.  A sample with q >= p or p <= -b has no
    overlap at any eps.  Otherwise it has none at eps < (1 - 1e-9) (b - p)|c|:
    there eps/|c| is short of b - p by more than its rounding, so
    fl(eps/|c|) <= b - p, and as rounding is monotone and p is a float,
    M >= fl(b - fl(eps/|c|)) >= p.  The rows below the largest such bound
    are set to +inf unevaluated; the rest run through the buffers and map
    their own zero overlaps to +inf, with the bits of the whole grid.
    """
    _require_intervals(prog)
    eps_axis = prior.eps_axis()
    theta_points = prior.theta_points()
    values = np.empty((len(eps_axis), len(theta_points)))
    if isinstance(prog, BoxLinearProgram) and isinstance(noise, UniformBoxNoise):
        us, ys = dataset.us[:, 0], dataset.ys[:, 0]
        eps_col = eps_axis[:, None]
        b, (lo_w, hi_w) = prog.bound, noise._bounds_1d()
        q_pos, q_neg = ys - hi_w, lo_w - ys
        p_pos, p_neg = np.minimum(b, ys - lo_w), -np.maximum(-b, ys - hi_w)
        ov = np.empty((len(eps_axis), len(ys)))  # per call: replicates run in threads
        terms = np.empty_like(ov)
        for j, th in enumerate(theta_points):
            c = th[0] + us
            neg = c < 0
            q, p = np.where(neg, q_neg, q_pos), np.where(neg, p_neg, p_pos)
            # the eps below which a sample has no overlap: +inf if it has none at all
            reach = np.where((q >= p) | (p <= -b), np.inf, (b - p) * np.abs(c))
            first = np.searchsorted(eps_axis, (1 - 1e-9) * reach.max())
            values[:first, j] = np.inf
            ov_j, terms_j = ov[first:], terms[first:]
            _boxlinear_lower(ov_j, b, c, eps_col[first:])
            np.subtract(b, ov_j, out=terms_j)  # the width of S
            np.maximum(ov_j, q, out=ov_j)
            np.subtract(p, ov_j, out=ov_j)
            np.maximum(ov_j, 0.0, out=ov_j)
            ov_j /= hi_w - lo_w
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log(terms_j, out=terms_j)
                np.log(ov_j, out=ov_j)
                terms_j -= ov_j
            row = terms_j.mean(axis=1)
            values[first:, j] = np.where(np.isnan(row), np.inf, row)
    else:
        values[:, :] = _mle_interval_grid(prog, dataset, prior, noise)
    return _grid_result("mle", prior, values)


def _mle_interval_grid(prog, dataset: ObservationDataset, prior: PriorRegion,
                       noise) -> np.ndarray:
    """The likelihood objective of a 1-D built-in, one array pass per theta:
    +inf wherever the noise density's integral over S or the width of S is <= 0."""
    ys = dataset.ys[:, 0]
    values = np.empty((len(prior.eps_axis()), len(prior.theta_points())))
    for j, (lo, hi) in enumerate(_interval_columns(prog, dataset, prior)):
        ov = noise.integrate_shifted(ys, lo, hi)
        width = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log(width) - np.log(ov)
        terms[(ov <= 0) | (width <= 0)] = np.inf
        values[:, j] = terms.mean(axis=1)
    return values


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
    it.  Samples with empty erosion are skipped (count reported), and
    EmptyNeighbourhoodError is raised when all are.  A grid
    point (eps, theta) is feasible when eps >= f(x_hat_i, u_i, theta) -
    V(u_i, theta) for every kept sample -- the constraint-free weak-duality
    relaxation with multipliers at their optimum -- and the reported
    objective is mean |y_i - x_hat_i|^2 + lam * eps.
    """
    if not (isinstance(prog, BoxLinearProgram) and prog.x_dim == 1):
        raise ValueError("presmoothing is implemented for the 1-D linear program")
    if h < 0:
        raise ValueError("neighborhood radius h must be nonnegative")
    lam = _penalty(lam, dataset)
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
        raise EmptyNeighbourhoodError("every sample was skipped; widen h or shrink W")
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
    extras = {"n_skipped": n_skipped, "n_used": int(len(ku)), "h": float(h)}
    return _grid_result("presmooth", prior, values, lam=lam, extras=extras)


# --- data generation and noise heuristics ------------------------------------


def generate_boxlinear_observations(n: int, seed: RngSeed, eps0: float = 1.0,
                                    theta0: float = 0.0) -> ObservationDataset:
    """u ~ U(-2,2); x uniform on S(u, eps0, theta0); y = x + w, w ~ U(-1,1)."""
    if n < 1:
        raise ValueError("need n >= 1 observations")
    rng = seed.generator()
    us = rng.uniform(-2.0, 2.0, size=n)
    # the same draws, in order, as one call per sample
    xs = rng.uniform(*_solution_interval(BoxLinearProgram(), theta0 + us, eps0))
    ws = rng.uniform(-1.0, 1.0, size=n)
    return ObservationDataset(us[:, None], (xs + ws)[:, None])


def generate_boxquadratic_observations(n: int, noise_radius: float,
                                       seed: RngSeed) -> ObservationDataset:
    """x uniform on [-bound, bound]; y = x + w, w ~ U(-r, r); u is empty."""
    if n < 1:
        raise ValueError("need n >= 1 observations")
    if noise_radius < 0:
        raise ValueError("noise_radius must be nonnegative")
    rng = seed.generator()
    b = BoxQuadraticProgram().bound
    xs = rng.uniform(-b, b, size=n)
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
