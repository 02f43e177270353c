"""Compact convex set representations and Minkowski arithmetic.

Sets are represented by one of four variants: vertex polytopes, zonotopes
(center plus weighted segment generators), Euclidean balls, and axis-aligned
boxes.  Exact vertex and facet manipulation is implemented for dimensions one
and two.  From d = 3, sums with a ball, erosions other than of box or ball
pairs, hausdorff of pairs neither both vertex-listed nor both balls, and
matrix images of balls sample support values on a direction grid (balls are
sampled in 2-D too); each routine documents its approximation.  All
coordinates are float64 and instances are immutable once constructed.

A family of translates K + s_i of one body is a single TranslatedFamily
value: the body plus an (n, d) shift array.  It is a sequence that
materializes each translate on access, and weighted_minkowski_average
takes its mean from the arrays; for Box and Ball bodies that mean is
byte-identical to the mean of the materialized translates.

Each set has a JSON record (set_to_dict, set_from_dict, set_to_json); the
files that hold them are written and read by textio.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "HULL_COLLINEARITY_TOL",
    "SolverLimitError",
    "ConvexSet",
    "VertexPolytope",
    "Zonotope",
    "Ball",
    "Box",
    "interval",
    "point_set",
    "convex_hull_2d",
    "vertices_of",
    "bounds_of",
    "support",
    "support_point",
    "direction_grid",
    "minkowski_sum",
    "scale",
    "TranslatedFamily",
    "translated_family",
    "minkowski_diff",
    "dist_point",
    "sq_dist_point",
    "project_point",
    "hausdorff",
    "integrated_distance",
    "weighted_minkowski_average",
    "contains",
    "set_to_dict",
    "set_from_dict",
    "set_to_json",
    "set_from_json",
]

# Cross products with absolute value at or below this threshold are treated
# as collinear when pruning 2-D hulls.
HULL_COLLINEARITY_TOL = 1e-12
_HULL_RING_FLOOR = 16  # below it, the Python chain costs less than _certified_ring

_SUPPORT_GAP_TOL = 1e-10
_CONTAINS_TOL = 1e-9

# Directions of every sampled path: balls, d > 2 sums and erosions, hausdorff, law checks.
_N_DIRECTIONS = 360

# The point grid and Laguerre nodes of integrated_distance.
_DISTANCE_RADII = 64
_DISTANCE_ANGLES = 64
_DISTANCE_POINTS_1D = 128
_DISTANCE_QUADRATURE = 32
_DISTANCE_R_CUTOFF = 20.0
_DISTANCE_NODES_PER_BLOCK = 4  # whole nodes per pass: 16,388 2-D points keep the buffers in L2

# Iteration caps of the projection solvers; reaching one raises SolverLimitError
# (the planar zonotope loop hands over to the exact _zonotope_bvls instead).
_MIN_NORM_MAX_ITER = 10_000
_ZONOTOPE_NEAREST_MAX_ITER = 20_000


class SolverLimitError(RuntimeError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a vector of dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _as_points(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 1:
        p = p.reshape(1, -1)
    if p.ndim != 2 or p.shape[0] < 1:
        raise ValueError(f"expected a (k, d) array of points, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point coordinates must be finite")
    return p


def _as_directions(dirs, dim: int) -> np.ndarray:
    u = np.ascontiguousarray(dirs, dtype=float)
    if u.ndim != 2 or u.shape[1] != dim:
        raise ValueError(f"expected an (m, {dim}) array of directions, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("direction entries must be finite")
    return u


def _row_dots(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """u_i @ m for every row u_i of u, one BLAS call per row.

    A stacked matmul runs the ddot (m a vector) or the dgemv (m = A.T, a
    transposed view) that the 1-D products c @ u_i and A @ u_i run, so the
    bits are theirs.  u @ m would run one dgemm, and einsum its own SIMD
    loop; both round differently.
    """
    return np.matmul(u[:, None, :], m)[:, 0]


def _ddot_norms(v: np.ndarray) -> np.ndarray:
    """Norms of the rows of v (any leading axes), each sqrt(ddot(v_i, v_i)):
    the bits of np.linalg.norm on each row as a 1-D vector."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


def _box_support(lower: np.ndarray, upper: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Support values of the box [lower, upper] on the rows of u; corners with
    leading axes (..., d) give (..., m)."""
    return np.sum(np.where(u >= 0, upper[..., None, :], lower[..., None, :]) * u, axis=-1)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _sorted_unique_rows(pts: np.ndarray) -> np.ndarray:
    """np.unique(pts, axis=0) by one lexsort and an adjacent-row compare;
    equal rows differing in the sign of a zero take np.unique itself, since
    which of them it keeps is not specified."""
    s = pts.take(np.lexsort((pts[:, 1], pts[:, 0])), axis=0)
    dup = (s[1:, 0] == s[:-1, 0]) & (s[1:, 1] == s[:-1, 1])
    if not dup.any():
        return s
    bits = s.view(np.uint64)
    if (bits[1:][dup] != bits[:-1][dup]).any():
        return np.unique(pts, axis=0)
    return s.take(np.flatnonzero(np.concatenate(([True], ~dup))), axis=0)


def _certified_ring(s: np.ndarray) -> np.ndarray | None:
    """_monotone_chain(s) for sorted distinct rows s, when a static error
    bound certifies it without running the chain; else None.

    The ring is the rows on or below the chord s[0] -> s[-1], then those
    above it reversed.  With |coordinates| <= S, rounding moves a cross
    product of coordinate differences by at most about 2^-50 (2S)^2 < E =
    2^-46 (2S)^2.  Computed turns above HULL_COLLINEARITY_TOL + 2E make the
    ring, whose two chains are monotone, a convex polygon on all of s with
    exact turns above the tolerance + E.  Its smallest vertex triangle has
    three consecutive vertices (distance to a chord is unimodal along a
    convex arc), so every cross product the chain takes has its exact sign
    and clears the tolerance: the chain keeps every row, in this order.
    """
    scale = float(np.abs(s).max())
    if not scale < 2.0**500:  # no overflow in the products below
        return None
    (x0, y0), (x1, y1) = s[0].tolist(), s[-1].tolist()
    above = (x1 - x0) * (s[:, 1] - y0) - (y1 - y0) * (s[:, 0] - x0) > 0.0
    ring = s.take(np.concatenate((np.flatnonzero(~above), np.flatnonzero(above)[::-1])), axis=0)
    e = np.diff(ring, axis=0, prepend=ring[-1:], append=ring[:1])  # e[i]: the edge into ring[i]
    turns = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
    if turns.min() > HULL_COLLINEARITY_TOL + 2.0 * 2.0**-46 * (2.0 * scale) ** 2:
        return ring
    return None


def _monotone_chain(s: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain (Inf. Proc. Letters 9, 1979) on sorted distinct rows s."""
    rows = s.tolist()  # Python floats: the same IEEE doubles, cheaper scalar ops

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out: list[list[float]] = []
        for p in seq:
            # pop until a strict left turn survives; turns within
            # HULL_COLLINEARITY_TOL are collinear and the middle point is dropped
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= HULL_COLLINEARITY_TOL:
                out.pop()
            out.append(p)
        return out

    lower = chain(rows)
    upper = chain(rows[::-1])
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all points collinear: keep the two extremes
        hull = [rows[0], rows[-1]]
    return np.asarray(hull, dtype=float)


def convex_hull_2d(points) -> np.ndarray:
    """Extreme points of a 2-D point cloud, counterclockwise from the
    lexicographic minimum: the ring of Andrew's monotone chain, where a turn
    at or below HULL_COLLINEARITY_TOL drops its middle point.

    One lexsort sorts the points and drops exact duplicates.  From
    _HULL_RING_FLOOR distinct points on, a ring that _certified_ring
    certifies (a sampled circle, a filtered sum of strictly convex rings)
    skips the chain.  Interior, collinear or nearly collinear points, turns
    within the bound's margin of the tolerance and coordinates beyond 2^500
    run it, and its two known defects stand: the absolute tolerance drops
    true vertices near coordinates of 2^-20, and a near-vertical run of
    collinear points can lose a vertex (tests pin both).
    """
    pts = _as_points(points)
    if pts.shape[1] != 2:
        raise ValueError("convex_hull_2d expects 2-D points")
    s = _sorted_unique_rows(pts)
    if s.shape[0] == 1:
        return s
    ring = _certified_ring(s) if s.shape[0] >= _HULL_RING_FLOOR else None
    return ring if ring is not None else _monotone_chain(s)


def _prune_vertices(v: np.ndarray) -> np.ndarray:
    d = v.shape[1]
    if d == 1:
        lo, hi = v.min(), v.max()
        if lo == hi:
            return np.array([[lo]])
        return np.array([[lo], [hi]])
    if d == 2:
        return convex_hull_2d(v)
    return v  # d > 2: stored vertices may be redundant (documented)


class _Record:
    """A value written as the record {"type": tag, field: value, ...}: the
    fields its class declares, in order, arrays as nested lists.  The
    constructor takes those fields by name."""

    def __init_subclass__(cls, tag: str = "", fields: tuple[str, ...] = ()):
        cls._tag, cls._fields = tag, fields

    def to_dict(self) -> dict:
        record = {"type": self._tag}
        for name in self._fields:
            value = getattr(self, name)
            record[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return record


class ConvexSet(_Record):
    """Base class; concrete variants implement support_many."""

    dim: int

    def support(self, u) -> float:
        """h(u, C): support_many on the single row u."""
        return float(self.support_many(_as_vector(u, self.dim)[None, :])[0])

    def support_many(self, dirs) -> np.ndarray:
        """Support values on the rows of an (m, d) direction array.

        Every variant runs one BLAS call per row, so each value has the bits
        of support_many on that row alone.
        """
        raise NotImplementedError

    def support_point(self, u) -> np.ndarray:
        raise NotImplementedError

    def translate(self, v) -> "ConvexSet":
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_dict()})"


class VertexPolytope(ConvexSet, tag="vpoly", fields=("vertices",)):
    """Convex hull of finitely many stored vertices.

    For dimensions one and two the stored vertices are pruned to extreme
    points at construction (counterclockwise order in 2-D).  In higher
    dimensions the vertex list is kept as-is and may contain redundant
    points; the represented set is still their convex hull.
    """

    def __init__(self, vertices, prune: bool = True):
        v = _as_points(vertices)
        if prune:
            v = _prune_vertices(v)
        self.vertices = _readonly(v)
        self.dim = v.shape[1]

    def support_many(self, dirs) -> np.ndarray:
        u = _as_directions(dirs, self.dim)
        return _row_dots(u, self.vertices.T).max(axis=1)

    def support_point(self, u) -> np.ndarray:
        u = _as_vector(u, self.dim)
        return self.vertices[int(np.argmax(self.vertices @ u))].copy()

    def translate(self, v) -> "VertexPolytope":
        v = _as_vector(v, self.dim)
        return VertexPolytope(self.vertices + v, prune=False)


class Zonotope(ConvexSet, tag="zonotope", fields=("center", "generators", "weights")):
    """Center plus weighted segment generators.

    The represented set is {c + sum_k t_k * w_k * g_k : t_k in [-1, 1]},
    so the support function is c.u + sum_k |w_k| * |g_k.u|.
    """

    def __init__(self, center, generators, weights):
        c = _as_vector(center)
        g = np.asarray(generators, dtype=float)
        if g.ndim != 2 or g.shape[1] != c.shape[0]:
            raise ValueError("generators must have shape (p, dim)")
        w = _as_vector(weights, g.shape[0]) if g.shape[0] else np.zeros(0)
        if not np.all(np.isfinite(g)):
            raise ValueError("generator entries must be finite")
        self.center = _readonly(c)
        self.generators = _readonly(g)
        self.weights = _readonly(w)
        self.dim = c.shape[0]

    def _effective(self) -> np.ndarray:
        return self.weights[:, None] * self.generators

    def support_many(self, dirs) -> np.ndarray:
        # a row sum over contiguous rows is the pairwise sum of the 1-D np.sum
        u = _as_directions(dirs, self.dim)
        h = _row_dots(u, self.center)
        if self.generators.shape[0] == 0:
            return h
        return h + np.sum(np.abs(_row_dots(u, self._effective().T)), axis=1)

    def support_point(self, u) -> np.ndarray:
        u = _as_vector(u, self.dim)
        e = self._effective()
        if e.shape[0] == 0:
            return self.center.copy()
        s = np.sign(e @ u)
        return self.center + s @ e

    def translate(self, v) -> "Zonotope":
        v = _as_vector(v, self.dim)
        return Zonotope(self.center + v, self.generators, self.weights)


class Ball(ConvexSet, tag="ball", fields=("center", "radius")):
    """Euclidean ball with nonnegative radius."""

    def __init__(self, center, radius: float):
        c = _as_vector(center)
        r = float(radius)
        if not math.isfinite(r) or r < 0:
            raise ValueError("ball radius must be finite and nonnegative")
        self.center = _readonly(c)
        self.radius = r
        self.dim = c.shape[0]

    def support_many(self, dirs) -> np.ndarray:
        # the stacked matmul runs one ddot per row, the call of center @ u_i
        u = _as_directions(dirs, self.dim)
        dots = np.matmul(u[:, None, :], self.center[None, :, None])[..., 0, 0]
        return dots + self.radius * _ddot_norms(u)

    def support_point(self, u) -> np.ndarray:
        u = _as_vector(u, self.dim)
        nu = np.linalg.norm(u)
        if nu == 0:
            return self.center.copy()
        return self.center + (self.radius / nu) * u

    def translate(self, v) -> "Ball":
        v = _as_vector(v, self.dim)
        return Ball(self.center + v, self.radius)


class Box(ConvexSet, tag="box", fields=("lower", "upper")):
    """Axis-aligned box given by lower and upper corner vectors."""

    def __init__(self, lower, upper):
        lo = _as_vector(lower)
        hi = _as_vector(upper, lo.shape[0])
        if (lo > hi).any():
            raise ValueError("box lower bound exceeds upper bound")
        self.lower = _readonly(lo)
        self.upper = _readonly(hi)
        self.dim = lo.shape[0]

    def support_many(self, dirs) -> np.ndarray:
        return _box_support(self.lower, self.upper, _as_directions(dirs, self.dim))

    def support_point(self, u) -> np.ndarray:
        u = _as_vector(u, self.dim)
        return np.where(u >= 0, self.upper, self.lower).astype(float)

    def translate(self, v) -> "Box":
        v = _as_vector(v, self.dim)
        return Box(self.lower + v, self.upper + v)


def interval(lo: float, hi: float) -> Box:
    """One-dimensional box [lo, hi]."""
    return Box([float(lo)], [float(hi)])


def point_set(v) -> VertexPolytope:
    """Singleton set {v}."""
    return VertexPolytope([_as_vector(v)], prune=False)


def _check_same_dim(*sets: ConvexSet) -> int:
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch across sets: {sorted(dims)}")
    return dims.pop()


def _zonogon_vertices(z: Zonotope) -> np.ndarray:
    """Vertex ring of a 2-D zonotope, pruned counterclockwise."""
    e = z._effective()
    e = e[np.linalg.norm(e, axis=1) > 0]
    if e.shape[0] == 0:
        return z.center.reshape(1, 2)
    # normalize every generator into the upper half plane, sort by angle
    flip = (e[:, 1] < 0) | ((e[:, 1] == 0) & (e[:, 0] < 0))
    e = np.where(flip[:, None], -e, e)
    e = e[np.argsort(np.arctan2(e[:, 1], e[:, 0]), kind="stable")]
    start = z.center - e.sum(axis=0)
    forward = start + 2.0 * np.cumsum(e, axis=0)
    backward = forward[-1] - 2.0 * np.cumsum(e, axis=0)
    ring = np.vstack([start.reshape(1, 2), forward, backward])
    return convex_hull_2d(ring)


def vertices_of(c: ConvexSet) -> np.ndarray:
    """Vertex list for variants that have one (polytope, box, 2-D zonotope)."""
    if isinstance(c, VertexPolytope):
        return np.asarray(c.vertices)
    if isinstance(c, Box):
        corners = np.array(list(itertools.product(*zip(c.lower, c.upper))))
        return _prune_vertices(corners)
    if isinstance(c, Zonotope):
        if c.dim == 1:
            return _prune_vertices(np.array(bounds_of(c)))
        if c.dim == 2:
            return _zonogon_vertices(c)
        raise ValueError("zonotope vertex enumeration only implemented for dim <= 2")
    if isinstance(c, Ball):
        if c.radius == 0.0:
            return c.center.reshape(1, -1)
        raise ValueError("balls with positive radius have no finite vertex list")
    raise TypeError(f"unsupported set variant: {type(c).__name__}")


@functools.lru_cache(maxsize=32)
def _signed_axes(d: int) -> np.ndarray:
    """Rows e_1..e_d then -e_1..-e_d; + 0.0 turns the -0.0 off-diagonals of
    -eye into the +0.0 of np.zeros."""
    return _readonly(np.vstack([np.eye(d), -np.eye(d)]) + 0.0)


def bounds_of(c: ConvexSet) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise support bounds (the tightest axis-aligned box).

    The bounds are hi_j = h(e_j, C) and lo_j = -h(-e_j, C), read from one
    support_many call on all 2d signed axis directions.  support_many runs
    one ddot or dgemv per row and support is support_many on one row, so the
    bounds are bit-identical to the per-axis support loop, signed zeros
    included.
    """
    return _axis_bounds(c.support_many(_signed_axes(c.dim)))


def _axis_bounds(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) from the support values h on _signed_axes(d), which may
    carry leading axes."""
    d = h.shape[-1] // 2
    return -h[..., d:], h[..., :d]


def support(c: ConvexSet, u) -> float:
    """Support function h(u, C) = sup {u.y : y in C}."""
    return c.support(u)


def support_point(c: ConvexSet, u) -> np.ndarray:
    """A point of C attaining the support value in direction u."""
    return c.support_point(u)


def direction_grid(dim: int, n: int) -> np.ndarray:
    """Unit direction grid: +-1 in 1-D, uniform angles in 2-D, and a fixed
    pseudo-random spread in higher dimension (approximate coverage)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        th = 2.0 * np.pi * np.arange(n) / n
        return np.column_stack([np.cos(th), np.sin(th)])
    rng = np.random.default_rng(12345)  # fixed seed keeps grids reproducible
    u = rng.standard_normal((n, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _is_singleton(c: ConvexSet) -> np.ndarray | None:
    if isinstance(c, VertexPolytope) and c.vertices.shape[0] == 1:
        return c.vertices[0]
    if isinstance(c, Box) and np.array_equal(c.lower, c.upper):
        return np.asarray(c.lower)
    if isinstance(c, Ball) and c.radius == 0.0:
        return np.asarray(c.center)
    if isinstance(c, Zonotope) and np.all(c._effective() == 0.0):
        return np.asarray(c.center)
    return None


def _to_vertex_polytope(c: ConvexSet) -> VertexPolytope:
    """Vertex form of a set of dimension two or more; exact except for balls
    of positive radius, which are sampled on _N_DIRECTIONS directions."""
    if isinstance(c, VertexPolytope):
        return c
    if isinstance(c, Ball) and c.radius > 0.0:
        return VertexPolytope(c.center + c.radius * direction_grid(c.dim, _N_DIRECTIONS))
    return VertexPolytope(vertices_of(c), prune=False)


# Angular slack (radians) of the normal-cone pair filter in minkowski_sum.
_CONE_SLACK = 1e-9


def _vertex_arcs(v: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Per vertex of a 2-D ring: its incoming edge and the arc of edge
    directions from there to its outgoing edge, as (edge, arc start, arc
    length).  None unless the ring is counterclockwise with every turn (the
    cross product of a vertex's two edges) above floor and short of a half
    turn by twice _CONE_SLACK, and one turn in all."""
    e_out = np.concatenate((v[1:], v[:1])) - v
    e_in = np.concatenate((e_out[-1:], e_out[:-1]))
    turns = e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0]
    if not (turns > floor).all():  # also rejects repeated vertices
        return None
    angle = np.arctan2(e_in[:, 1], e_in[:, 0])
    length = np.concatenate((angle[1:], angle[:1])) - angle
    length += (length < 0.0) * (2.0 * np.pi)
    if (length >= np.pi - 2.0 * _CONE_SLACK).any() or abs(float(length.sum()) - 2.0 * np.pi) > np.pi:
        return None
    return e_in, angle, length


def _cone_pair_sums(va: np.ndarray, vb: np.ndarray) -> np.ndarray | None:
    """The sums va_i + vb_j whose vertex arcs meet within _CONE_SLACK; None
    where the hull of all m n sums could differ from theirs.

    A sum left out lies inside by at least a turn of one ring, or the cross
    product of an edge of each ring at a kept pair, over an edge length.
    Where each of those cross products clears the hull's collinearity
    tolerance and the rounding of its cross products (floor), no left-out sum
    can change a decision of convex_hull_2d.  Edges parallel within the slack
    are exempt, since their four sums are kept, but the hull's sweep in x
    must meet those on one line in their order along it: both edges step x
    the same way by more than rounding, or neither steps it.
    """
    scale = float(np.max(np.abs(va))) + float(np.max(np.abs(vb)))
    floor = 2.0 * HULL_COLLINEARITY_TOL + 2.0**-46 * scale * scale
    with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates: inf, nan
        arcs_a, arcs_b = _vertex_arcs(va, floor), _vertex_arcs(vb, floor)
        if arcs_a is None or arcs_b is None:
            return None
        (ea, sa, la), (eb, sb, lb) = arcs_a, arcs_b
        # d[i, j]: the angle from the incoming edge of va_i to that of vb_j;
        # two arcs meet when one of them holds the start of the other
        d = sb[None, :] - sa[:, None]
        d += (d < 0.0) * (2.0 * np.pi)
        meet = (d <= la[:, None] + _CONE_SLACK) | (d >= 2.0 * np.pi - _CONE_SLACK - lb[None, :])
        # the incoming edges that are an edge of a kept pair (outgoing = next incoming)
        near = meet | np.roll(meet, 1, axis=0)
        near |= np.roll(near, 1, axis=1)
        cross = np.abs(np.outer(ea[:, 0], eb[:, 1]) - np.outer(ea[:, 1], eb[:, 0]))
        parallel = (d <= _CONE_SLACK) | (d >= 2.0 * np.pi - _CONE_SLACK)
        # no spike (a turn within twice the slack of a half turn) puts an
        # antiparallel edge next in angle, so those need no margin either
        tilted = ~parallel & (np.abs(d - np.pi) > _CONE_SLACK)
        xa, xb = ea[:, 0], eb[:, 0]
        same_way = (np.outer(xa, xb) > 0.0) & (np.minimum.outer(np.abs(xa), np.abs(xb)) > 2.0**-44 * scale)
        in_order = same_way | np.outer(xa == 0.0, xb == 0.0)
        unsafe = (cross <= floor) & tilted | parallel & ~in_order
    if (unsafe & near).any():
        return None
    i, j = np.nonzero(meet)
    return va[i] + vb[j]


def minkowski_sum(a: ConvexSet, b: ConvexSet) -> ConvexSet:
    """Minkowski sum A + B.

    Matching variants use closed forms (boxes add bounds, balls add radii,
    zonotopes concatenate generators).  Singleton operands translate the
    other side exactly.  Remaining mixed pairs are promoted to vertex
    polytopes: exact in dimensions one and two except when a positive-radius
    ball is involved.  Above dimension two, a box and a zonotope sum exactly
    to a zonotope whose generators gain the box's half-width axes; any
    other pair with a ball or zonotope operand makes the sum
    support-sampled (approximate).

    In 2-D, a_i + b_j is a vertex of the sum only when the normal cones of
    a_i and b_j meet (de Berg et al., Computational Geometry, sec. 13.3), so
    two strictly convex counterclockwise rings hull only those about m + n
    sums, not all m n.  The cones need only meet within an angular slack:
    exactly parallel edges then keep all four collinear sums, which
    convex_hull_2d's collinearity tolerance weighs as it does among all m n
    sums, so the ring is bit-identical to the all-pairs one.  Rings with
    repeated, collinear or nearly collinear vertices (prune=False input), and
    pairs with features near that tolerance (see _cone_pair_sums), take all
    m n sums.
    """
    d = _check_same_dim(a, b)
    pa, pb = _is_singleton(a), _is_singleton(b)
    if pb is not None:
        return a.translate(pb)
    if pa is not None:
        return b.translate(pa)
    if isinstance(a, Box) and isinstance(b, Box):
        return Box(a.lower + b.lower, a.upper + b.upper)
    if isinstance(a, Ball) and isinstance(b, Ball):
        return Ball(a.center + b.center, a.radius + b.radius)
    if isinstance(a, Zonotope) and isinstance(b, Zonotope):
        return Zonotope(
            a.center + b.center,
            np.vstack([a.generators, b.generators]),
            np.concatenate([a.weights, b.weights]),
        )
    if d == 1:
        (alo, ahi), (blo, bhi) = bounds_of(a), bounds_of(b)
        return Box(alo + blo, ahi + bhi)
    if d > 2 and all(isinstance(c, (Box, Zonotope)) for c in (a, b)):
        box, z = (a, b) if isinstance(a, Box) else (b, a)
        return Zonotope(
            z.center + (box.lower + box.upper) / 2,
            np.vstack([z.generators, np.eye(d)]),
            np.concatenate([z.weights, (box.upper - box.lower) / 2]),
        )
    if d == 2 or not (isinstance(a, (Ball, Zonotope)) or isinstance(b, (Ball, Zonotope))):
        va = _to_vertex_polytope(a).vertices
        vb = _to_vertex_polytope(b).vertices
        sums = _cone_pair_sums(va, vb) if d == 2 else None
        if sums is None:
            sums = (va[:, None, :] + vb[None, :, :]).reshape(-1, d)
        return VertexPolytope(sums)  # pruned for d <= 2, redundant above
    # d > 2 with a ball, or a zonotope and a polytope (there is no zonotope
    # vertex enumeration above 2-D): inner support-sampled polytope
    dirs = direction_grid(d, _N_DIRECTIONS)
    pts = np.array([a.support_point(u) + b.support_point(u) for u in dirs])
    return VertexPolytope(pts, prune=False)


def scale(psi, c: ConvexSet) -> ConvexSet:
    """Image psi * C for a scalar or a matrix psi.

    Scalar scaling and matrix images of vertex-based variants are exact;
    matrix images of balls are exact only when the matrix is a scaled
    isometry, otherwise the ball is sampled on _N_DIRECTIONS directions.
    """
    p = np.asarray(psi, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("scale factor must be finite")
    if p.ndim == 0:
        s = float(p)
        if isinstance(c, VertexPolytope):
            return VertexPolytope(c.vertices * s, prune=(s < 0 and c.dim == 2))
        if isinstance(c, Zonotope):
            return Zonotope(c.center * s, c.generators, c.weights * s)
        if isinstance(c, Ball):
            return Ball(c.center * s, c.radius * abs(s))
        if isinstance(c, Box):
            lo, hi = c.lower * s, c.upper * s
            return Box(np.minimum(lo, hi), np.maximum(lo, hi))
        raise TypeError(f"unsupported set variant: {type(c).__name__}")
    if p.ndim != 2 or p.shape[1] != c.dim:
        raise ValueError(f"matrix factor must have shape (m, {c.dim})")
    if isinstance(c, Zonotope):
        return Zonotope(p @ c.center, c.generators @ p.T, c.weights)
    if isinstance(c, Ball):
        q = p.T @ p
        s2 = q[0, 0]
        if np.allclose(q, s2 * np.eye(c.dim), atol=1e-12):
            return Ball(p @ c.center, c.radius * math.sqrt(max(s2, 0.0)))
        pts = c.center + c.radius * direction_grid(c.dim, _N_DIRECTIONS)
        return VertexPolytope(pts @ p.T)  # approximate: sampled boundary
    verts = vertices_of(c)
    return VertexPolytope(verts @ p.T)


class TranslatedFamily(Sequence):
    """The family of sets body + s_i over the rows s_i of an (n, d) shift array.

    One value stands for all n sets.  weighted_minkowski_average reads the
    body and the shift array directly, so a family mean builds no per-set
    objects; indexing and iteration materialize body.translate(s_i) on access.
    """

    def __init__(self, body: ConvexSet, shifts):
        s = np.array(shifts, dtype=float)
        if s.ndim == 1:
            s = s.reshape(1, -1)
        if s.ndim != 2 or s.shape[1] != body.dim:
            raise ValueError(f"shift rows must have dimension {body.dim}, got shape {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("shift entries must be finite")
        self.body = body
        self.shifts = _readonly(s)
        self.dim = body.dim

    def __len__(self) -> int:
        return self.shifts.shape[0]

    def __getitem__(self, i: int) -> ConvexSet:
        return self.body.translate(self.shifts[i])

    def __iter__(self):
        return map(self.body.translate, self.shifts)


def translated_family(body: ConvexSet, shifts) -> TranslatedFamily:
    """Translate one set by each row of shifts, as one array-backed family.

    Equivalent as a sequence to [body.translate(s) for s in shifts].
    """
    return TranslatedFamily(body, shifts)


def _family_average(w: np.ndarray, family: TranslatedFamily) -> ConvexSet:
    """sum_i w_i (K + s_i) = (sum_i w_i) K + sum_i w_i s_i, read from arrays.

    Boxes and balls use the same closed forms, on the same (n, d) arrays, as
    the per-set path, so their means are bit-identical to it.
    """
    body, s = family.body, family.shifts
    if isinstance(body, Box):
        return Box(w @ (body.lower + s), w @ (body.upper + s))
    if isinstance(body, Ball):
        return Ball(w @ (body.center + s), float(w @ np.full(len(s), body.radius)))
    return scale(float(w.sum()), body).translate(w @ s)


def _facets_2d(c: ConvexSet) -> tuple[np.ndarray, np.ndarray]:
    """Outer halfplane description A x <= b of a 2-D set.

    Exact for polytopes, boxes, and zonotopes; balls are described by
    _N_DIRECTIONS tangent halfplanes (approximate).
    """
    if isinstance(c, Ball) and c.radius > 0.0:
        dirs = direction_grid(2, _N_DIRECTIONS)
        return dirs, dirs @ c.center + c.radius
    v = np.array([c.lower, c.upper]) if isinstance(c, Box) else vertices_of(c)
    if isinstance(c, Box) or v.shape[0] == 1:  # the four axis facets
        a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        return a, np.concatenate([v[-1], -v[0]])
    if v.shape[0] == 2:
        t = v[1] - v[0]
        t = t / np.linalg.norm(t)
        n = np.array([-t[1], t[0]])
        a = np.array([n, -n, t, -t])
        b = np.array([n @ v[0], -(n @ v[0]), max(t @ v[0], t @ v[1]), -min(t @ v[0], t @ v[1])])
        return a, b
    edges = np.roll(v, -1, axis=0) - v  # CCW ring
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    return normals, np.sum(normals * v, axis=1)


def _halfplane_vertices(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray | None:
    """Vertices of the bounded 2-D set {x : a x <= b}, or None when it is empty.

    An angle-sorted deque (de Berg et al., ch. 4) cuts a x <= b + tol in O(m log m),
    so points and segments survive as slivers; one m-by-k product finds the lines
    within 4 tol of tight at its k corners.  Returned: crossings (lower row first)
    of those line pairs with a x <= b + tol, repeats and interior points included.
    """
    bound = b + tol
    lines = np.column_stack([a, bound]) / np.hypot(a[:, 0], a[:, 1])[:, None]
    angle = np.arctan2(lines[:, 1], lines[:, 0])
    angle[angle < 1e-12 - np.pi] += 2.0 * np.pi  # directions at the cut sort together

    def corner(p, q):
        det = p[0] * q[1] - p[1] * q[0]
        return (p[2] * q[1] - q[2] * p[1]) / det, (p[0] * q[2] - q[0] * p[2]) / det

    def outside(h, v):  # no tolerance: a tolerant pop lets tangent chains drift out
        return h[0] * v[0] + h[1] * v[1] > h[2]

    dq: collections.deque = collections.deque()
    for h in lines[np.lexsort((lines[:, 2], angle))].tolist():
        while len(dq) > 1 and outside(h, corner(dq[-2], dq[-1])):
            dq.pop()
        while len(dq) > 1 and outside(h, corner(dq[0], dq[1])):
            dq.popleft()
        if dq and abs(dq[-1][0] * h[1] - dq[-1][1] * h[0]) <= 1e-12:
            if dq[-1][0] * h[0] + dq[-1][1] * h[1] < 0:
                return None  # antiparallel neighbours enclose nothing
            h = min(dq.pop(), h, key=lambda line: line[2])  # the tighter of two parallels
        dq.append(h)
    while len(dq) > 2 and outside(dq[0], corner(dq[-2], dq[-1])):
        dq.pop()
    while len(dq) > 2 and outside(dq[-1], corner(dq[0], dq[1])):
        dq.popleft()
    if len(dq) < 3 or abs(dq[-1][0] * dq[0][1] - dq[-1][1] * dq[0][0]) <= 1e-12:
        return None
    corners = np.array([corner(p, q) for p, q in zip(dq, list(dq)[1:] + [dq[0]])])
    near = a @ corners.T >= b[:, None] - 4.0 * tol
    # concurrent lines give many corners one near set: one corner per packed column
    corner_of = {col.tobytes(): k for k, col in enumerate(np.packbits(near, axis=0).T)}
    pairs = set()
    for k in corner_of.values():
        pairs.update(itertools.combinations(np.flatnonzero(near[:, k]).tolist(), 2))
    i, j = np.array(sorted(pairs)).T
    det = a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]
    ok = np.abs(det) > 1e-12
    xs = np.column_stack([b[i] * a[j, 1] - b[j] * a[i, 1], a[i, 0] * b[j] - a[j, 0] * b[i]])
    kept = [x for x in xs[ok] / det[ok, None] if (a @ x <= bound).all()]  # unbatched, as in the scan
    return np.array(kept) if kept else None


def _max_abs_bound(c: ConvexSet) -> float:
    """max_j max(|lo_j|, |hi_j|) over bounds_of(c)."""
    return float(np.max(np.abs(bounds_of(c))))


def _erosion_tol(c: ConvexSet, d: ConvexSet) -> float:
    """Emptiness slack absorbing accumulated rounding in width comparisons."""
    return _erosion_slack(_max_abs_bound(c), _max_abs_bound(d))


def _erosion_slack(c_bound, d_bound):
    """1e-12 * max(1, c_bound, d_bound), elementwise over arrays of bounds."""
    return 1e-12 * np.maximum(np.maximum(1.0, c_bound), d_bound)


def _box_erosion(clo, chi, dlo, dhi, tol):
    """Corners of the box erosion [clo, chi] - [dlo, dhi], or None if it is
    empty beyond tol.  Corners may carry leading axes, with tol broadcast
    against them."""
    lo, hi = clo - dlo, chi - dhi
    if np.any(lo > hi + tol):
        return None
    return np.minimum(lo, hi), np.maximum(lo, hi)


def minkowski_diff(c: ConvexSet, d: ConvexSet) -> ConvexSet | None:
    """Minkowski difference (erosion) C - D = {x : x + D subset of C}.

    Returns None when the erosion is empty.  Exact for 1-D intervals, box
    pairs, ball pairs, and 2-D facet descriptions (one angle-sorted halfplane
    intersection of the shifted facets); positive-radius 2-D balls in the eroded
    position and all sets above dimension two use sampled halfplanes (approximate).
    """
    dim = _check_same_dim(c, d)
    if isinstance(c, Box) and isinstance(d, Box):
        box = _box_erosion(c.lower, c.upper, d.lower, d.upper, _erosion_tol(c, d))
        return None if box is None else Box(*box)
    if isinstance(c, Ball) and isinstance(d, Ball):
        r = c.radius - d.radius
        return None if r < -_erosion_tol(c, d) else Ball(c.center - d.center, max(r, 0.0))
    if dim == 1:
        box = _box_erosion(*bounds_of(c), *bounds_of(d), _erosion_tol(c, d))
        return None if box is None else Box(*box)
    if dim == 2:
        a, b = _facets_2d(c)
        bt = b - d.support_many(a)
        verts = _halfplane_vertices(a, bt, 1e-9 * (1.0 + np.max(np.abs(bt))))
        return None if verts is None else VertexPolytope(verts)
    # d > 2: sampled outer halfplanes resolved by scipy (approximate)
    from scipy.optimize import linprog
    from scipy.spatial import HalfspaceIntersection

    dirs = direction_grid(dim, max(_N_DIRECTIONS, 4 * dim * dim))
    b = c.support_many(dirs) - d.support_many(dirs)
    norms = np.ones(len(dirs))
    res = linprog(
        np.concatenate([np.zeros(dim), [-1.0]]),
        A_ub=np.column_stack([dirs, norms]),
        b_ub=b,
        bounds=[(None, None)] * dim + [(None, None)],
        method="highs",
    )
    if not res.success:  # the radius is free, so the LP is feasible: the solver gave up
        raise SolverLimitError(f"erosion center LP failed with status {res.status}: {res.message}")
    if res.x[-1] < -1e-9:
        return None
    center, radius = res.x[:dim], res.x[-1]
    if radius <= 1e-9:
        return VertexPolytope(center.reshape(1, -1), prune=False)
    hs = HalfspaceIntersection(np.column_stack([dirs, -b]), center)
    return VertexPolytope(hs.intersections, prune=False)


def _affine_minimizer(b: np.ndarray) -> np.ndarray:
    """Weights of the least-norm point in the affine hull of the rows of b."""
    m = b.shape[0]
    g = b @ b.T
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = g
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:m]


def _min_norm_point(points: np.ndarray) -> np.ndarray:
    """Least-norm point of a convex hull via iterative affine-minimizer
    refinement over active vertex subsets (stops at a support gap <= _SUPPORT_GAP_TOL)."""
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0]
    if k == 1:
        return pts[0].copy()
    start = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
    active = [start]
    lam = np.array([1.0])
    x = pts[start].copy()
    for _ in range(_MIN_NORM_MAX_ITER):
        dots = pts @ x
        j = int(np.argmin(dots))
        # optimality certificate: min_j p_j.x >= |x|^2 - _SUPPORT_GAP_TOL
        if dots[j] >= x @ x - _SUPPORT_GAP_TOL or j in active:
            break
        active.append(j)
        lam = np.append(lam, 0.0)
        for _ in range(len(active) + 2):
            alpha = _affine_minimizer(pts[active])
            if np.all(alpha > 1e-12):
                lam = alpha
                break
            neg = alpha <= 1e-12
            steps = lam[neg] / (lam[neg] - alpha[neg])
            theta = float(np.min(steps[np.isfinite(steps)], initial=1.0))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * alpha
            lam[lam < 1e-12] = 0.0
            keep = lam > 0.0
            if keep.all():
                keep[int(np.argmin(lam))] = False  # force a drop to progress
            active = [a for a, k_ in zip(active, keep) if k_]
            lam = lam[keep]
            if len(active) == 0:  # numerical stall: restart from best vertex
                active = [j]
                lam = np.array([1.0])
                break
        lam = np.maximum(lam, 0.0)
        lam = lam / lam.sum()
        x = lam @ pts[active]
    else:
        raise SolverLimitError("min-norm point hit its iteration cap")
    return x


def _zonotope_bvls(z: Zonotope, x: np.ndarray) -> np.ndarray:
    """Nearest point of a zonotope to x, exactly: c + E't for the t in
    [-1, 1]^p that minimizes |c + E't - x|, a bounded-variable least-squares
    problem that BVLS solves by a finite active-set method (Stark & Parker,
    Computational Statistics 10, 1995)."""
    from scipy.optimize import lsq_linear  # imported here: it is slow to load

    e = z._effective()
    p = e.shape[0]
    if p == 0:
        return z.center.copy()
    # scipy's default cap of p steps falls short on a few valid inputs
    res = lsq_linear(e.T, x - z.center, bounds=(-1.0, 1.0), method="bvls", max_iter=10 * p + 10)
    if res.status < 1:
        raise SolverLimitError(f"zonotope projection failed: {res.message}")
    return z.center + res.x @ e


def _zonogon_nearest(z: Zonotope, x: np.ndarray) -> np.ndarray:
    """Nearest point of a zonogon by away-step conditional gradient with the
    exact support oracle (terminates on duality gap <= _SUPPORT_GAP_TOL); where the loop
    would stop at its cap, the exact _zonotope_bvls.

    It keeps the bits of the general loop, which tests/test_geometry.py keeps
    as its reference, at about a third of its cost, by taking the same steps:
    - coordinates are Python floats, which round as numpy's elementwise
      ops do, and the weighted vertex sum adds the rows in order, as
      np.add.reduce over axis 0 does;
    - every product whose bits enter an iterate or a choice is the general
      loop's BLAS product: the slope and squared length of a step, the
      generator signs of the forward vertex (one dgemv), the away vertex
      (the first argmax of one stacked np.matmul) and forward or away (the
      ddot of the away gap);
    - each vertex is built once per call;
    - the slope is the gap already at hand: the step direction is minus the
      vector that gap was taken on, and the ddot of a negated vector is the
      negated ddot, nonzero since the gap exceeds _SUPPORT_GAP_TOL.
    """
    e = z._effective()
    e = e[np.linalg.norm(e, axis=1) > 0]
    if e.shape[0] == 0:
        return z.center.copy()
    vertices: dict[bytes, tuple] = {}

    def vertex(grad: np.ndarray) -> tuple:
        # (key, p0, p1) of the vertex minimizing grad . p: generator sign -1
        # where e_i . grad > 0, else +1
        up = e.dot(grad) > 0.0
        key = up.tobytes()
        p = vertices.get(key)
        if p is None:
            p = vertices[key] = (key, *(z.center + np.where(up, -1.0, 1.0) @ e).tolist())
        return p

    x0, x1 = x.tolist()
    active = [vertex(-(x - z.center))]
    weights = [1.0]
    _, z0, z1 = active[0]
    stacked = None  # the active vertices as (k, 1, 2), built when needed
    for _ in range(_ZONOTOPE_NEAREST_MAX_ITER):
        grad = np.array((2.0 * (z0 - x0), 2.0 * (z1 - x1)))
        p_s = vertex(grad)
        to_s = np.array((z0 - p_s[1], z1 - p_s[2]))
        gap_fw = float(grad.dot(to_s))
        if gap_fw <= _SUPPORT_GAP_TOL:
            break
        if stacked is None:
            stacked = np.array([p[1:] for p in active])[:, None, :]
        a = int(np.matmul(stacked, grad).argmax())  # the away vertex: first maximizer of grad . p
        _, a0, a1 = active[a]
        w_a = weights[a]
        from_a = np.array((a0 - z0, a1 - z1))
        gap_away = float(grad.dot(from_a))
        is_fw = w_a >= 1.0 or gap_fw >= gap_away
        if is_fw:  # toward p_s
            slope, dd, gamma_max = gap_fw, float(to_s.dot(to_s)), 1.0
        else:  # away from active[a]
            slope, dd, gamma_max = gap_away, float(from_a.dot(from_a)), w_a / (1.0 - w_a)
        if dd <= 0.0:
            break
        gamma = min(max(slope / (2.0 * dd), 0.0), gamma_max)
        if gamma <= 0.0:
            break
        if is_fw:
            shrink = 1.0 - gamma
            weights = [w * shrink for w in weights]
            if p_s in active:
                weights[active.index(p_s)] += gamma
            else:
                active.append(p_s)
                weights.append(gamma)
                stacked = None
        else:
            grow = 1.0 + gamma
            weights = [w * grow for w in weights]
            weights[a] -= gamma
        if min(weights) <= 1e-14:
            keep = [i for i, w in enumerate(weights) if w > 1e-14]
            active = [active[i] for i in keep]
            weights = [weights[i] for i in keep]
            stacked = None
        total = sum(weights)
        weights = [w / total for w in weights]
        (_, q0, q1), w = active[0], weights[0]
        z0, z1 = w * q0, w * q1
        for w, (_, q0, q1) in zip(weights[1:], active[1:]):
            z0 += w * q0
            z1 += w * q1
    else:  # a rare stall
        return _zonotope_bvls(z, x)
    return np.array((z0, z1))


def project_point(x, c: ConvexSet) -> tuple[np.ndarray, float]:
    """Nearest point of C to x and the Euclidean distance.

    Boxes, balls and 1-D zonotopes use closed forms, a vertex polytope the
    min-norm point of its vertices; a zonotope in three or more dimensions is
    one bounded least-squares solve, and one in the plane runs the
    conditional-gradient loop of _zonogon_nearest, whose bits (each step
    and each choice made by the reference loop's BLAS products) the
    geometry-mix2d benchmark digests.
    """
    x = _as_vector(x, c.dim)
    if isinstance(c, Box):
        p = np.clip(x, c.lower, c.upper)
        return p, float(np.linalg.norm(x - p))
    if isinstance(c, Ball):
        delta = x - c.center
        nd = float(np.linalg.norm(delta))
        if nd <= c.radius:
            return x.copy(), 0.0
        p = c.center + (c.radius / nd) * delta
        return p, nd - c.radius
    if isinstance(c, VertexPolytope):
        y = _min_norm_point(c.vertices - x)
        return x + y, float(np.linalg.norm(y))
    if isinstance(c, Zonotope):
        if c.dim == 1:
            lo, hi = bounds_of(c)
            p = np.clip(x, lo, hi)
            return p, float(np.linalg.norm(x - p))
        p = _zonogon_nearest(c, x) if c.dim == 2 else _zonotope_bvls(c, x)
        return p, float(np.linalg.norm(x - p))
    raise TypeError(f"unsupported set variant: {type(c).__name__}")


def dist_point(x, c: ConvexSet) -> float:
    """Euclidean distance from a point to a set (zero inside)."""
    return project_point(x, c)[1]


def sq_dist_point(x, c: ConvexSet) -> float:
    """Squared Euclidean distance from a point to a set."""
    return dist_point(x, c) ** 2


def contains(c: ConvexSet, x) -> bool:
    """Membership test d(x, C) <= _CONTAINS_TOL (1e-9)."""
    return dist_point(x, c) <= _CONTAINS_TOL


def _gap_norms(xs: np.ndarray, lo: np.ndarray, hi: np.ndarray | None = None) -> np.ndarray:
    """Row norms of xs - clip(xs, lo, hi), or of xs - lo without hi, with the
    bits of np.linalg.norm(..., axis=1).

    Below 8 columns norm adds each row's squares left to right, and so does
    this loop over the coordinate columns.  It runs on columns because numpy's
    loop for an (n, d) - (d,) broadcast runs along the d-long rows (for 65k
    points in 2-D, 0.75 ms against 0.14 ms for the columns), and np.clip with
    (d,) bounds is slower still.  From 8 columns on, norm adds pairwise and
    runs as it is.
    """
    if xs.shape[1] >= 8:
        return np.linalg.norm(xs - (lo if hi is None else np.clip(xs, lo, hi)), axis=1)
    sq = np.zeros(xs.shape[0])
    for k, x in enumerate(np.ascontiguousarray(xs.T)):
        g = x - lo[k] if hi is None else x - np.clip(x, lo[k], hi[k])
        g *= g
        sq += g
    return np.sqrt(sq, out=sq)


def _dist_points_batch(xs: np.ndarray, c: ConvexSet) -> np.ndarray:
    """Vectorized distances from many points to one set (exact per variant).

    Boxes, balls and single points take _gap_norms.  A 2-D polygon takes one
    pass per edge in buffers allocated once, on the coordinate columns for the
    reason given there: the projection parameter is one dgemv, rel @ ab, on an
    (n, 2) buffer filled a column at a time, and the squared distance adds the
    squared coordinate gaps in norm's order.  sqrt is correctly rounded and
    monotone, so the minimum squared distance gives the bits of the minimum
    distance with one sqrt at the end.
    """
    xs = np.asarray(xs, dtype=float)
    if isinstance(c, Box):
        return _gap_norms(xs, c.lower, c.upper)
    if isinstance(c, Ball):
        return np.maximum(_gap_norms(xs, c.center) - c.radius, 0.0)
    if c.dim == 1:
        lo, hi = bounds_of(c)
        return np.maximum(np.maximum(lo[0] - xs[:, 0], xs[:, 0] - hi[0]), 0.0)
    if isinstance(c, Zonotope) and c.dim == 2:
        c = VertexPolytope(_zonogon_vertices(c), prune=False)
    if not (isinstance(c, VertexPolytope) and c.dim == 2):
        return np.array([dist_point(x, c) for x in xs])
    v = c.vertices
    if v.shape[0] == 1:
        return _gap_norms(xs, v[0])
    nxt = v[::-1] if v.shape[0] == 2 else np.roll(v, -1, axis=0)
    n = xs.shape[0]
    x, y = np.ascontiguousarray(xs.T)
    rel = np.empty((n, 2))
    t, gx, gy = np.empty(n), np.empty(n), np.empty(n)
    best = np.full(n, np.inf)  # squared distances until the final sqrt
    inside = np.full(n, v.shape[0] >= 3)
    for a, b in zip(v, nxt):
        ab = b - a
        denom = float(ab @ ab)
        np.subtract(x, a[0], out=rel[:, 0])
        np.subtract(y, a[1], out=rel[:, 1])
        if v.shape[0] >= 3:
            np.multiply(rel[:, 1], ab[0], out=gx)
            np.multiply(rel[:, 0], ab[1], out=gy)
            gx -= gy  # the cross product ab x rel
            inside &= gx >= -1e-12
        if denom > 0:
            np.matmul(rel, ab, out=t)
            t /= denom
            np.clip(t, 0.0, 1.0, out=t)
        else:
            t.fill(0.0)
        for g, p, a_k, ab_k in ((gx, x, a[0], ab[0]), (gy, y, a[1], ab[1])):
            np.multiply(t, ab_k, out=g)
            g += a_k  # the projection a + t ab
            np.subtract(p, g, out=g)
            g *= g
        gx += gy
        np.minimum(best, gx, out=best)
    best = np.sqrt(best, out=best)
    best[inside] = 0.0
    return best


def _box_directed_hausdorff(plo, phi, qlo, qhi):
    """max over the corners x of the box [plo, phi] of d(x, [qlo, qhi]),
    without listing the corners.  Corners may carry leading axes."""
    gap = np.maximum(np.abs(plo - np.clip(plo, qlo, qhi)), np.abs(phi - np.clip(phi, qlo, qhi)))
    return np.sqrt(np.add.reduce(gap * gap, axis=-1))


def hausdorff(c: ConvexSet, d: ConvexSet, n_directions: int = _N_DIRECTIONS) -> float:
    """Hausdorff distance between two compact convex sets.

    Exact in 1-D and for vertex-listed pairs (polytopes and boxes, where the
    directed suprema are attained at vertices) and ball pairs; other pairs
    use the support identity sup_u |h(u,C) - h(u,D)| on a direction grid
    (approximate, and coarser above dimension two).  The grid takes one
    support_many call per set: a stacked matmul that runs, row by row, the
    ddot or dgemv of a single support call, so the value has the bits of
    the per-direction loop.  A single dgemm (U @ V.T) would not.

    A box pair takes the farthest corner in closed form: the distance from
    a corner x of one box to the other box Q is |x - clip(x, Q)|, so each
    direction is sqrt(sum_j max(|gap at lower_j|, |gap at upper_j|)**2)
    with no corner list.  Rounding is monotone, so this is bit-identical to
    the maximum over all 2^d corners.  The 2-D vertex path it replaced ran
    the corners through convex_hull_2d, which drops real corners of a box
    thinner than about HULL_COLLINEARITY_TOL; there the old value was low,
    by at most about 2e-12.
    """
    dim = _check_same_dim(c, d)
    if dim == 1:
        (clo, chi), (dlo, dhi) = bounds_of(c), bounds_of(d)
        return float(np.maximum(np.abs(clo[0] - dlo[0]), np.abs(chi[0] - dhi[0])))
    if isinstance(c, Box) and isinstance(d, Box):
        cb, db = (c.lower, c.upper), (d.lower, d.upper)
        return float(max(_box_directed_hausdorff(*cb, *db), _box_directed_hausdorff(*db, *cb)))
    if isinstance(c, Ball) and isinstance(d, Ball):
        return float(_ddot_norms(c.center - d.center) + abs(c.radius - d.radius))
    vertex_kinds = (VertexPolytope, Box)
    if isinstance(c, vertex_kinds) and isinstance(d, vertex_kinds):
        vc = vertices_of(c)
        vd = vertices_of(d)
        fwd = max(_dist_points_batch(vc, d).max(), 0.0)
        bwd = max(_dist_points_batch(vd, c).max(), 0.0)
        return float(max(fwd, bwd))
    dirs = direction_grid(dim, n_directions)
    return float(np.max(np.abs(c.support_many(dirs) - d.support_many(dirs))))


@functools.lru_cache(maxsize=8)
def _distance_grid(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The Laguerre weights kept at _DISTANCE_R_CUTOFF and the point grid of
    integrated_distance, one equal block of points per kept node, read-only."""
    nodes, wts = np.polynomial.laguerre.laggauss(_DISTANCE_QUADRATURE)
    keep = nodes <= _DISTANCE_R_CUTOFF
    nodes, wts = nodes[keep], wts[keep]
    if dim > 1:
        dirs = direction_grid(dim, _DISTANCE_ANGLES)
        steps = np.arange(1, _DISTANCE_RADII + 1) / _DISTANCE_RADII
    blocks = []
    for r in nodes:
        if dim == 1:
            pts = np.linspace(-r, r, _DISTANCE_POINTS_1D).reshape(-1, 1)
        else:
            pts = ((r * steps)[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
            pts = np.vstack([np.zeros((1, dim)), pts])
        blocks.append(pts)
    return _readonly(np.vstack(blocks)), _readonly(wts)


def integrated_distance(c: ConvexSet, d: ConvexSet) -> float:
    """Exponentially weighted integral of windowed distance-function gaps.

    Computes int_0^inf D_r(C, D) e^{-r} dr where D_r is the maximum of
    |d(x, C) - d(x, D)| over the ball of radius r.  The inner maximum is
    evaluated on a radial-angular grid of _DISTANCE_RADII radii and
    _DISTANCE_ANGLES directions (_DISTANCE_POINTS_1D points in 1-D), and the
    outer integral uses the _DISTANCE_QUADRATURE Gauss-Laguerre nodes up to
    _DISTANCE_R_CUTOFF, so the result is a grid approximation.  The grid is
    built once per dimension.

    The grid is one equal block of points per kept node, and the pass walks
    it _DISTANCE_NODES_PER_BLOCK whole nodes at a time: per block, both sets'
    distances, their absolute gap and each node's maximum, then one
    left-to-right weighted sum over the nodes.  The whole 65,552-point 2-D
    grid needs about 4 MB of per-edge polygon buffers, twice a 2 MB per-core
    L2; four nodes (16,388 points) keep them in cache, and 12 geometry-mix2d
    ops took 65-70 ms instead of about 90 on a 2-CPU x86 host (1, 2 and 8
    nodes: 95-100, about 76 and 75-80 ms).  Every distance is elementwise
    per point plus one dgemv row, so the split moves no bit.
    """
    dim = _check_same_dim(c, d)
    allpts, wts = _distance_grid(dim)
    per_node = allpts.shape[0] // wts.shape[0]
    step = per_node * _DISTANCE_NODES_PER_BLOCK
    peaks = []
    for at in range(0, allpts.shape[0], step):
        pts = allpts[at : at + step]
        gap = np.abs(_dist_points_batch(pts, c) - _dist_points_batch(pts, d))
        peaks += gap.reshape(-1, per_node).max(axis=1).tolist()
    total = 0.0
    for w, peak in zip(wts.tolist(), peaks):
        total += w * peak
    return total


def weighted_minkowski_average(weights, sets, allow_zero_total: bool = False) -> ConvexSet:
    """Weighted Minkowski combination sum_i w_i * S_i for nonnegative weights.

    Shared-generator zonotopes combine by summing weights per generator, and
    boxes, balls, and 1-D intervals combine by weighted bounds; these closed
    forms agree with the general path, which folds pairwise scale-then-sum
    with hull pruning (qhull's extreme rows above dimension two).  An
    all-zero weight vector degenerates to {0} and is rejected unless
    allow_zero_total is set.

    A TranslatedFamily is averaged from its arrays as (sum w) K + w @ shifts,
    which keeps the body's vertex count; box and ball families give the same
    bits as the list of their translates.
    """
    w = np.asarray(weights, dtype=float)
    family = isinstance(sets, TranslatedFamily)
    if not family:
        sets = list(sets)
    if w.ndim != 1 or w.shape[0] != len(sets):
        raise ValueError("weights must be a vector matching the number of sets")
    if len(sets) == 0:
        raise ValueError("need at least one set")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    dim = sets.dim if family else _check_same_dim(*sets)
    if float(w.sum()) == 0.0:
        if allow_zero_total:
            return point_set(np.zeros(dim))
        raise ValueError("all-zero weight vector (pass allow_zero_total=True for {0})")
    if family:
        return _family_average(w, sets)
    if all(isinstance(s, Zonotope) for s in sets):
        g0 = sets[0].generators
        if all(
            s.generators.shape == g0.shape and np.array_equal(s.generators, g0)
            for s in sets
        ):
            center = w @ np.array([s.center for s in sets])
            zw = w @ np.array([s.weights for s in sets])
            return Zonotope(center, g0, zw)
    if all(isinstance(s, Box) for s in sets):
        lo = w @ np.array([s.lower for s in sets])
        hi = w @ np.array([s.upper for s in sets])
        return Box(lo, hi)
    if all(isinstance(s, Ball) for s in sets):
        center = w @ np.array([s.center for s in sets])
        radius = float(w @ np.array([s.radius for s in sets]))
        return Ball(center, radius)
    if dim == 1:
        b = np.array([np.concatenate(bounds_of(s)) for s in sets])
        return interval(float(w @ b[:, 0]), float(w @ b[:, 1]))
    acc: ConvexSet | None = None
    for wi, si in zip(w, sets):
        if wi == 0.0:  # 0 * S = {0}, the Minkowski identity element
            continue
        term = scale(wi, si)
        acc = term if acc is None else _extreme_rows(minkowski_sum(acc, term))
    assert acc is not None
    return acc


def _extreme_rows(c: ConvexSet) -> ConvexSet:
    """A vertex polytope in d >= 3 cut to the rows qhull finds extreme.

    Keeps a fold of sums from growing as the product of the vertex counts.
    The kept rows are input rows, unrounded; a flat point set that qhull
    rejects keeps all of its rows.
    """
    if not isinstance(c, VertexPolytope) or c.dim < 3:
        return c
    from scipy.spatial import ConvexHull, QhullError

    try:
        keep = ConvexHull(c.vertices).vertices
    except QhullError:
        return c
    return VertexPolytope(c.vertices[np.sort(keep)], prune=False)


def _refuse_bools(fields: dict, where: str) -> None:
    """Raise ValueError naming the first field of a parsed JSON record that
    is or nests a true or false, which float() would read as 1 or 0."""
    for key, value in fields.items():
        nested = [value]
        for v in nested:  # grows as lists and dicts are opened
            if isinstance(v, bool):
                raise ValueError(f"{where}{key} must hold numbers, not bools")
            if isinstance(v, (list, dict)):
                nested.extend(v.values() if isinstance(v, dict) else v)


def _record_fields(d, classes, what: str) -> tuple[type, dict]:
    """The class of classes tagged d["type"], and the other fields of d,
    which must be exactly the fields that class declares and hold no bool."""
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError(f"{what} record must be a dict with a 'type' field")
    fields = dict(d)
    kind = fields.pop("type")
    cls = next((c for c in classes if c._tag == kind), None)
    if cls is None:
        raise ValueError(f"unknown {what} type {kind!r}")
    if set(fields) != set(cls._fields):
        want, got = sorted(cls._fields), sorted(fields)
        raise ValueError(f"{what} type {kind!r} expects fields {want}, got {got}")
    _refuse_bools(fields, "")
    return cls, fields


def set_to_dict(c: ConvexSet) -> dict:
    """JSON-ready dictionary form of a set."""
    return c.to_dict()


def set_from_dict(d: dict) -> ConvexSet:
    """Set parsed from its dictionary form (inverse of set_to_dict)."""
    cls, fields = _record_fields(d, (VertexPolytope, Zonotope, Ball, Box), "set")
    if cls is Zonotope:  # a flat list is one generator; an empty one has the center's length
        g = np.asarray(fields["generators"], dtype=float)
        if g.ndim == 1:
            fields["generators"] = g.reshape(-1, g.size or np.size(fields["center"]))
    return cls(**fields)


def set_to_json(c: ConvexSet) -> str:
    """Single-line JSON encoding (floats use shortest round-trip form)."""
    return json.dumps(set_to_dict(c), separators=(", ", ": "))


def set_from_json(s: str) -> ConvexSet:
    """Set parsed from its JSON encoding."""
    return set_from_dict(json.loads(s))


def _grid_count(lo: float, hi: float, step: float) -> int | float:
    """The number of points of _grid_axis(lo, hi, step); +inf when
    (hi - lo) / step overflows."""
    k = (hi - lo) / step + 1e-9
    return math.floor(k) + 1 if k < math.inf else math.inf


def _grid_axis(lo: float, hi: float, step: float) -> np.ndarray:
    """lo + step * k for k = 0, 1, ... up to the last point at or below hi,
    which it may pass by a rounding error of about 1e-9 step."""
    return lo + step * np.arange(_grid_count(lo, hi, step))
