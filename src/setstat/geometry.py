"""Compact convex set representations and Minkowski arithmetic.

Sets are represented by one of four variants: vertex polytopes, zonotopes
(center plus weighted segment generators), Euclidean balls, and axis-aligned
boxes.  Exact vertex and facet manipulation is implemented for dimensions one
and two; higher dimensions fall back to support-function sampling and the
affected routines document the approximation.  All coordinates are float64
and instances are immutable once constructed.

A family of translates K + s_i of one body is a single TranslatedFamily
value: the body plus an (n, d) shift array.  It is a sequence that
materializes each translate on access, and weighted_minkowski_average
takes its mean from the arrays; for Box and Ball bodies that mean is
byte-identical to the mean of the materialized translates.
"""

from __future__ import annotations

import collections
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

_SUPPORT_GAP_TOL = 1e-10

# Iteration caps of the projection solvers; reaching one raises SolverLimitError.
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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def convex_hull_2d(points, tol: float = HULL_COLLINEARITY_TOL) -> np.ndarray:
    """Extreme points of a 2-D point cloud, counterclockwise from the
    lexicographic minimum, via the monotone chain construction."""
    pts = _as_points(points)
    if pts.shape[1] != 2:
        raise ValueError("convex_hull_2d expects 2-D points")
    pts = np.unique(pts, axis=0)  # lexicographic sort with exact dedup
    if pts.shape[0] == 1:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out: list[np.ndarray] = []
        for p in seq:
            # pop until a strict right turn survives; ties within tol are
            # collinear and the middle point is dropped
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= tol:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all points collinear within tol: keep the two extremes
        hull = [pts[0], pts[-1]]
    return np.asarray(hull, dtype=float)


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


class ConvexSet:
    """Base class; concrete variants implement support evaluation."""

    dim: int

    def support(self, u) -> float:
        raise NotImplementedError

    def support_point(self, u) -> np.ndarray:
        raise NotImplementedError

    def translate(self, v) -> "ConvexSet":
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_dict()})"


class VertexPolytope(ConvexSet):
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

    def support(self, u) -> float:
        u = _as_vector(u, self.dim)
        return float(np.max(self.vertices @ u))

    def support_point(self, u) -> np.ndarray:
        u = _as_vector(u, self.dim)
        return self.vertices[int(np.argmax(self.vertices @ u))].copy()

    def translate(self, v) -> "VertexPolytope":
        v = _as_vector(v, self.dim)
        return VertexPolytope(self.vertices + v, prune=False)

    def to_dict(self) -> dict:
        return {"type": "vpoly", "vertices": self.vertices.tolist()}


class Zonotope(ConvexSet):
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

    def support(self, u) -> float:
        u = _as_vector(u, self.dim)
        if self.generators.shape[0] == 0:
            return float(self.center @ u)
        return float(self.center @ u + np.sum(np.abs(self._effective() @ u)))

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

    def to_dict(self) -> dict:
        return {
            "type": "zonotope",
            "center": self.center.tolist(),
            "generators": self.generators.tolist(),
            "weights": self.weights.tolist(),
        }


class Ball(ConvexSet):
    """Euclidean ball with nonnegative radius."""

    def __init__(self, center, radius: float):
        c = _as_vector(center)
        r = float(radius)
        if not math.isfinite(r) or r < 0:
            raise ValueError("ball radius must be finite and nonnegative")
        self.center = _readonly(c)
        self.radius = r
        self.dim = c.shape[0]

    def support(self, u) -> float:
        u = _as_vector(u, self.dim)
        return float(self.center @ u + self.radius * np.linalg.norm(u))

    def support_point(self, u) -> np.ndarray:
        u = _as_vector(u, self.dim)
        nu = np.linalg.norm(u)
        if nu == 0:
            return self.center.copy()
        return self.center + (self.radius / nu) * u

    def translate(self, v) -> "Ball":
        v = _as_vector(v, self.dim)
        return Ball(self.center + v, self.radius)

    def to_dict(self) -> dict:
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}


class Box(ConvexSet):
    """Axis-aligned box given by lower and upper corner vectors."""

    def __init__(self, lower, upper):
        lo = _as_vector(lower)
        hi = _as_vector(upper, lo.shape[0])
        if (lo > hi).any():
            raise ValueError("box lower bound exceeds upper bound")
        self.lower = _readonly(lo)
        self.upper = _readonly(hi)
        self.dim = lo.shape[0]

    def support(self, u) -> float:
        u = _as_vector(u, self.dim)
        return float(np.sum(np.where(u >= 0, self.upper, self.lower) * u))

    def support_point(self, u) -> np.ndarray:
        u = _as_vector(u, self.dim)
        return np.where(u >= 0, self.upper, self.lower).astype(float)

    def translate(self, v) -> "Box":
        v = _as_vector(v, self.dim)
        return Box(self.lower + v, self.upper + v)

    def to_dict(self) -> dict:
        return {"type": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}


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
        if c.dim == 1:
            return _prune_vertices(np.array([c.lower, c.upper]))
        corners = np.array(list(itertools.product(*zip(c.lower, c.upper))))
        return _prune_vertices(corners)
    if isinstance(c, Zonotope):
        if c.dim == 1:
            lo = -c.support(np.array([-1.0]))
            hi = c.support(np.array([1.0]))
            return _prune_vertices(np.array([[lo], [hi]]))
        if c.dim == 2:
            return _zonogon_vertices(c)
        raise ValueError("zonotope vertex enumeration only implemented for dim <= 2")
    if isinstance(c, Ball):
        if c.radius == 0.0:
            return c.center.reshape(1, -1)
        raise ValueError("balls with positive radius have no finite vertex list")
    raise TypeError(f"unsupported set variant: {type(c).__name__}")


def bounds_of(c: ConvexSet) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise support bounds (the tightest axis-aligned box)."""
    d = c.dim
    lo = np.empty(d)
    hi = np.empty(d)
    for j in range(d):
        u = np.zeros(d)
        u[j] = 1.0
        hi[j] = c.support(u)
        u[j] = -1.0
        lo[j] = -c.support(u)
    return lo, hi


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


def _to_vertex_polytope(c: ConvexSet, n_directions: int) -> VertexPolytope:
    """Vertex form of a set; exact except for balls of positive radius in
    dimension two and above, which are sampled on a direction grid."""
    if isinstance(c, VertexPolytope):
        return c
    if isinstance(c, Ball) and c.radius > 0.0:
        if c.dim == 1:
            return VertexPolytope(
                [[c.center[0] - c.radius], [c.center[0] + c.radius]], prune=False
            )
        pts = c.center + c.radius * direction_grid(c.dim, n_directions)
        return VertexPolytope(pts)
    return VertexPolytope(vertices_of(c), prune=False)


def minkowski_sum(a: ConvexSet, b: ConvexSet, n_directions: int = 360) -> ConvexSet:
    """Minkowski sum A + B.

    Matching variants use closed forms (boxes add bounds, balls add radii,
    zonotopes concatenate generators).  Singleton operands translate the
    other side exactly.  Remaining mixed pairs are promoted to vertex
    polytopes: exact in dimensions one and two except when a positive-radius
    ball is involved, and support-sampled (approximate) above dimension two.
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
        alo, ahi = bounds_of(a)
        blo, bhi = bounds_of(b)
        return interval(alo[0] + blo[0], ahi[0] + bhi[0])
    if d == 2 or (
        not isinstance(a, Ball) and not isinstance(b, Ball)
    ):
        va = _to_vertex_polytope(a, n_directions).vertices
        vb = _to_vertex_polytope(b, n_directions).vertices
        sums = (va[:, None, :] + vb[None, :, :]).reshape(-1, d)
        return VertexPolytope(sums)  # pruned for d <= 2, redundant above
    # d > 2 with a positive-radius ball: inner support-sampled polytope
    dirs = direction_grid(d, n_directions)
    pts = np.array([a.support_point(u) + b.support_point(u) for u in dirs])
    return VertexPolytope(pts, prune=False)


def scale(psi, c: ConvexSet, n_directions: int = 360) -> ConvexSet:
    """Image psi * C for a scalar or a matrix psi.

    Scalar scaling and matrix images of vertex-based variants are exact;
    matrix images of balls are exact only when the matrix is a scaled
    isometry, otherwise the ball is sampled on a direction grid.
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
        pts = c.center + c.radius * direction_grid(c.dim, n_directions)
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


def _facets_2d(c: ConvexSet, n_directions: int) -> tuple[np.ndarray, np.ndarray]:
    """Outer halfplane description A x <= b of a 2-D set.

    Exact for polytopes, boxes, and zonotopes; balls are described by
    n_directions tangent halfplanes (approximate).
    """
    if isinstance(c, Ball) and c.radius > 0.0:
        dirs = direction_grid(2, n_directions)
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
    pairs = set()  # concurrent lines give many corners one near set
    for near in np.unique(a @ corners.T >= b[:, None] - 4.0 * tol, axis=1).T:
        pairs.update(itertools.combinations(np.flatnonzero(near).tolist(), 2))
    i, j = np.array(sorted(pairs)).T
    det = a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]
    ok = np.abs(det) > 1e-12
    xs = np.column_stack([b[i] * a[j, 1] - b[j] * a[i, 1], a[i, 0] * b[j] - a[j, 0] * b[i]])
    kept = [x for x in xs[ok] / det[ok, None] if (a @ x <= bound).all()]  # unbatched, as in the scan
    return np.array(kept) if kept else None


def _erosion_tol(c: ConvexSet, d: ConvexSet) -> float:
    """Emptiness slack absorbing accumulated rounding in width comparisons."""
    scale_ref = max(
        1.0,
        float(np.max(np.abs(bounds_of(c)))),
        float(np.max(np.abs(bounds_of(d)))),
    )
    return 1e-12 * scale_ref


def minkowski_diff(c: ConvexSet, d: ConvexSet, n_directions: int = 360) -> ConvexSet | None:
    """Minkowski difference (erosion) C - D = {x : x + D subset of C}.

    Returns None when the erosion is empty.  Exact for 1-D intervals, box
    pairs, ball pairs, and 2-D facet descriptions (one angle-sorted halfplane
    intersection of the shifted facets); positive-radius 2-D balls in the eroded
    position and all sets above dimension two use sampled halfplanes (approximate).
    """
    dim = _check_same_dim(c, d)
    if isinstance(c, Box) and isinstance(d, Box):
        lo = c.lower - d.lower
        hi = c.upper - d.upper
        tol = _erosion_tol(c, d)
        if np.any(lo > hi + tol):
            return None
        return Box(np.minimum(lo, hi), np.maximum(lo, hi))
    if isinstance(c, Ball) and isinstance(d, Ball):
        r = c.radius - d.radius
        if r < -_erosion_tol(c, d):
            return None
        return Ball(c.center - d.center, max(r, 0.0))
    if dim == 1:
        clo, chi = bounds_of(c)
        dlo, dhi = bounds_of(d)
        lo, hi = clo[0] - dlo[0], chi[0] - dhi[0]
        if lo > hi + _erosion_tol(c, d):
            return None
        return interval(min(lo, hi), max(lo, hi))
    if dim == 2:
        a, b = _facets_2d(c, n_directions)
        bt = b - np.array([d.support(row) for row in a])
        verts = _halfplane_vertices(a, bt, 1e-9 * (1.0 + np.max(np.abs(bt))))
        return None if verts is None else VertexPolytope(verts)
    # d > 2: sampled outer halfplanes resolved by scipy (approximate)
    from scipy.optimize import linprog
    from scipy.spatial import HalfspaceIntersection

    dirs = direction_grid(dim, max(n_directions, 4 * dim * dim))
    b = np.array([c.support(u) - d.support(u) for u in dirs])
    norms = np.ones(len(dirs))
    res = linprog(
        np.concatenate([np.zeros(dim), [-1.0]]),
        A_ub=np.column_stack([dirs, norms]),
        b_ub=b,
        bounds=[(None, None)] * dim + [(None, None)],
        method="highs",
    )
    if not res.success or res.x[-1] < -1e-9:
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


def _min_norm_point(points: np.ndarray, tol: float = _SUPPORT_GAP_TOL) -> np.ndarray:
    """Least-norm point of a convex hull via iterative affine-minimizer
    refinement over active vertex subsets (terminates on support gap <= tol)."""
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
        # optimality certificate: min_j p_j.x >= |x|^2 - tol
        if dots[j] >= x @ x - tol or j in active:
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


def _zonotope_nearest(z: Zonotope, x: np.ndarray, tol: float = _SUPPORT_GAP_TOL) -> np.ndarray:
    """Nearest point of a zonotope by away-step conditional gradient with the
    exact support oracle (terminates on duality gap <= tol)."""
    e = z._effective()
    e = e[np.linalg.norm(e, axis=1) > 0]
    if e.shape[0] == 0:
        return z.center.copy()

    def extreme_min(direction: np.ndarray) -> tuple[bytes, np.ndarray]:
        s = -np.sign(e @ direction)
        s[s == 0] = 1.0
        return s.tobytes(), z.center + s @ e

    key0, p0 = extreme_min(-(x - z.center))
    active: dict[bytes, np.ndarray] = {key0: p0}
    weights: dict[bytes, float] = {key0: 1.0}
    zc = p0.copy()
    for _ in range(_ZONOTOPE_NEAREST_MAX_ITER):
        grad = 2.0 * (zc - x)
        key_s, p_s = extreme_min(grad)
        gap_fw = float(grad @ (zc - p_s))
        if gap_fw <= tol:
            break
        key_a = max(active, key=lambda k: float(grad @ active[k]))
        p_a = active[key_a]
        gap_away = float(grad @ (p_a - zc))
        if gap_fw >= gap_away:
            direction = p_s - zc
            gamma_max = 1.0
            is_fw = True
        else:
            direction = zc - p_a
            w_a = weights[key_a]
            if w_a >= 1.0:
                direction = p_s - zc
                gamma_max = 1.0
                is_fw = True
            else:
                gamma_max = w_a / (1.0 - w_a)
                is_fw = False
        dd = float(direction @ direction)
        if dd <= 0.0:
            break
        gamma = min(max(-float(grad @ direction) / (2.0 * dd), 0.0), gamma_max)
        if gamma <= 0.0:
            break
        if is_fw:
            for k in weights:
                weights[k] *= 1.0 - gamma
            weights[key_s] = weights.get(key_s, 0.0) + gamma
            active[key_s] = p_s
        else:
            for k in weights:
                weights[k] *= 1.0 + gamma
            weights[key_a] -= gamma
        drop = [k for k, w in weights.items() if w <= 1e-14]
        for k in drop:
            weights.pop(k)
            active.pop(k)
        total = sum(weights.values())
        for k in weights:
            weights[k] /= total
        zc = np.sum([w * active[k] for k, w in weights.items()], axis=0)
    else:
        raise SolverLimitError("zonotope projection hit its iteration cap")
    return zc


def project_point(x, c: ConvexSet) -> tuple[np.ndarray, float]:
    """Nearest point of C to x and the Euclidean distance."""
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
        p = _zonotope_nearest(c, x)
        return p, float(np.linalg.norm(x - p))
    raise TypeError(f"unsupported set variant: {type(c).__name__}")


def dist_point(x, c: ConvexSet) -> float:
    """Euclidean distance from a point to a set (zero inside)."""
    return project_point(x, c)[1]


def sq_dist_point(x, c: ConvexSet) -> float:
    """Squared Euclidean distance from a point to a set."""
    return dist_point(x, c) ** 2


def contains(c: ConvexSet, x, tol: float = 1e-9) -> bool:
    """Membership test d(x, C) <= tol."""
    return dist_point(x, c) <= tol


def _dist_points_batch(xs: np.ndarray, c: ConvexSet) -> np.ndarray:
    """Vectorized distances from many points to one set (exact per variant)."""
    xs = np.asarray(xs, dtype=float)
    if isinstance(c, Box):
        p = np.clip(xs, c.lower, c.upper)
        return np.linalg.norm(xs - p, axis=1)
    if isinstance(c, Ball):
        return np.maximum(np.linalg.norm(xs - c.center, axis=1) - c.radius, 0.0)
    if c.dim == 1:
        lo, hi = bounds_of(c)
        return np.maximum(np.maximum(lo[0] - xs[:, 0], xs[:, 0] - hi[0]), 0.0)
    if isinstance(c, Zonotope) and c.dim == 2:
        c = VertexPolytope(_zonogon_vertices(c), prune=False)
    if isinstance(c, VertexPolytope) and c.dim == 2:
        v = c.vertices
        if v.shape[0] == 1:
            return np.linalg.norm(xs - v[0], axis=1)
        nxt = np.roll(v, -1, axis=0)
        if v.shape[0] == 2:
            nxt = v[::-1]
        best = np.full(xs.shape[0], np.inf)
        inside = np.ones(xs.shape[0], dtype=bool) if v.shape[0] >= 3 else np.zeros(xs.shape[0], dtype=bool)
        for a, b in zip(v, nxt):
            ab = b - a
            denom = float(ab @ ab)
            rel = xs - a
            if v.shape[0] >= 3:
                crossv = ab[0] * rel[:, 1] - ab[1] * rel[:, 0]
                inside &= crossv >= -1e-12
            t = np.clip(rel @ ab / denom, 0.0, 1.0) if denom > 0 else np.zeros(xs.shape[0])
            proj = a + t[:, None] * ab
            best = np.minimum(best, np.linalg.norm(xs - proj, axis=1))
        best[inside] = 0.0
        return best
    return np.array([dist_point(x, c) for x in xs])


def hausdorff(c: ConvexSet, d: ConvexSet, n_directions: int = 360) -> float:
    """Hausdorff distance between two compact convex sets.

    Exact in 1-D and for vertex-listed pairs (polytopes and boxes, where the
    directed suprema are attained at vertices) and ball pairs; other pairs
    use the support identity sup_u |h(u,C) - h(u,D)| on a direction grid
    (approximate, and coarser above dimension two).
    """
    dim = _check_same_dim(c, d)
    if dim == 1:
        clo, chi = bounds_of(c)
        dlo, dhi = bounds_of(d)
        return max(abs(clo[0] - dlo[0]), abs(chi[0] - dhi[0]))
    if isinstance(c, Ball) and isinstance(d, Ball):
        return float(np.linalg.norm(c.center - d.center)) + abs(c.radius - d.radius)
    vertex_kinds = (VertexPolytope, Box)
    if isinstance(c, vertex_kinds) and isinstance(d, vertex_kinds):
        vc = vertices_of(c)
        vd = vertices_of(d)
        fwd = max(_dist_points_batch(vc, d).max(), 0.0)
        bwd = max(_dist_points_batch(vd, c).max(), 0.0)
        return float(max(fwd, bwd))
    dirs = direction_grid(dim, n_directions)
    hc = np.array([c.support(u) for u in dirs])
    hd = np.array([d.support(u) for u in dirs])
    return float(np.max(np.abs(hc - hd)))


def integrated_distance(
    c: ConvexSet,
    d: ConvexSet,
    n_radii: int = 64,
    n_angles: int = 64,
    n_points_1d: int = 128,
    n_quadrature: int = 32,
    r_cutoff: float = 20.0,
) -> float:
    """Exponentially weighted integral of windowed distance-function gaps.

    Computes int_0^inf D_r(C, D) e^{-r} dr where D_r is the maximum of
    |d(x, C) - d(x, D)| over the ball of radius r.  The inner maximum is
    evaluated on a radial-angular grid (a symmetric point grid in 1-D) and
    the outer integral uses Gauss-Laguerre nodes truncated at r_cutoff, so
    the result is a grid approximation controlled by the resolution
    arguments.
    """
    dim = _check_same_dim(c, d)
    nodes, wts = np.polynomial.laguerre.laggauss(n_quadrature)
    keep = nodes <= r_cutoff
    nodes, wts = nodes[keep], wts[keep]
    blocks = []
    for r in nodes:
        if dim == 1:
            pts = np.linspace(-r, r, n_points_1d).reshape(-1, 1)
        else:
            dirs = direction_grid(dim, n_angles)
            radii = r * (np.arange(1, n_radii + 1) / n_radii)
            pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
            pts = np.vstack([np.zeros((1, dim)), pts])
        blocks.append(pts)
    sizes = [b.shape[0] for b in blocks]
    allpts = np.vstack(blocks)
    gap = np.abs(_dist_points_batch(allpts, c) - _dist_points_batch(allpts, d))
    total = 0.0
    at = 0
    for w, size in zip(wts, sizes):
        total += w * float(gap[at : at + size].max())
        at += size
    return total


def weighted_minkowski_average(
    weights, sets, allow_zero_total: bool = False, n_directions: int = 360
) -> ConvexSet:
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
        term = scale(wi, si, n_directions)
        acc = term if acc is None else _extreme_rows(minkowski_sum(acc, term, n_directions))
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


_VARIANTS = {"vpoly", "zonotope", "ball", "box"}


def set_to_dict(c: ConvexSet) -> dict:
    """JSON-ready dictionary form of a set."""
    return c.to_dict()


def set_from_dict(d: dict) -> ConvexSet:
    """Set parsed from its dictionary form (inverse of set_to_dict)."""
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError("set dictionary must contain a 'type' field")
    kind = d["type"]
    if kind not in _VARIANTS:
        raise ValueError(f"unknown set type: {kind!r}")
    fields = {k for k in d if k != "type"}
    expected = {
        "vpoly": {"vertices"},
        "zonotope": {"center", "generators", "weights"},
        "ball": {"center", "radius"},
        "box": {"lower", "upper"},
    }[kind]
    if fields != expected:
        raise ValueError(f"set type {kind!r} expects fields {sorted(expected)}, got {sorted(fields)}")
    if kind == "vpoly":
        return VertexPolytope(d["vertices"])
    if kind == "zonotope":
        g = np.asarray(d["generators"], dtype=float)
        if g.ndim == 1:
            g = g.reshape(0, 1) if g.size == 0 else g.reshape(1, -1)
        return Zonotope(d["center"], g, d["weights"])
    if kind == "ball":
        return Ball(d["center"], d["radius"])
    return Box(d["lower"], d["upper"])


def set_to_json(c: ConvexSet) -> str:
    """Single-line JSON encoding (floats use shortest round-trip form)."""
    return json.dumps(set_to_dict(c), separators=(", ", ": "))


def set_from_json(s: str) -> ConvexSet:
    """Set parsed from its JSON encoding."""
    return set_from_dict(json.loads(s))
