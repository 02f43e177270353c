"""Seeded set batch and op list of the geometry-mix2d workload.

The batch holds 2-D polygons with 6 to 20 vertices, zonogons, balls and
boxes, plus a small slice of 3-D polytopes and boxes.  The ops are the five
public geometry calls ``minkowski_sum``, ``minkowski_diff``, ``hausdorff``,
``project_point`` and ``integrated_distance``; one op is one item.  Two
(polygon + ball) - ball erosions sit in the list because they are what the
O(m^3) 2-D erosion and the sampled-ball path spend their time on.  Shape
sizes are fixed per slot and only coordinates come from the seed, so every
seed asks for the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from setstat import geometry

POLYGON_SIZES = (6, 8, 10, 12, 14, 16, 18, 20)
ZONOGON_GENERATORS = (3, 4, 5, 6)
POLYTOPE3_SIZES = (8, 10, 12)

# op class -> how many ops of it one batch holds
COUNTS = {
    "sum_2d": 48,
    "sum_3d": 8,
    "diff_erosion": 2,  # (polygon + ball) - ball
    "diff_2d": 24,
    "diff_3d": 2,
    "hausdorff_2d": 64,
    "hausdorff_3d": 6,
    "project_2d": 240,
    "project_zonogon": 150,
    "project_3d": 40,
    "integrated_2d": 12,
}

OP_FUNCTIONS = {
    "sum": "minkowski_sum",
    "diff": "minkowski_diff",
    "hausdorff": "hausdorff",
    "project": "project_point",
    "integrated": "integrated_distance",
}


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _polygon(rng, k: int):
    # points on an ellipse are all extreme, so the hull keeps all k of them
    th = (np.arange(k) + rng.uniform(-0.3, 0.3, k)) * (2.0 * math.pi / k)
    ring = np.column_stack([np.cos(th), np.sin(th)])
    shape = _rotation(rng.uniform(0, math.pi)) @ np.diag(rng.uniform(0.6, 1.6, 2))
    return geometry.VertexPolytope(ring @ shape.T + rng.uniform(-1.0, 1.0, 2))


def _zonogon(rng, p: int):
    # generator directions spread over the half circle: nearly parallel
    # generators would make projection-solver iterations swing by seed
    th = (np.arange(p) + rng.uniform(-0.25, 0.25, p)) * (math.pi / p)
    gens = np.column_stack([np.cos(th), np.sin(th)]) * rng.uniform(0.5, 1.5, (p, 1))
    return geometry.Zonotope(rng.uniform(-1.0, 1.0, 2), gens, rng.uniform(0.2, 1.0, p))


def _ball(rng):
    return geometry.Ball(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.3, 1.2))


def _box(rng, dim: int):
    c = rng.uniform(-1.0, 1.0, dim)
    half = rng.uniform(0.2, 1.2, dim)
    return geometry.Box(c - half, c + half)


def _polytope3(rng, k: int):
    u = rng.normal(size=(k, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return geometry.VertexPolytope(u * rng.uniform(0.6, 1.6, 3) + rng.uniform(-1, 1, 3))


def build_ops(seed: int) -> list[tuple[str, tuple]]:
    """The op list for one seed: (op class, positional arguments) pairs.

    Which variants meet in each op follows a fixed rotation; the seed only
    moves coordinates, radii and query points.
    """
    rng = np.random.default_rng(seed)
    polygons = [_polygon(rng, k) for k in POLYGON_SIZES]
    zonogons = [_zonogon(rng, p) for p in ZONOGON_GENERATORS]
    balls = [_ball(rng) for _ in range(4)]
    boxes = [_box(rng, 2) for _ in range(4)]
    variants2 = (polygons, zonogons, balls, boxes)
    pairs2 = [(a, b) for a in variants2 for b in variants2]
    shapes2 = polygons + zonogons + balls + boxes
    polytopes3 = [_polytope3(rng, k) for k in POLYTOPE3_SIZES]
    boxes3 = [_box(rng, 3) for _ in range(2)]
    pairs3 = [(a, b) for a in (polytopes3, boxes3) for b in (polytopes3, boxes3)]

    def nth(pool, i):
        return pool[i % len(pool)]

    def pair(pairs, i):
        a, b = pairs[i % len(pairs)]
        k = i // len(pairs)
        return nth(a, k), nth(b, k + 1)

    ops: list[tuple[str, tuple]] = []
    for i in range(COUNTS["sum_2d"]):
        ops.append(("sum", pair(pairs2, i)))
    for i in range(COUNTS["sum_3d"]):
        ops.append(("sum", pair(pairs3, i)))
    for i in range(COUNTS["diff_erosion"]):
        ball = balls[i]
        ops.append(("diff", (geometry.minkowski_sum(polygons[-1 - i], ball), ball)))
    for i in range(COUNTS["diff_2d"]):
        minuend = nth(polygons + zonogons + boxes, i)
        if i % 4 == 0:  # exact round trip (P + Q) - Q of two polygons
            sub = nth(polygons, i + 3)
            minuend = geometry.minkowski_sum(minuend, sub)
        elif i % 4 == 1:  # a small box, or an empty erosion by a big one
            sub = geometry.scale(float(rng.uniform(0.1, 1.5)), nth(boxes, i))
        elif i % 4 == 2:
            sub = geometry.scale(0.3, nth(polygons, i))
        else:
            sub = nth(balls, i)
            minuend = geometry.Ball(sub.center, sub.radius + rng.uniform(0.0, 1.0))
        ops.append(("diff", (minuend, sub)))
    for i in range(COUNTS["diff_3d"]):
        sub = nth(boxes3, i)
        ops.append(("diff", (geometry.minkowski_sum(nth(polytopes3, i), sub), sub)))
    for i in range(COUNTS["hausdorff_2d"]):
        ops.append(("hausdorff", pair(pairs2, i)))
    for i in range(COUNTS["hausdorff_3d"]):
        ops.append(("hausdorff", pair(pairs3, i)))
    for i in range(COUNTS["project_2d"]):
        shape = nth(polygons + balls + boxes, i)
        ops.append(("project", (rng.uniform(-3.0, 3.0, 2), shape)))
    for i in range(COUNTS["project_zonogon"]):
        ops.append(("project", (rng.uniform(-3.0, 3.0, 2), nth(zonogons, i))))
    for i in range(COUNTS["project_3d"]):
        ops.append(("project", (rng.uniform(-3.0, 3.0, 3), nth(polytopes3, i))))
    for i in range(COUNTS["integrated_2d"]):
        ops.append(("integrated", pair(pairs2, 5 * i)))
    return ops


def call(op: str, args: tuple):
    """Run one op through the public geometry module attribute (traceable)."""
    return getattr(geometry, OP_FUNCTIONS[op])(*args)


def encode(result) -> str:
    """Canonical text of one op result; floats keep every digit."""
    if result is None:
        return "null"  # an empty erosion is a result
    if isinstance(result, geometry.ConvexSet):
        return geometry.set_to_json(result)
    if isinstance(result, tuple):
        point, dist = result
        return json.dumps([np.asarray(point).tolist(), float(dist)])
    return repr(float(result))


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# --- output checks -----------------------------------------------------------

_CHECK_DIRECTIONS = {
    2: geometry.direction_grid(2, 16),
    3: np.vstack([np.eye(3), -np.eye(3)]),
}
# 3-D erosion is an outer halfspace approximation on the default direction
# grid, so containment is only promised on directions of that grid.
_DIFF_DIRECTIONS_3D = geometry.direction_grid(3, 360)[:24]


def _scale_of(*sets) -> float:
    return 1.0 + max(float(np.max(np.abs(np.concatenate(geometry.bounds_of(s))))) for s in sets)


def _sampled(*sets) -> bool:
    return any(isinstance(s, geometry.Ball) and s.radius > 0 and s.dim >= 2 for s in sets)


def check(op: str, args: tuple, result) -> bool:
    """Cheap necessary conditions on one op result (support-function identities)."""
    if op == "sum":
        a, b = args
        tol = (1e-3 if _sampled(a, b) else 1e-8) * _scale_of(a, b)
        return all(
            abs(result.support(u) - a.support(u) - b.support(u)) <= tol
            for u in _CHECK_DIRECTIONS[a.dim]
        )
    if op == "diff":
        c, d = args
        if result is None:
            return True
        tol = (1e-3 if _sampled(c) or c.dim > 2 else 1e-8) * _scale_of(c, d)
        dirs = _DIFF_DIRECTIONS_3D if c.dim > 2 else _CHECK_DIRECTIONS[2]
        # erosion stays inside: h(C - D) + h(D) <= h(C)
        return all(result.support(u) + d.support(u) <= c.support(u) + tol for u in dirs)
    if op == "hausdorff":
        c, d = args
        tol = 1e-8 * _scale_of(c, d)
        axes = np.vstack([np.eye(c.dim), -np.eye(c.dim)])
        gap = max(abs(c.support(u) - d.support(u)) for u in axes)
        return math.isfinite(result) and result >= gap - tol
    if op == "project":
        x, c = args
        p, dist = result
        tol = 1e-7 * _scale_of(c) * (1.0 + float(np.linalg.norm(x)))
        if abs(float(np.linalg.norm(x - p)) - dist) > tol:
            return False
        inside = all(u @ p <= c.support(u) + tol for u in _CHECK_DIRECTIONS[c.dim])
        if dist <= tol:
            return inside
        v = (x - p) / dist  # p is nearest iff C lies behind the plane through p
        return inside and c.support(v) <= v @ p + tol
    if op == "integrated":
        return math.isfinite(result) and result >= 0.0
    raise ValueError(f"unknown op {op!r}")
