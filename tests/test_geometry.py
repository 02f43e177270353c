"""Geometry layer: hulls, arithmetic, distances, serialization."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from setstat import geometry
from setstat.geometry import (
    Ball,
    Box,
    SolverLimitError,
    TranslatedFamily,
    VertexPolytope,
    Zonotope,
    bounds_of,
    contains,
    convex_hull_2d,
    direction_grid,
    dist_point,
    hausdorff,
    integrated_distance,
    interval,
    minkowski_diff,
    minkowski_sum,
    point_set,
    project_point,
    scale,
    set_from_dict,
    set_from_json,
    set_to_dict,
    set_to_json,
    sq_dist_point,
    support,
    support_point,
    translated_family,
    vertices_of,
    weighted_minkowski_average,
)


def _random_polygon(rng, k=8, spread=1.0):
    return VertexPolytope(rng.normal(scale=spread, size=(k, 2)))


def _segment_dist(y, a, b):
    ab = b - a
    t = float(np.dot(y - a, ab) / max(np.dot(ab, ab), 1e-300))
    t = min(max(t, 0.0), 1.0)
    return float(np.linalg.norm(y - (a + t * ab)))


def _polygon_dist_exact(y, verts):
    """Distance from a point to a CCW polygon via exact edge projections."""
    k = verts.shape[0]
    if k == 1:
        return float(np.linalg.norm(y - verts[0]))
    inside = True
    for i in range(k):
        a, b = verts[i], verts[(i + 1) % k]
        e = b - a
        if e[0] * (y[1] - a[1]) - e[1] * (y[0] - a[0]) < 0:
            inside = False
            break
    if inside and k >= 3:
        return 0.0
    return min(_segment_dist(y, verts[i], verts[(i + 1) % k]) for i in range(k))


# ---------------------------------------------------------------- hulls


def test_hull_square_with_interior_and_duplicates():
    pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7], [0, 0], [1, 1]]
    hull = convex_hull_2d(pts)
    assert hull.shape == (4, 2)
    np.testing.assert_allclose(hull, [[0, 0], [1, 0], [1, 1], [0, 1]])


def test_hull_collinear_keeps_two_extremes():
    hull = convex_hull_2d([[0, 0], [1, 1], [2, 2], [0.5, 0.5]])
    assert hull.shape == (2, 2)
    np.testing.assert_allclose(hull, [[0, 0], [2, 2]])


def test_hull_is_counterclockwise_and_minimal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = rng.normal(size=(30, 2))
        hull = convex_hull_2d(pts)
        k = hull.shape[0]
        for i in range(k):
            o, a, b = hull[i], hull[(i + 1) % k], hull[(i + 2) % k]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0  # strictly convex turns, no collinear survivors


def _numpy_scalar_hull(points, tol=geometry.HULL_COLLINEARITY_TOL):
    # the monotone chain on numpy scalar rows, as convex_hull_2d ran it before
    # it switched to Python floats; kept as the oracle of that switch
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] == 1:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= tol:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    if not hull:
        hull = [pts[0], pts[-1]]
    return np.asarray(hull, dtype=float)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64).tolist()


def test_hull_on_python_floats_matches_numpy_scalar_chain():
    rng = np.random.default_rng(21)
    clouds = []
    for k in (1, 2, 3, 5, 30, 200):
        clouds.append(rng.normal(size=(k, 2)))
    t = rng.normal(size=(40, 1))
    clouds.append(np.hstack([t, 2.0 * t + 1.0]))  # collinear
    clouds.append(np.hstack([t, 3.0 * t + 1e-13 * rng.normal(size=(40, 1))]))  # near-collinear
    base = rng.normal(size=(12, 2))
    clouds.append(np.vstack([base, base[::2], base[1::3]]))  # duplicates
    clouds.append(rng.choice([0.0, -0.0, 1.0, -1.0], size=(60, 2)))  # signed zeros
    clouds.append(np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]]))
    ring = np.column_stack([np.cos(np.arange(360) * np.pi / 180), np.sin(np.arange(360) * np.pi / 180)])
    clouds.append(np.vstack([ring, rng.uniform(-1, 1, size=(14, 2))]))
    # sampled circles, as minkowski_sum samples a ball: the certified ring
    # where the turns clear the tolerance by the error bound, else the chain
    for radius in (1.0, 1e-2, 1e-4, 1e-6):
        for center in ([0.0, 0.0], [1e3, -2e3]):
            circle = center + radius * direction_grid(2, 360)
            interior = center + radius * rng.uniform(-0.6, 0.6, size=(9, 2))
            clouds += [circle, circle[::-1], np.vstack([interior[:4], circle, interior[4:]])]
    # a convex lattice 16-gon from (2, 0) to (0, 0), plus (1, 0): a collinear triple
    steps = [(2, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1), (-2, 0),
             (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1)]
    collinear = np.vstack([np.cumsum(steps, axis=0), [[1, 0]]]).astype(float)
    clouds += [collinear, 0.1 * collinear]
    clouds.append(np.vstack([ring[::10], ring[:5], ring[::-20]]))  # equal rows above the floor
    zeros = np.vstack([ring[::15] + [0.0, 2.0],
                       [[0.0, -1.5], [-0.0, -1.5], [1.5, 0.0], [1.5, -0.0]]])
    clouds += [zeros, zeros[::-1], np.vstack([zeros, [[-0.0, 0.0], [0.0, -0.0]]])]  # signed zeros
    for pts in clouds:
        assert _bits(convex_hull_2d(pts)) == _bits(_numpy_scalar_hull(pts))


def test_hull_runs_the_chain_only_where_the_ring_is_not_certified(monkeypatch):
    polygon = _ellipse_polygon(np.random.default_rng(48), 20)
    chain_rows, certified = [], []
    chain, ring = geometry._monotone_chain, geometry._certified_ring

    def counting_chain(s):
        chain_rows.append(s.shape[0])
        return chain(s)

    def counting_ring(s):
        out = ring(s)
        certified.append(out is not None)
        return out

    monkeypatch.setattr(geometry, "_monotone_chain", counting_chain)
    monkeypatch.setattr(geometry, "_certified_ring", counting_ring)
    # a sampled circle and a 20-gon + ball sum (the circle, then the filtered sums)
    circle = geometry._to_vertex_polytope(Ball([0.2, -0.1], 0.8)).vertices
    total = minkowski_sum(polygon, Ball([0.2, -0.1], 0.8))
    assert circle.shape == (360, 2) and total.vertices.shape[0] >= 360
    assert chain_rows == [] and certified == [True, True, True]

    unit = direction_grid(2, 360)
    refused = {
        "below the floor": unit[::24],  # 15 points
        "an interior point": np.vstack([unit, [[0.1, 0.2]]]),
        "a collinear triple": np.vstack([unit[::10], [(unit[0] + unit[10]) / 2]]),
        "turns below the tolerance": 1e-6 * unit,
        "turns within the error margin": [1e3, -2e3] + 0.1 * unit,
        "coordinates beyond 2^500": 2.0**510 * unit,
    }
    for why, pts in refused.items():
        chain_rows.clear()
        got = convex_hull_2d(pts)
        assert len(chain_rows) == 1, why
        assert _bits(got) == _bits(_numpy_scalar_hull(pts)), why
    assert certified[3:] == [False] * 5


def test_hull_defects_that_wait_for_an_exact_predicate_are_pinned():
    # The 1e-12 absolute collinearity tolerance drops true vertices in both
    # clouds; these pins hold the chain's present rings, so an exact
    # orientation test has to change them on purpose.
    # 1) At 2^-20 the sums of two lattice polygons lose (-2, -3), (5, 4) and
    #    (-3, 0) and keep the interior (5, 3); the tol = 0 chain keeps all 9.
    a = np.array([[-3, -1], [-2, -3], [4, -2], [3, 4], [-2, 4]], dtype=float)
    b = np.array([[0, 0], [2, -1], [2, 0], [0, 1]], dtype=float)
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, 2) * 2.0**-20
    pinned = [[-3, -1], [0, -4], [6, -3], [6, -2], [5, 3], [3, 5], [-2, 5]]
    assert _bits(convex_hull_2d(sums)) == _bits(np.array(pinned, dtype=float) * 2.0**-20)
    assert _numpy_scalar_hull(sums, tol=0.0).shape == (9, 2)
    # 2) The near-vertical pair of _sum_cases: the ring of all 36 sums lacks
    #    a_2 + b_3, which lies 1.3e-4 outside it.
    (pa, pb), = itertools.islice(_sum_cases(np.random.default_rng(0)), 1)
    va, vb = pa.vertices, pb.vertices
    pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5),
             (5, 5), (0, 5)]
    ring = convex_hull_2d((va[:, None, :] + vb[None, :, :]).reshape(-1, 2))
    assert _bits(ring) == _bits(np.array([va[i] + vb[j] for i, j in pairs]))
    assert _polygon_dist_exact(va[2] + vb[3], ring) > 1e-4


def test_vertex_polytope_prunes_interior_points():
    p = VertexPolytope([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]])
    assert p.vertices.shape == (4, 2)


def test_one_dimensional_polytope_keeps_extremes():
    p = VertexPolytope([[3.0], [1.0], [2.0]])
    np.testing.assert_allclose(np.sort(p.vertices[:, 0]), [1.0, 3.0])


# ------------------------------------------------------- support functions


def test_box_support_by_hand():
    b = Box([-1, 0], [2, 3])
    assert support(b, [1, 0]) == 2
    assert support(b, [-1, 0]) == 1
    assert support(b, [0, -1]) == 0
    assert support(b, [1, 1]) == 5


def test_zonotope_support_closed_form():
    z = Zonotope([1.0, -1.0], [[1.0, 0.0], [1.0, 1.0]], [2.0, 0.5])
    u = np.array([3.0, 4.0])
    expected = 1 * 3 + (-1) * 4 + 2 * abs(3) + 0.5 * abs(3 + 4)
    assert math.isclose(support(z, u), expected, rel_tol=0, abs_tol=1e-12)


def test_ball_support_closed_form():
    b = Ball([1.0, 2.0], 3.0)
    u = np.array([0.6, 0.8])
    assert math.isclose(support(b, u), 1 * 0.6 + 2 * 0.8 + 3.0, abs_tol=1e-12)


@pytest.mark.parametrize(
    "s",
    [
        Box([-1, -2], [3, 4]),
        Ball([0.5, -0.5], 1.25),
        VertexPolytope([[0, 0], [2, 1], [1, 3], [-1, 1]]),
        Zonotope([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0], [-1.0, 1.0]], [1.0, 2.0, 0.5]),
    ],
)
def test_support_point_attains_support(s):
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.normal(size=2)
        p = support_point(s, u)
        assert math.isclose(float(p @ u), support(s, u), rel_tol=0, abs_tol=1e-10)
        assert contains(s, p)


def test_zonogon_vertex_enumeration_matches_support():
    z = Zonotope([0.3, -0.2], [[1.0, 0.0], [0.5, 1.0], [-0.25, 0.75]], [1.0, 0.6, 1.4])
    verts = vertices_of(z)
    assert verts.shape[0] <= 6  # at most 2p vertices for p generators
    rng = np.random.default_rng(2)
    for _ in range(100):
        u = rng.normal(size=2)
        assert math.isclose(float(np.max(verts @ u)), z.support(u), abs_tol=1e-10)


def test_direction_grid_properties():
    g2 = direction_grid(2, 360)
    assert g2.shape == (360, 2)
    np.testing.assert_allclose(np.linalg.norm(g2, axis=1), 1.0, atol=1e-12)
    g1 = direction_grid(1, 8)
    assert sorted(g1[:, 0].tolist()) == [-1.0, 1.0] or g1.shape[0] == 8


# ----------------------------------------------------- Minkowski arithmetic


def test_minkowski_sum_matches_vertex_combination_hull():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = _random_polygon(rng, k=7)
        b = _random_polygon(rng, k=6, spread=0.5)
        s = minkowski_sum(a, b)
        combo = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, 2)
        oracle = VertexPolytope(combo)
        assert hausdorff(s, oracle) <= 1e-9


def test_minkowski_sum_of_boxes_is_box():
    s = minkowski_sum(Box([0, 0], [1, 2]), Box([-1, 1], [0, 3]))
    assert isinstance(s, Box)
    np.testing.assert_allclose(s.lower, [-1, 1])
    np.testing.assert_allclose(s.upper, [1, 5])


def _ball_ring(ball, n):
    # a ball's boundary sampled on n grid directions, as geometry samples
    # it on its own geometry._N_DIRECTIONS
    return VertexPolytope(ball.center + ball.radius * direction_grid(ball.dim, n))


def _all_pairs_sum(a, b):
    # minkowski_sum of two non-closed-form 2-D operands before the cone
    # filter: a singleton translates the other side, else the hull of all
    # m n vertex sums; kept as the oracle of the filtered sum
    for p, q in ((b, a), (a, b)):
        point = geometry._is_singleton(p)
        if point is not None:
            return q.translate(point)
    va = geometry._to_vertex_polytope(a).vertices
    vb = geometry._to_vertex_polytope(b).vertices
    return VertexPolytope((va[:, None, :] + vb[None, :, :]).reshape(-1, 2))


def _ellipse_polygon(rng, k):
    # as the geometry-mix2d benchmark draws them: all k points extreme
    th = (np.arange(k) + rng.uniform(-0.3, 0.3, k)) * (2.0 * math.pi / k)
    ring = np.column_stack([np.cos(th), np.sin(th)]) * rng.uniform(0.6, 1.6, 2)
    angle = rng.uniform(0.0, math.pi)
    turn = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return VertexPolytope(ring @ turn.T + rng.uniform(-1.0, 1.0, 2))


def _sum_cases(rng):
    def lattice(k, step=1.0):
        return VertexPolytope(step * rng.integers(-4, 5, size=(k, 2)))

    def zonogon(p):
        gens = rng.integers(-3, 4, size=(p, 2)).astype(float)
        gens = np.vstack([gens, 2.0 * gens[:1], -0.5 * gens[-1:]])  # parallel generators
        return Zonotope(rng.normal(size=2), gens, rng.uniform(0.2, 1.0, p + 2))

    def rotated(c, angle):
        turn = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        return VertexPolytope(c.vertices @ turn.T)

    # an edge 1e-10 rad off vertical, parallel within the slack to a vertical
    # edge: the hull's sweep in x meets their four sums out of line order
    a = np.array([[0, 0], [9, 1], [9, 4], [4, 9], [2, 9], [1, 6]]) * 1e-4 + [0.0094, -2.98]
    a[2, 0] -= 3e-14
    b = np.array([[0, 0], [1.8, -0.6], [3.1, 0.05], [3.1, 6.9], [1.3, 7.5], [0, 6.9]])
    yield VertexPolytope(a), VertexPolytope(b * 1e-4 + [0.046, 0.46])
    for _ in range(30):
        k = rng.integers(6, 21)
        ellipse = _ellipse_polygon(rng, k)
        yield ellipse, _ellipse_polygon(rng, rng.integers(6, 21))
        yield ellipse, Ball(rng.uniform(-1, 1, 2), rng.uniform(0.3, 1.2))
        ball = Ball(rng.normal(size=2), rng.choice([1e-4, 0.02, 3.0]))
        n = rng.choice([8, 90, 360])
        yield ball if n == geometry._N_DIRECTIONS else _ball_ring(ball, n), ellipse
        yield ellipse, _random_box(rng, 2)
        yield zonogon(rng.integers(1, 4)), ellipse
        yield lattice(rng.integers(3, 12)), lattice(rng.integers(3, 12))
        yield lattice(rng.integers(3, 12)), zonogon(rng.integers(1, 4))
        yield Box([-1.0, 0.0], [2.0, 1.0]), lattice(rng.integers(3, 12))
        rounded = VertexPolytope(np.round(rng.normal(size=(rng.integers(3, 15), 2)), 1))
        yield rounded, VertexPolytope(np.round(rng.normal(size=(rng.integers(3, 15), 2)), 1))
        yield rounded, Ball(np.round(rng.normal(size=2), 1), 1e-4)
        thin = rng.normal(size=(rng.integers(3, 9), 2)) * [1.0, 1e-7]
        yield VertexPolytope(thin), ellipse
        yield VertexPolytope(thin), VertexPolytope(thin[::-1] * [1.0, -3.0])
        # edges 3e-10 rad from parallel: sum vertices whose arcs overlap less than the slack
        yield ellipse, rotated(ellipse, rng.choice([3e-10, -5e-10]))
        # edges 2e-9 rad apart, beyond the slack, and short: their sums turn
        # by less than the hull's collinearity tolerance
        small = lattice(rng.integers(3, 9), 0.002)
        yield small, rotated(small, rng.choice([1.5e-9, -2e-9]))
        yield VertexPolytope(rng.normal(size=(3, 2))), VertexPolytope(rng.normal(size=(3, 2)))
        segment = VertexPolytope(rng.normal(size=(2, 2)))
        yield segment, ellipse
        yield segment, VertexPolytope(rng.normal(size=(2, 2)))
        yield point_set(rng.normal(size=2)), ellipse
        yield ellipse, point_set(rng.normal(size=2))
    # lattices at 2^-20, whose cross products sit at the 1e-12 collinearity
    # tolerance: there the all-pairs hull depends on the interior sums, so
    # most of these take the all-pairs path
    for _ in range(300):
        yield lattice(rng.integers(3, 12), 2.0**-20), lattice(rng.integers(3, 12), 2.0**-20)


def test_minkowski_sum_2d_cone_pairs_match_all_pairs_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(47)
    filtered = []
    cone_pair_sums = geometry._cone_pair_sums

    def spy(va, vb):
        sums = cone_pair_sums(va, vb)
        filtered.append(sums is not None)
        return sums

    monkeypatch.setattr(geometry, "_cone_pair_sums", spy)
    n_cases = 0
    for a, b in _sum_cases(rng):
        got, want = minkowski_sum(a, b), _all_pairs_sum(a, b)
        assert got.vertices.shape == want.vertices.shape, (a, b)
        assert _bits(got.vertices) == _bits(want.vertices), (a, b)
        n_cases += 1
    assert n_cases == 871 and 400 <= sum(filtered) < len(filtered) - 200

    # a 2-D fold of weighted_minkowski_average sums polygons pairwise
    polygons = [_ellipse_polygon(rng, k) for k in (6, 9, 14, 20)]
    polygons += [VertexPolytope(rng.integers(-3, 4, size=(7, 2))), _random_box(rng, 2)]
    w = rng.uniform(0.1, 1.0, len(polygons))
    want = scale(w[0], polygons[0])
    for wi, p in zip(w[1:], polygons[1:]):
        want = _all_pairs_sum(want, scale(wi, p))
    got = weighted_minkowski_average(w, polygons)
    assert _bits(got.vertices) == _bits(want.vertices)


@pytest.mark.parametrize(
    "ring",
    [
        # scale keeps the four equal rows of a zero-scaled square (prune=False)
        scale(0.0, VertexPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])).vertices,
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]],  # a collinear vertex
        [[0.0, 0.0], [1.0, 0.0], [2.0, 1e-13], [1.0, 1.0]],  # a turn below the hull tolerance
        [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]],  # clockwise
        direction_grid(2, 5)[[0, 2, 4, 1, 3]],  # a star that winds twice
        [[0.0, 0.0], [1.0, 0.0], [-1.0, 1e-9]],  # turns within 1e-9 of a half turn
    ],
    ids=["repeated", "collinear", "nearly-collinear", "clockwise", "star", "spike"],
)
def test_minkowski_sum_rings_the_cone_filter_refuses_take_the_all_pairs_path(ring):
    ring = VertexPolytope(ring, prune=False)
    pentagon = VertexPolytope([[0.1, -1.0], [1.2, -0.3], [0.9, 0.8], [-0.5, 1.1], [-1.1, 0.2]])
    assert geometry._cone_pair_sums(ring.vertices, pentagon.vertices) is None
    assert geometry._cone_pair_sums(pentagon.vertices, ring.vertices) is None
    ball = Ball([0.3, -0.2], 0.5)
    for a, b in ((ring, ball), (ball, ring), (ring, pentagon), (pentagon, ring)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = minkowski_sum(a, b)
        assert _bits(got.vertices) == _bits(_all_pairs_sum(a, b).vertices)


def test_minkowski_sum_2d_hulls_about_m_plus_n_points(monkeypatch):
    # a guard against the O(m n) path: a 20-gon plus a 360-sampled ball
    # must not hull all 7,200 vertex sums
    polygon = _ellipse_polygon(np.random.default_rng(48), 20)
    assert polygon.vertices.shape == (20, 2)
    hull_rows = []
    hull = geometry.convex_hull_2d

    def counting_hull(points, *args, **kwargs):
        hull_rows.append(np.asarray(points).shape[0])
        return hull(points, *args, **kwargs)

    monkeypatch.setattr(geometry, "convex_hull_2d", counting_hull)
    minkowski_sum(polygon, Ball([0.2, -0.1], 0.8))
    assert hull_rows[0] == 360  # the sampled ball
    assert len(hull_rows) == 2 and hull_rows[1] <= 20 + 360 + 8


def test_sum_then_erode_recovers_left_operand():
    rng = np.random.default_rng(4)
    for _ in range(20):
        c = _random_polygon(rng, k=6)
        d = _random_polygon(rng, k=5, spread=0.7)
        back = minkowski_diff(minkowski_sum(c, d), d)
        assert back is not None
        assert hausdorff(back, c) <= 1e-9


def test_erosion_of_boxes_by_hand():
    e = minkowski_diff(Box([0, 0], [3, 3]), Box([0, 0], [1, 1]))
    assert isinstance(e, Box)
    np.testing.assert_allclose(e.lower, [0, 0])
    np.testing.assert_allclose(e.upper, [2, 2])
    assert minkowski_diff(Box([0], [1]), Box([0], [3])) is None


def test_erosion_of_balls_by_hand():
    e = minkowski_diff(Ball([1.0, 1.0], 2.0), Ball([0.0, 0.0], 0.5))
    assert isinstance(e, Ball)
    np.testing.assert_allclose(e.center, [1.0, 1.0])
    assert math.isclose(e.radius, 1.5, abs_tol=1e-12)
    assert minkowski_diff(Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0], 1.5)) is None


def test_erosion_tolerates_float_thin_deficit():
    # a sample-mean box is fractionally narrower than its limit; the
    # difference must come back as a degenerate box, not as empty
    w = 1.0 - 1e-16
    e = minkowski_diff(Box([-w], [w]), Box([-1.0], [1.0]))
    assert e is not None
    lo, hi = bounds_of(e)
    assert abs(lo[0]) < 1e-12 and abs(hi[0]) < 1e-12


def test_3d_erosion_raises_when_its_lp_fails(monkeypatch):
    # the center-and-radius LP of the sampled d > 2 erosion is always
    # feasible (the radius is free): a solver failure raises, and only a
    # negative radius reads as an empty erosion
    import scipy.optimize
    from types import SimpleNamespace

    cube = VertexPolytope(vertices_of(Box([-2.0] * 3, [2.0] * 3)))
    unit = Box([-1.0] * 3, [1.0] * 3)
    assert minkowski_diff(cube, unit) is not None
    assert minkowski_diff(unit, cube) is None
    failed = SimpleNamespace(success=False, status=1, message="Iteration limit reached.", x=np.zeros(4))
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(SolverLimitError, match="status 1"):
        minkowski_diff(cube, unit)


def _erode_2d_all_pairs(c, d):
    """Reference erosion: every feasible crossing of two shifted facet lines."""
    a, b = geometry._facets_2d(c)
    bt = b - np.array([d.support(row) for row in a])
    m = a.shape[0]
    cands = []
    scale_ref = 1.0 + np.max(np.abs(bt))
    for i in range(m):
        for j in range(i + 1, m):
            det = a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]
            if abs(det) <= 1e-12:
                continue
            x = np.array(
                [
                    (bt[i] * a[j, 1] - bt[j] * a[i, 1]) / det,
                    (a[i, 0] * bt[j] - a[j, 0] * bt[i]) / det,
                ]
            )
            if np.all(a @ x <= bt + 1e-9 * scale_ref):
                cands.append(x)
    if not cands:
        return None
    return VertexPolytope(np.asarray(cands))


def _erosion_cases(rng):
    def poly(k, spread=1.0):
        return VertexPolytope(rng.normal(scale=spread, size=(k, 2)) + rng.uniform(-2, 2, 2))

    for _ in range(6):
        yield poly(rng.integers(3, 12)), poly(rng.integers(3, 7), 0.4)
        q = poly(rng.integers(3, 7), 0.6)
        yield minkowski_sum(poly(rng.integers(3, 10)), q), q
        yield poly(6, 0.3), poly(6, 2.0)  # empty
        p = poly(rng.integers(3, 8))
        yield minkowski_sum(p, VertexPolytope(rng.normal(size=(2, 2)))), p  # a segment
        z = Zonotope(rng.uniform(-1, 1, 2), rng.normal(size=(3, 2)), rng.uniform(0.2, 1.0, 3))
        yield z, VertexPolytope(vertices_of(Box(*np.sort(rng.normal(size=(2, 2)), axis=0))))
    # a sampled-ball polygon makes its facet lines concurrent at the result's corners
    ring = VertexPolytope(0.5 * direction_grid(2, 24))
    yield minkowski_sum(poly(5), ring), ring
    # axis-aligned facets are exact, so a translate erodes to one point
    square = VertexPolytope([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    yield square, square.translate([1.0, -3.0])
    ball = Ball([0.2, -0.1], 0.6)
    yield minkowski_sum(poly(9), _ball_ring(ball, 90)), ball


def test_halfplane_erosion_matches_all_pairs_scan():
    rng = np.random.default_rng(12)
    shapes = set()
    for c, d in _erosion_cases(rng):
        got = minkowski_diff(c, d)
        want = _erode_2d_all_pairs(c, d)
        assert (got is None) == (want is None)
        if want is None:
            shapes.add("empty")
            continue
        assert np.array_equal(got.vertices, want.vertices)
        shapes.add(min(want.vertices.shape[0], 3))
    assert shapes == {"empty", 1, 2, 3}


def test_scale_scalar_and_reflection():
    b = Box([0, 1], [2, 3])
    s = scale(-1.0, b)
    lo, hi = bounds_of(s)
    np.testing.assert_allclose(lo, [-2, -3])
    np.testing.assert_allclose(hi, [0, -1])
    z = scale(0.0, Ball([5.0, 5.0], 2.0))
    assert math.isclose(z.radius, 0.0, abs_tol=0)


def test_scale_matrix_on_zonotope_is_exact():
    z = Zonotope([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
    m = np.array([[2.0, 1.0], [0.0, 1.0]])
    img = scale(m, z)
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.normal(size=2)
        assert math.isclose(img.support(u), z.support(m.T @ u), abs_tol=1e-10)


def test_translated_family_matches_loop():
    rng = np.random.default_rng(6)
    shifts = rng.normal(size=(40, 2))
    for body in [
        Box([-1, -1], [1, 1]),
        Ball([0.0, 0.0], 1.0),
        VertexPolytope([[0, 0], [1, 0], [0, 1]]),
        Zonotope([0.0, 0.0], [[1.0, 0.0]], [1.0]),
    ]:
        fam = translated_family(body, shifts)
        assert len(fam) == 40
        for got, s in zip(fam, shifts):
            want = body.translate(s)
            assert type(got) is type(want)
            assert hausdorff(got, want) == 0.0


def test_translated_family_rejects_bad_shift_dim():
    with pytest.raises(ValueError):
        translated_family(Box([0, 0], [1, 1]), np.zeros((3, 3)))


def _family_bodies(dim, rng):
    return [
        Box(-np.ones(dim), np.arange(1.0, dim + 1.0)),
        Ball(rng.normal(size=dim), 0.7),
        Zonotope(rng.normal(size=dim), rng.normal(size=(3, dim)), [1.0, 0.5, 2.0]),
        VertexPolytope(rng.normal(size=(6, dim))),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_family_mean_matches_mean_of_materialized_translates(dim):
    # the array path must agree with the per-set path it replaces
    rng = np.random.default_rng(40 + dim)
    n = 3
    shifts = rng.uniform(-2.0, 2.0, size=(n, dim))
    w = rng.uniform(0.1, 1.0, size=n)
    w[1] = 0.0  # a zero weight drops its set from the per-set fold
    for body in _family_bodies(dim, rng):
        fam = translated_family(body, shifts)
        assert isinstance(fam, TranslatedFamily)
        fast = weighted_minkowski_average(w, fam)
        slow = weighted_minkowski_average(w, list(fam))
        if isinstance(body, Box):
            assert type(fast) is type(slow) is Box
            assert np.array_equal(fast.lower, slow.lower)
            assert np.array_equal(fast.upper, slow.upper)
        elif isinstance(body, Ball):
            assert type(fast) is type(slow) is Ball
            assert np.array_equal(fast.center, slow.center)
            assert fast.radius == slow.radius
        else:
            assert hausdorff(fast, slow) <= 1e-12


@pytest.mark.parametrize("n", [5, 1000])
def test_family_mean_of_3d_cube_keeps_its_vertices(n):
    # the per-set fold keeps every vertex sum in 3-D: 8**n vertices
    cube = VertexPolytope(list(itertools.product([0.0, 1.0], repeat=3)))
    shifts = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 3))
    mean = weighted_minkowski_average(np.full(n, 1.0 / n), translated_family(cube, shifts))
    assert mean.vertices.shape == (8, 3)
    assert hausdorff(mean, cube.translate(shifts.mean(axis=0))) <= 1e-12


def test_translated_family_sequence_access():
    body = Box([0.0, 0.0], [1.0, 2.0])
    shifts = np.array([[1.0, 0.0], [0.0, 3.0], [-1.0, -1.0]])
    fam = translated_family(body, shifts)
    assert len(fam) == 3
    assert np.array_equal(fam[1].lower, [0.0, 3.0])
    assert np.array_equal(fam[-1].upper, [0.0, 1.0])
    shifts[0, 0] = 9.0  # the family holds its own copy of the shifts
    assert fam.shifts[0, 0] == 1.0
    with pytest.raises(ValueError):
        weighted_minkowski_average([], TranslatedFamily(body, np.zeros((0, 2))))
    with pytest.raises(ValueError):
        translated_family(body, [[0.0, np.inf]])


# --------------------------------------------------- weighted Minkowski mean


def test_weighted_average_of_boxes_closed_form():
    sets = [Box([0, 0], [1, 1]), Box([2, 2], [4, 4])]
    avg = weighted_minkowski_average([0.25, 0.75], sets)
    np.testing.assert_allclose(bounds_of(avg)[0], [1.5, 1.5])
    np.testing.assert_allclose(bounds_of(avg)[1], [3.25, 3.25])


def test_weighted_average_fast_path_matches_general_fold():
    # presenting the same boxes as vertex polytopes forces the fold route
    boxes = [Box([0, 0], [1, 2]), Box([-1, 0], [0, 1]), Box([0, -1], [2, 0])]
    polys = [VertexPolytope(vertices_of(b)) for b in boxes]
    w = np.array([0.2, 0.5, 0.3])
    fast = weighted_minkowski_average(w, boxes)
    slow = weighted_minkowski_average(w, polys)
    assert hausdorff(fast, slow) <= 1e-9


def test_weighted_average_fold_of_3d_cubes_keeps_extreme_rows():
    cube = VertexPolytope(list(itertools.product([0.0, 1.0], repeat=3)))
    shifts = np.random.default_rng(8).uniform(-1.0, 1.0, size=(5, 3))
    mean = weighted_minkowski_average(np.full(5, 0.2), [cube.translate(s) for s in shifts])
    assert mean.vertices.shape == (8, 3)
    assert hausdorff(mean, cube.translate(shifts.mean(axis=0))) <= 1e-12
    flat = VertexPolytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], prune=False)
    mean = weighted_minkowski_average([0.5, 0.5], [flat, flat.translate([1.0, 1.0, 0.0])])
    assert mean.vertices.shape == (16, 3)  # qhull rejects the flat sum: rows kept


def test_weighted_average_shared_generator_zonotopes():
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    sets = [Zonotope([0.0, 0.0], g, [1.0, 1.0]), Zonotope([2.0, 0.0], g, [3.0, 1.0])]
    avg = weighted_minkowski_average([0.5, 0.5], sets)
    assert isinstance(avg, Zonotope)
    np.testing.assert_allclose(avg.center, [1.0, 0.0])
    np.testing.assert_allclose(avg.weights, [2.0, 1.0])


def test_weighted_average_rejects_bad_weights():
    sets = [Box([0], [1]), Box([0], [2])]
    with pytest.raises(ValueError):
        weighted_minkowski_average([0.5, -0.5], sets)
    with pytest.raises(ValueError):
        weighted_minkowski_average([0.0, 0.0], sets)
    avg = weighted_minkowski_average([0.0, 0.0], sets, allow_zero_total=True)
    lo, hi = bounds_of(avg)
    assert lo[0] == hi[0] == 0.0


# ------------------------------------------------------------- distances


def test_projection_onto_triangle_by_hand():
    t = VertexPolytope([[1, 0], [2, 0], [1, 1]])
    p, d = project_point([0, 0], t)
    np.testing.assert_allclose(p, [1, 0], atol=1e-9)
    assert math.isclose(d, 1.0, abs_tol=1e-9)
    p, d = project_point([1.5, 0.25], t)  # interior point projects to itself
    np.testing.assert_allclose(p, [1.5, 0.25], atol=1e-9)
    assert d <= 1e-12


def test_min_norm_distance_matches_edge_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        poly = _random_polygon(rng, k=9)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        y = support_point(poly, u) + rng.uniform(0.1, 3.0) * u
        exact = _polygon_dist_exact(y, poly.vertices)
        assert abs(dist_point(y, poly) - exact) <= 1e-6
        assert abs(sq_dist_point(y, poly) - exact**2) <= 1e-6


def test_min_norm_point_certificate_on_random_hulls():
    rng = np.random.default_rng(9)
    for dim in (2, 3, 4, 5):
        for _ in range(40):
            pts = rng.normal(size=(int(rng.integers(2, 30)), dim)) + rng.normal(scale=2.0, size=dim)
            x = geometry._min_norm_point(pts)
            # optimality: every hull point p has p.x >= |x|^2
            assert float(np.min(pts @ x)) >= float(x @ x) - 1e-10


def test_zonotope_projection_matches_vertex_polytope_path():
    rng = np.random.default_rng(10)
    for _ in range(60):
        p = int(rng.integers(1, 6))
        z = Zonotope(rng.uniform(-1, 1, 2), rng.normal(size=(p, 2)), rng.uniform(0.2, 1.5, p))
        poly = VertexPolytope(vertices_of(z))
        x = rng.uniform(-4.0, 4.0, 2)
        pz, dz = project_point(x, z)
        pv, dv = project_point(x, poly)
        assert np.linalg.norm(pz - pv) <= 1e-8
        assert abs(dz - dv) <= 1e-8


# The away-step conditional-gradient loop that projected onto every zonotope
# in two or more dimensions: the reference of _zonogon_nearest's bits and
# an oracle for the bounded least-squares projection in higher dimensions.
def _zonotope_nearest(z: Zonotope, x: np.ndarray, tol: float = geometry._SUPPORT_GAP_TOL) -> np.ndarray:
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
    for _ in range(geometry._ZONOTOPE_NEAREST_MAX_ITER):
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


def test_zonogon_projection_matches_general_loop_bit_for_bit():
    rng = np.random.default_rng(47)
    cases = []
    for i in range(400):
        p = int(rng.integers(1, 9))
        g = rng.normal(size=(p, 2))
        if i % 7 == 0 and p > 1:
            g[0] = -2.0 * g[1]  # parallel generators
        if i % 11 == 0:
            g[-1] = 0.0  # a zero generator is dropped
        z = Zonotope(rng.uniform(-1, 1, 2), g, rng.uniform(0.1, 1.5, p))
        x = rng.normal(scale=rng.choice([0.1, 1.0, 3.0, 10.0]), size=2)
        if i % 13 == 0:
            x = z.center.copy()
        elif i % 17 == 0:
            x = vertices_of(z)[0].copy()
        cases.append((z, x))
    # exact ties send the sign and away-vertex choices to BLAS
    square = Zonotope([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    diamond = Zonotope([0.5, 0.5], [[1.0, 1.0], [1.0, -1.0]], [0.5, 0.5])
    for z in (square, diamond):
        for x in ([0.0, 0.0], [0.5, 0.5], [3.0, 0.0], [0.25, -0.75], [1e-300, 2.0]):
            cases.append((z, np.array(x)))
    # equal forward and away gaps: the exact away gap decides, forward wins
    for c, g, w, x in [
        ([0.5, 0.0], [[-1.0, 2.0], [-1.0, -2.0], [-2.0, 2.0]], [0.5, 0.5, 1.0], [-1.5, 1.5]),
        ([0.0, -0.5], [[0.0, 2.0], [2.0, -1.0]], [0.5, 1.0], [0.75, 1.25]),
    ]:
        cases.append((Zonotope(c, g, w), np.array(x)))
    flat = Zonotope([0.5, -0.5], np.zeros((2, 2)), [1.0, 1.0])
    cases.append((flat, np.array([3.0, 1.0])))
    for z, x in cases:
        assert _bits(geometry._zonogon_nearest(z, x)) == _bits(_zonotope_nearest(z, x))


def test_zonogon_projection_keeps_the_general_loop_bits_at_near_ties():
    # Exact ties of the bit test above, scaled by inexact factors: each
    # choice then hangs on a near-tie (for a generator sign, round(e0 g0) ==
    # -round(e1 g1) with a nonzero exact sum) that a fused multiply-add, as
    # in OpenBLAS's x86-64 dgemv and ddot, can decide otherwise than plain
    # float products.  Where it does, a plain-float generator sign fails the
    # diamond cases and a plain-float away gap the forward-or-away cases.
    cases = [
        (Zonotope([0.5 * s, 0.5 * s], [[s, s], [s, -s]], [0.5, 0.5]), np.array([0.0, 0.0]))
        for s in (1.1, 3.7)
    ]
    shift = np.array([-0.1, 0.0])
    for s in (0.3, 1.7):
        g = s * np.array([[-1.0, 2.0], [-1.0, -2.0], [-2.0, 2.0]])
        z = Zonotope(s * np.array([0.5, 0.0]) + shift, g, [0.5, 0.5, 1.0])
        cases.append((z, s * np.array([-1.5, 1.5]) + shift))
    for z, x in cases:
        assert _bits(geometry._zonogon_nearest(z, x)) == _bits(_zonotope_nearest(z, x))


def test_projection_solvers_raise_at_their_iteration_cap(monkeypatch):
    # every nearest point lies inside an edge or facet, which takes more than one step
    tri = VertexPolytope([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    z = Zonotope([3.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0])
    np.testing.assert_allclose(project_point([1.5, -2.0], tri)[0], [1.5, 0.0], atol=1e-9)
    np.testing.assert_allclose(project_point([1.0, 3.0], z)[0], [2.5, 1.5], atol=1e-6)
    monkeypatch.setattr(geometry, "_ZONOTOPE_NEAREST_MAX_ITER", 1)
    monkeypatch.setattr(geometry, "_MIN_NORM_MAX_ITER", 1)
    with pytest.raises(SolverLimitError):
        project_point([1.5, -2.0], tri)
    # in the plane, a capped zonotope loop hands over to the bounded least-squares solve
    np.testing.assert_allclose(project_point([1.0, 3.0], z)[0], [2.5, 1.5], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("status", [0, -1])
def test_zonotope_least_squares_failure_raises(monkeypatch, status):
    import scipy.optimize

    solve = scipy.optimize.lsq_linear

    def failing(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.status = status
        return res

    z3 = Zonotope([3.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                  [1.0, 1.0, 1.0])
    np.testing.assert_allclose(project_point([1.0, 3.0, 0.5], z3)[0], [2.5, 1.5, 0.5],
                               rtol=0.0, atol=1e-12)
    monkeypatch.setattr(scipy.optimize, "lsq_linear", failing)
    with pytest.raises(SolverLimitError):
        project_point([1.0, 3.0, 0.5], z3)


def test_zonogon_projection_survives_a_stalled_solver():
    # the conditional-gradient loop stalls at its cap on this interior point;
    # the planar solver projects onto the vertex ring instead: distance zero
    z = Zonotope(
        [-0.009901593207925753, -0.4989800146605004],
        [
            [-1.1363717473018193, -0.28279808615742297],
            [1.3815115502564752, 0.27851097151700016],
            [0.3052025792513889, 0.7632429543788991],
            [-0.5202841267176, -1.2573870613828708],
            [-1.1290874083033622, -0.5077383582484369],
        ],
        [1.3772096657810007, 1.2292087458517813, 1.127175517362408,
         0.35130256779975866, 1.278473138031692],
    )
    x = np.array([2.4944842039441326, 1.621946908042947])
    ring = geometry._zonogon_vertices(z)
    edges = np.roll(ring, -1, axis=0) - ring
    # inside, about 0.01 from the nearest edge: left of every counterclockwise edge
    assert np.all(edges[:, 0] * (x - ring)[:, 1] - edges[:, 1] * (x - ring)[:, 0] > 0.0)
    with pytest.raises(SolverLimitError):
        _zonotope_nearest(z, x)
    p, d = project_point(x, z)
    assert d <= 1e-12
    np.testing.assert_allclose(p, x, rtol=0.0, atol=1e-12)


def _assert_nearest_point(z, x, p, tol=1e-12):
    # p = c + E't with t in the box lies in Z, so it is the nearest point of Z
    # to x exactly when the support certificate h_Z(v) - v.p, v = x - p, is zero
    v = x - p
    size = np.linalg.norm(x) + np.abs(z.center).sum() + np.abs(z._effective()).sum()
    assert z.support(v) - v @ p <= tol * (1.0 + np.linalg.norm(v) * size)


def _sign_vertex_distance(z, x):
    # the min-norm point of all 2^p sign vertices: an exact oracle for small p
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=z.generators.shape[0])))
    return project_point(x, VertexPolytope(z.center + signs @ z._effective(), prune=False))[1]


def test_zonotope_projection_in_higher_dimensions_is_exact():
    # the conditional-gradient loop stalls at its cap on calls 655 and 1122
    rng = np.random.default_rng(7)
    for i in range(1500):
        d, p = int(rng.choice([3, 4])), int(rng.integers(1, 8))
        c, g = rng.normal(size=d), rng.normal(size=(p, d))
        z, x = Zonotope(c, g, rng.uniform(0.1, 1.5, p)), rng.uniform(-4, 4, d)
        q, dist = project_point(x, z)
        _assert_nearest_point(z, x, q)
        assert abs(dist - _sign_vertex_distance(z, x)) <= 1e-9
        if i % 10 == 0:  # the loop takes about 9 ms a call
            assert abs(dist - np.linalg.norm(x - _zonotope_nearest(z, x))) <= 1e-8


def test_zonotope_projection_degenerate_cases_in_higher_dimensions():
    rng = np.random.default_rng(12)
    c = np.array([0.5, 0.0, -1.0])
    x = np.array([1.0, -2.0, 0.5])
    for g in (np.zeros((0, 3)), np.zeros((2, 3))):  # no generators, zero generators
        p, d = project_point(x, Zonotope(c, g, np.ones(g.shape[0])))
        assert _bits(p) == _bits(c)
        assert d == float(np.linalg.norm(x - c))
    g = rng.normal(size=(3, 3))
    zonotopes = [
        Zonotope(c, np.vstack([g[:2], np.zeros(3)]), [1.0, 0.5, 2.0]),  # a zero generator
        Zonotope(c, [g[0], -2.0 * g[0], g[1], 0.5 * g[1]], [1.0, 0.5, 0.7, 1.3]),  # parallel
        Zonotope(c, g[:1], [1.5]),  # a segment
        Zonotope(c, g[:2], [1.0, 0.8]),  # a flat zonogon in 3-D
        Zonotope(rng.normal(size=5), rng.normal(size=(3, 5)), [1.0, 0.5, 1.2]),
    ]
    for z in zonotopes:
        e = z._effective()
        for _ in range(30):
            x = z.center + rng.normal(scale=3.0, size=z.dim)
            q, dist = project_point(x, z)
            _assert_nearest_point(z, x, q)
            assert abs(dist - np.linalg.norm(x - _zonotope_nearest(z, x))) <= 1e-8
            # a point of the zonotope projects to itself
            inside = z.center + rng.uniform(-1.0, 1.0, e.shape[0]) @ e
            q, dist = project_point(inside, z)
            assert dist <= 1e-12
            np.testing.assert_allclose(q, inside, rtol=0.0, atol=1e-12)


def test_distance_to_ball_and_box_closed_forms():
    assert math.isclose(dist_point([3.0, 4.0], Ball([0.0, 0.0], 2.0)), 3.0, abs_tol=1e-12)
    assert math.isclose(dist_point([2.0, 0.5], Box([0, 0], [1, 1])), 1.0, abs_tol=1e-12)
    assert dist_point([0.5, 0.5], Box([0, 0], [1, 1])) == 0.0


def _per_axis_bounds(c):
    # bounds_of as 2d separate support calls: the oracle of its Box fast path
    lo, hi = np.empty(c.dim), np.empty(c.dim)
    for j in range(c.dim):
        u = np.zeros(c.dim)
        u[j] = 1.0
        hi[j] = c.support(u)
        u[j] = -1.0
        lo[j] = -c.support(u)
    return lo, hi


def _random_box(rng, dim, thin=False):
    a, b = rng.normal(size=dim), rng.normal(size=dim)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if thin:  # one side at most HULL_COLLINEARITY_TOL wide, or exactly flat
        j = rng.integers(dim)
        hi[j] = lo[j] + rng.choice([0.0, 1e-14, 1e-13, 5e-13, 1e-12])
    return Box(lo, hi)


def test_box_bounds_match_per_axis_support_loop_bit_for_bit():
    rng = np.random.default_rng(22)
    for dim in range(1, 10):
        for _ in range(200):
            # signed-zero bounds on either side, some flat axes
            lo = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.5], size=dim)
            hi = lo + rng.choice([0.0, 0.0, 0.25, 1.0], size=dim)
            hi = np.where((lo < 0.0) & (rng.random(dim) < 0.3), rng.choice([0.0, -0.0], size=dim), hi)
            box = Box(lo, hi)
            got, want = bounds_of(box), _per_axis_bounds(box)
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
        point = Box(np.full(dim, -0.0), np.full(dim, -0.0))  # degenerate, all -0.0
        got, want = bounds_of(point), _per_axis_bounds(point)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])


def _vertex_path_hausdorff(c, d):
    # the box-pair path hausdorff took before its closed form: distances of
    # every listed corner (2-D corners pass through convex_hull_2d)
    def directed(p, q):
        x = vertices_of(p)
        return max(np.linalg.norm(x - np.clip(x, q.lower, q.upper), axis=1).max(), 0.0)

    return float(max(directed(c, d), directed(d, c)))


@pytest.mark.parametrize("dim", [2, 3])
def test_box_hausdorff_closed_form_matches_vertex_path(dim):
    rng = np.random.default_rng(23 + dim)
    for _ in range(500):
        c, d = _random_box(rng, dim), _random_box(rng, dim)
        assert _bits(hausdorff(c, d)) == _bits(_vertex_path_hausdorff(c, d))
    c = Box(np.full(dim, -0.0), np.full(dim, 0.0))
    assert _bits(hausdorff(c, c)) == _bits(_vertex_path_hausdorff(c, c))


def test_box_hausdorff_on_thin_2d_boxes_is_at_least_the_vertex_path():
    # the hull drops real corners of a box thinner than about
    # HULL_COLLINEARITY_TOL, so the old path reads slightly low there
    rng = np.random.default_rng(26)
    raised = 0
    for _ in range(2000):
        c, d = _random_box(rng, 2, thin=True), _random_box(rng, 2, thin=rng.random() < 0.5)
        new, old = hausdorff(c, d), _vertex_path_hausdorff(c, d)
        assert old <= new <= old + 2e-12
        raised += new > old
    assert raised > 0


def _variant_zoo(rng, dim):
    """Sets of every variant in one dimension: signed zeros, points, radius-0
    balls and zonotopes with 0 to 40 generators (numpy's pairwise sum unrolls
    8 ways from 8 terms on)."""
    zeros = rng.choice([0.0, -0.0], size=dim)
    sets = [VertexPolytope(rng.normal(size=(k, dim))) for k in (1, 2, 3, 7, 20, 60)]
    sets.append(VertexPolytope(np.vstack([zeros, -np.abs(rng.normal(size=(4, dim)))])))
    for p in (0, 1, 3, 7, 8, 9, 15, 16, 17, 33, 40):
        gens = rng.normal(size=(p, dim))
        gens[rng.random((p, dim)) < 0.2] = 0.0
        sets.append(Zonotope(rng.normal(size=dim), gens, rng.uniform(-1.5, 1.5, p)))
    sets.append(Zonotope(zeros, np.zeros((3, dim)), [1.0, -0.5, 0.0]))
    sets += [Ball(rng.normal(size=dim), 1.3), Ball(zeros, 2.0), Ball(zeros, 0.0)]
    sets.append(Ball(rng.normal(size=dim), 0.0))
    lo = rng.choice([-1.0, -0.0, 0.0, 0.5], size=dim)
    sets += [Box(lo, lo + rng.choice([0.0, 1.0], size=dim)), _random_box(rng, dim)]
    return sets


def _direction_sets(rng, dim, sets):
    u = rng.normal(size=(200, dim))
    u[rng.random(u.shape) < 0.2] = 0.0
    u[rng.random(u.shape) < 0.1] = -0.0
    yield from (direction_grid(dim, 360), geometry._signed_axes(dim), u, 3.0 * u)
    if dim == 2:  # facet normals, as minkowski_diff feeds them
        for c in sets:
            yield geometry._facets_2d(c)[0]
    elif dim > 2:
        from scipy.spatial import ConvexHull

        yield np.ascontiguousarray(ConvexHull(rng.normal(size=(30, dim))).equations[:, :-1])


def _scalar_support(c, u):
    # the per-variant scalar formulas support() ran before it became
    # support_many on one row: an oracle independent of both
    if isinstance(c, VertexPolytope):
        return float(np.max(c.vertices @ u))
    if isinstance(c, Zonotope):
        if c.generators.shape[0] == 0:
            return float(c.center @ u)
        return float(c.center @ u + np.sum(np.abs(c._effective() @ u)))
    if isinstance(c, Ball):
        return float(c.center @ u + c.radius * np.linalg.norm(u))
    return float(np.sum(np.where(u >= 0, c.upper, c.lower) * u))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_support_many_matches_per_direction_support_bit_for_bit(dim):
    rng = np.random.default_rng(30 + dim)
    sets = _variant_zoo(rng, dim)
    kinds = set()
    for dirs in _direction_sets(rng, dim, sets):
        for c in sets:
            want = _bits([_scalar_support(c, u) for u in dirs])
            assert _bits(c.support_many(dirs)) == want, (type(c).__name__, dirs.shape)
            assert _bits([c.support(u) for u in dirs]) == want, (type(c).__name__, dirs.shape)
            kinds.add(type(c))
    assert kinds == {VertexPolytope, Zonotope, Ball, Box}


def test_support_many_default_and_validation():
    class Bare(geometry.ConvexSet):  # the base class has no support_many
        dim = 2

    with pytest.raises(NotImplementedError):
        Bare().support([1.0, 0.0])
    box = Box([0.0, 0.0], [1.0, 1.0])
    for bad in (np.ones(2), np.ones((3, 3)), [[0.0, np.nan]], [[np.inf, 0.0]]):
        with pytest.raises(ValueError):
            box.support_many(bad)
    for bad in (np.ones(3), np.ones((1, 2)), [0.0, np.nan], 1.0):
        with pytest.raises(ValueError):
            box.support(bad)
    assert interval(-1.0, 2.0).support(-3.0) == 3.0  # a 1-D direction may be a scalar


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bounds_of_matches_per_axis_support_loop_for_every_variant(dim):
    rng = np.random.default_rng(40 + dim)
    for c in _variant_zoo(rng, dim):
        got, want = bounds_of(c), _per_axis_bounds(c)
        assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])


def test_box_erosion_tolerance_reads_the_box_arrays():
    # the tolerance once took max |bounds_of| of each box; abs drops the one
    # difference between a box's arrays and its bounds, a signed zero
    def via_bounds(c, d):
        return 1e-12 * max(
            1.0, float(np.max(np.abs(bounds_of(c)))), float(np.max(np.abs(bounds_of(d))))
        )

    rng = np.random.default_rng(45)
    for dim in range(1, 6):
        for _ in range(200):
            boxes = []
            for _ in range(2):
                lo = rng.choice([-3.0, -1.0, -0.0, 0.0, 0.5], size=dim) * rng.uniform(0.5, 2.0)
                boxes.append(Box(lo, lo + rng.choice([0.0, 0.0, 0.25, 4.0], size=dim)))
            assert _bits(geometry._erosion_tol(*boxes)) == _bits(via_bounds(*boxes))


def _per_edge_dist_batch(xs, c):
    # _dist_points_batch before its in-place pass: one np.linalg.norm per
    # edge and the minimum of the distances; kept as its oracle
    xs = np.asarray(xs, dtype=float)
    if isinstance(c, Box):
        return np.linalg.norm(xs - np.clip(xs, c.lower, c.upper), axis=1)
    if isinstance(c, Ball):
        return np.maximum(np.linalg.norm(xs - c.center, axis=1) - c.radius, 0.0)
    if isinstance(c, Zonotope):
        c = VertexPolytope(geometry._zonogon_vertices(c), prune=False)
    v = c.vertices
    if v.shape[0] == 1:
        return np.linalg.norm(xs - v[0], axis=1)
    nxt = v[::-1] if v.shape[0] == 2 else np.roll(v, -1, axis=0)
    best = np.full(xs.shape[0], np.inf)
    inside = np.full(xs.shape[0], v.shape[0] >= 3)
    for a, b in zip(v, nxt):
        ab = b - a
        denom = float(ab @ ab)
        rel = xs - a
        if v.shape[0] >= 3:
            inside &= ab[0] * rel[:, 1] - ab[1] * rel[:, 0] >= -1e-12
        t = np.clip(rel @ ab / denom, 0.0, 1.0) if denom > 0 else np.zeros(xs.shape[0])
        best = np.minimum(best, np.linalg.norm(xs - (a + t[:, None] * ab), axis=1))
    best[inside] = 0.0
    return best


def test_dist_points_batch_matches_per_edge_path_bit_for_bit():
    rng = np.random.default_rng(46)
    shapes = [
        point_set([0.3, -0.7]),
        VertexPolytope([[0.0, 0.0], [2.0, 1.0]]),  # a segment
        VertexPolytope([[1.0, 1.0], [1.0, 1.0]], prune=False),  # a zero-length segment
        VertexPolytope([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], prune=False),
        VertexPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    ]
    shapes += [_random_polygon(rng, k) for k in (3, 5, 8, 20)]
    shapes += [
        Zonotope(rng.uniform(-1, 1, 2), rng.normal(size=(p, 2)), rng.uniform(0.2, 1.0, p))
        for p in (1, 2, 4, 6)
    ]
    shapes += [Box([-1.0, -0.0], [0.5, 2.0]), Ball([0.2, -0.0], 0.8), Ball([1.0, 1.0], 0.0)]
    pts = rng.normal(scale=2.0, size=(400, 2))
    pts[:40] = np.round(pts[:40])  # some exact, some signed-zero coordinates
    pts[40:60] *= -0.0
    rings = np.linspace(0.1, 1.3, 8)[:, None, None] * direction_grid(2, 64)[None]
    grid = np.vstack([np.zeros((1, 2)), rings.reshape(-1, 2)])  # as integrated_distance
    for c in shapes:
        v = vertices_of(c) if not isinstance(c, Ball) else c.center[None]
        on_edges = [a + s * (b - a) for a, b in zip(v, np.roll(v, -1, axis=0)) for s in (0.25, 0.5)]
        # random and grid points, then vertices, edge points and the centroid
        xs = np.vstack([pts, grid, v, np.array(on_edges), v.mean(axis=0)])
        got = geometry._dist_points_batch(xs, c)
        assert _bits(got) == _bits(_per_edge_dist_batch(xs, c)), c
    # the column-wise box, ball and single-point paths against the broadcast
    # forms, in 1 to 9 dimensions (d >= 8 keeps np.linalg.norm)
    n_cases = 0
    for dim in (1, 2, 3, 8, 9):
        for _ in range(400):
            lo = rng.choice([-2.0, -0.5, -0.0, 0.0, 0.75], size=dim)
            hi = lo + rng.choice([0.0, 0.0, 0.5, 2.0], size=dim)  # some flat axes
            hi = np.where(hi == 0.0, rng.choice([0.0, -0.0], size=dim), hi)
            center = rng.choice([-1.0, -0.0, 0.0, 0.5], size=dim)
            xs = rng.normal(scale=2.0, size=(40, dim))
            pick = rng.random((15, dim))
            xs[:15] = np.where(pick < 0.4, lo, np.where(pick < 0.8, hi, xs[:15]))  # on faces
            xs[15:25] = rng.choice([0.0, -0.0, 1.0], size=(10, dim))  # signed zeros
            xs[25:28] = center
            shapes = [Box(lo, hi), Box(lo, lo), Ball(center, rng.choice([0.0, 0.6]))]
            if dim == 2:
                shapes.append(point_set(center))
            for c in shapes:
                assert _bits(geometry._dist_points_batch(xs, c)) == _bits(_per_edge_dist_batch(xs, c))
                n_cases += 1
    assert n_cases == 6400


def test_hausdorff_one_dimensional_exact():
    assert hausdorff(interval(0, 1), interval(2, 5)) == 4.0
    assert hausdorff(interval(-1, 1), interval(-1, 1)) == 0.0


@pytest.mark.parametrize(
    "c, d",
    [
        (interval(0.0, 1.0), Zonotope([2.0], [[1.0]], [0.5])),
        (Box([0.0, 0.0], [1.0, 2.0]), Box([0.5, -1.0], [3.0, 1.0])),
        (Ball([0.0, 0.0], 1.0), Ball([3.0, 4.0], 2.5)),
        (VertexPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), Box([0.5, 0.5], [2.0, 1.0])),
        (Ball([0.0, 0.0], 1.0), Box([-1.0, -1.0], [1.0, 1.0])),
    ],
    ids=["1d", "box-pair", "ball-pair", "vertex-pair", "sampled"],
)
def test_hausdorff_returns_a_python_float_on_every_branch(c, d):
    assert type(hausdorff(c, d)) is float


def test_hausdorff_translation_identity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        poly = _random_polygon(rng)
        v = rng.normal(size=2)
        assert math.isclose(hausdorff(poly, poly.translate(v)), float(np.linalg.norm(v)), abs_tol=1e-9)


def test_hausdorff_ball_pair_closed_form():
    a = Ball([0.0, 0.0], 1.0)
    b = Ball([3.0, 4.0], 2.5)
    assert math.isclose(hausdorff(a, b), 5.0 + 1.5, abs_tol=1e-12)
    # the stacked-ddot norm keeps np.linalg.norm's bits, one pair or many
    rng = np.random.default_rng(12)
    for d in (2, 3, 5, 9):
        cs = rng.standard_normal((200, d)) * rng.uniform(0.1, 10.0, (200, 1))
        rs = rng.uniform(0.0, 3.0, 200)
        e = Ball(rng.standard_normal(d), 1.25)
        want = [float(np.linalg.norm(c - e.center)) + abs(r - e.radius) for c, r in zip(cs, rs)]
        got = [hausdorff(Ball(c, r), e) for c, r in zip(cs, rs)]
        assert _bits(np.array(got)) == _bits(np.array(want))
        rows = geometry._ddot_norms(cs - e.center)
        assert _bits(rows) == _bits(np.array([np.linalg.norm(c - e.center) for c in cs]))


def test_hausdorff_axioms_on_random_pairs():
    rng = np.random.default_rng(9)
    sets = [_random_polygon(rng) for _ in range(6)]
    for a in sets:
        assert hausdorff(a, a) == 0.0
        for b in sets:
            assert math.isclose(hausdorff(a, b), hausdorff(b, a), abs_tol=1e-12)
            for c in sets:
                assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9


def test_hausdorff_mixed_variants_support_grid():
    # square vs inscribed ball: gap peaks at the corner directions
    sq = Box([-1, -1], [1, 1])
    ball = Ball([0.0, 0.0], 1.0)
    d = hausdorff(sq, ball)
    assert abs(d - (math.sqrt(2) - 1)) < 1e-3


def test_integrated_distance_concentric_balls_analytic():
    # max |d(x,A)-d(x,B)| over the r-ball is min(max(r-r1,0), r2-r1), and
    # the e^{-r}-weighted integral evaluates to exp(-r1) - exp(-r2)
    r1, r2 = 0.5, 1.5
    got = integrated_distance(Ball([0.0, 0.0], r1), Ball([0.0, 0.0], r2))
    want = math.exp(-r1) - math.exp(-r2)
    assert abs(got - want) < 5e-3


def test_integrated_distance_zero_and_symmetry():
    a = Box([0, 0], [1, 1])
    b = Ball([0.5, 0.5], 0.4)
    assert integrated_distance(a, a) == 0.0
    assert type(integrated_distance(a, b)) is float
    assert math.isclose(integrated_distance(a, b), integrated_distance(b, a), abs_tol=1e-12)


def test_integrated_distance_bounded_by_hausdorff():
    # |d(x,A)-d(x,B)| <= D_inf pointwise and the weight integrates to 1
    rng = np.random.default_rng(10)
    for _ in range(5):
        a = _random_polygon(rng)
        b = _random_polygon(rng)
        assert integrated_distance(a, b) <= hausdorff(a, b) + 1e-9


def _integrated_distance_per_call(c, d, n_radii, n_angles, n_points_1d, n_quadrature, r_cutoff):
    # integrated_distance before its grid was cached: nodes, directions and
    # point stack rebuilt on every call; kept as its oracle
    dim = c.dim
    nodes, wts = np.polynomial.laguerre.laggauss(n_quadrature)
    keep = nodes <= r_cutoff
    nodes, wts = nodes[keep], wts[keep]
    if dim > 1:
        dirs = direction_grid(dim, n_angles)
        steps = np.arange(1, n_radii + 1) / n_radii
    blocks = []
    for r in nodes:
        if dim == 1:
            pts = np.linspace(-r, r, n_points_1d).reshape(-1, 1)
        else:
            pts = ((r * steps)[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
            pts = np.vstack([np.zeros((1, dim)), pts])
        blocks.append(pts)
    sizes = [b.shape[0] for b in blocks]
    allpts = np.vstack(blocks)
    gap = np.abs(geometry._dist_points_batch(allpts, c) - geometry._dist_points_batch(allpts, d))
    total = 0.0
    at = 0
    for w, size in zip(wts, sizes):
        total += w * float(gap[at : at + size].max())
        at += size
    return total


_DISTANCE_GRID_CONSTANTS = (
    "_DISTANCE_RADII",
    "_DISTANCE_ANGLES",
    "_DISTANCE_POINTS_1D",
    "_DISTANCE_QUADRATURE",
    "_DISTANCE_R_CUTOFF",
)


def test_integrated_distance_grid_is_built_once_with_the_same_bits(monkeypatch):
    # neither the cache nor the split into node blocks may move a bit: every
    # distance is elementwise per point plus one dgemv row; 3 divides the 3
    # kept nodes of the first grid but not the 37 and 16 of the others
    rng = np.random.default_rng(49)
    pairs = [
        (_random_polygon(rng), Ball(rng.normal(size=2), 0.7)),
        (_random_box(rng, 2), Zonotope([0.1, -0.3], rng.normal(size=(3, 2)), [0.5, 1.0, 0.2])),
        (point_set([0.3, -0.2]), _random_polygon(rng, 5)),
        (interval(-0.5, 1.0), interval(0.25, 0.5)),
        (_random_box(rng, 3), Ball(rng.normal(size=3), 0.4)),
    ]
    pairs += [
        (_random_polygon(rng, 20), pairs[1][1]),
        (VertexPolytope([[-0.5, 0.2], [1.0, 0.9]]), Ball([0.1, 0.4], 1.3)),
        (_random_box(rng, 3), _random_box(rng, 3)),
    ]
    default = tuple(getattr(geometry, name) for name in _DISTANCE_GRID_CONSTANTS)
    assert default == (64, 64, 128, 32, 20.0)
    try:
        for res in [(5, 7, 9, 6, 3.0), (3, 4, 17, 40, 110.0), default]:
            for name, value in zip(_DISTANCE_GRID_CONSTANTS, res):
                monkeypatch.setattr(geometry, name, value)
            geometry._distance_grid.cache_clear()
            kept = geometry._distance_grid(1)[1].shape[0]
            for c, d in pairs:
                want = _bits(_integrated_distance_per_call(c, d, *res))
                for per_block in (1, 3, kept):  # the first call per dimension builds the grid
                    monkeypatch.setattr(geometry, "_DISTANCE_NODES_PER_BLOCK", per_block)
                    assert _bits(integrated_distance(c, d)) == want, (res, per_block, c, d)
    finally:
        monkeypatch.undo()
        geometry._distance_grid.cache_clear()
    grid, wts = geometry._distance_grid(2)
    assert not grid.flags.writeable and not wts.flags.writeable
    assert geometry._distance_grid(2)[0] is grid


def test_integrated_distance_node_blocks_halve_the_peak_memory():
    import tracemalloc

    rng = np.random.default_rng(51)
    c = _random_polygon(rng, 20)
    d = Zonotope([0.0, 0.5], rng.normal(size=(5, 2)), [1.0, 0.4, 0.7, 0.2, 0.9])
    args = [getattr(geometry, name) for name in _DISTANCE_GRID_CONSTANTS]
    peaks = []
    for call in (lambda: integrated_distance(c, d), lambda: _integrated_distance_per_call(c, d, *args)):
        call()  # builds the cached grid outside the traced window
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.5 * peaks[1], peaks


# ------------------------------------------------------------ membership


def test_contains_basics():
    assert contains(Box([0, 0], [1, 1]), [0.5, 1.0])
    assert not contains(Box([0, 0], [1, 1]), [1.1, 0.5])
    assert contains(Ball([0.0, 0.0], 1.0), [0.6, 0.8])
    assert not contains(Ball([0.0, 0.0], 1.0), [0.8, 0.8])
    tri = VertexPolytope([[0, 0], [1, 0], [0, 1]])
    assert contains(tri, [0.25, 0.25])
    assert not contains(tri, [0.75, 0.75])


# ---------------------------------------------------------- serialization


@pytest.mark.parametrize(
    "s",
    [
        Box([-1, 0], [2, 3]),
        Ball([0.5, -0.5], 1.25),
        VertexPolytope([[0, 0], [2, 1], [1, 3]]),
        Zonotope([0.0, 1.0], [[1.0, 0.0], [0.5, 0.5]], [1.0, 2.0]),
        point_set([3.0, -2.0]),
        interval(-2.0, 5.0),
    ],
)
def test_serialization_round_trip(s):
    back = set_from_dict(set_to_dict(s))
    assert type(back) is type(s)
    assert hausdorff(s, back) == 0.0
    back2 = set_from_json(set_to_json(s))
    assert hausdorff(s, back2) == 0.0
    json.loads(set_to_json(s))  # valid JSON text


def test_serialization_rejects_malformed_dicts():
    with pytest.raises(ValueError, match="unknown set type 'pyramid'"):
        set_from_dict({"type": "pyramid"})
    with pytest.raises(ValueError, match=r"expects fields \['lower', 'upper'\], got \['lower'\]"):
        set_from_dict({"type": "box", "lower": [0]})
    with pytest.raises(ValueError, match=r"got \['center', 'extra', 'radius'\]"):
        set_from_dict({"type": "ball", "center": [0], "radius": 1, "extra": 2})
    with pytest.raises(ValueError, match="'type' field"):
        set_from_dict({"vertices": [[0, 0]]})
    with pytest.raises(ValueError, match="'type' field"):
        set_from_dict([("type", "box")])


def _sets_of_every_variant(d):
    rng = np.random.default_rng(40 + d)
    return [
        Box(-rng.random(d), rng.random(d)),
        Ball(rng.normal(size=d), 0.75),
        VertexPolytope(rng.normal(size=(d + 2, d))),
        point_set(rng.normal(size=d)),
        Zonotope(rng.normal(size=d), rng.normal(size=(3, d)), rng.random(3)),
        Zonotope(rng.normal(size=d), rng.normal(size=(1, d)), [0.5]),
        Zonotope(rng.normal(size=d), np.zeros((0, d)), []),
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_variant_round_trips_through_its_record(d):
    # a zonotope without generators writes "generators": [], which parses
    # back with the center's dimension
    for s in _sets_of_every_variant(d):
        rec = s.to_dict()
        assert rec == set_to_dict(s) and list(rec)[0] == "type"
        for back in (set_from_dict(rec), set_from_json(set_to_json(s))):
            assert type(back) is type(s) and back.dim == d
            assert back.to_dict() == rec
            assert set_to_json(back) == set_to_json(s)


def test_zonotope_record_accepts_a_flat_generator():
    z = set_from_dict({"type": "zonotope", "center": [1, 2], "generators": [1, 0.5],
                       "weights": [2]})
    assert z.generators.tolist() == [[1.0, 0.5]] and z.weights.tolist() == [2.0]
    with pytest.raises(ValueError, match="generators must have shape"):
        set_from_dict({"type": "zonotope", "center": [1, 2], "generators": [1, 0.5, 3],
                       "weights": [2]})


def test_set_to_json_text_is_pinned():
    # recorded with the per-variant encoders this record rule replaced
    sets = [
        Box([-1, 0.5], [2, 3.25]),
        Zonotope([0.1, 0.2], [[1, 0], [0.3, 0.7]], [0.5, 2]),
        Zonotope([0.0, 1e-300], np.zeros((0, 2)), []),
        point_set([1e300, -0.0]),
        VertexPolytope([[0, 0], [2, 1], [1, 3]]),
        Ball([0.5, -0.5], 1.25),
        interval(-2.0, 5.0),
        Box([0.1], [0.30000000000000004]),
    ]
    assert [set_to_json(s) for s in sets] == [
        '{"type": "box", "lower": [-1.0, 0.5], "upper": [2.0, 3.25]}',
        '{"type": "zonotope", "center": [0.1, 0.2], "generators": [[1.0, 0.0], [0.3, 0.7]], '
        '"weights": [0.5, 2.0]}',
        '{"type": "zonotope", "center": [0.0, 1e-300], "generators": [], "weights": []}',
        '{"type": "vpoly", "vertices": [[1e+300, -0.0]]}',
        '{"type": "vpoly", "vertices": [[0.0, 0.0], [2.0, 1.0], [1.0, 3.0]]}',
        '{"type": "ball", "center": [0.5, -0.5], "radius": 1.25}',
        '{"type": "box", "lower": [-2.0], "upper": [5.0]}',
        '{"type": "box", "lower": [0.1], "upper": [0.30000000000000004]}',
    ]
    assert repr(sets[5]) == "Ball({'type': 'ball', 'center': [0.5, -0.5], 'radius': 1.25})"


def _rounded_axis(lo, hi, step):
    # the axis formula before it stopped at hi: round() may step past hi
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


@pytest.mark.parametrize(
    "lo, hi, step, count",
    [(0.1, 10.0, 0.05, 199), (-2.0, 2.0, 0.05, 81), (-1.5, 1.5, 0.01, 301), (-1.5, 1.5, 0.1, 31)],
)
def test_grid_axes_in_use_keep_their_points_bit_for_bit(lo, hi, step, count):
    axis = geometry._grid_axis(lo, hi, step)
    assert axis.shape == (count,)
    assert axis.tobytes() == _rounded_axis(lo, hi, step).tobytes()


def test_grid_axis_never_ends_past_hi():
    axis = geometry._grid_axis(-2.0, 2.0, 0.45)
    assert axis.tobytes() == (-2.0 + 0.45 * np.arange(9)).tobytes() and axis[-1] <= 2.0
    assert _rounded_axis(-2.0, 2.0, 0.45)[-1] > 2.0  # the old formula overshot to 2.05
    assert geometry._grid_axis(0.5, 0.5, 0.1).tolist() == [0.5]
    assert geometry._grid_count(0.0, 1e308, 1e-300) == math.inf  # the count overflows, not floor
    rng = np.random.default_rng(8)
    for _ in range(2000):
        lo = float(rng.uniform(-10, 10))
        hi = lo + float(rng.choice([0.0, rng.uniform(0, 10), rng.integers(1, 50) * 0.1]))
        step = float(rng.choice([rng.uniform(0.01, 3), 0.1, 0.05, 0.01]))
        axis = geometry._grid_axis(lo, hi, step)
        assert len(axis) == geometry._grid_count(lo, hi, step)
        assert axis[0] == lo and np.all(np.diff(axis) > 0)
        assert axis[-1] <= hi + 1e-9 * step + 4 * np.spacing(abs(hi) + abs(lo))
        assert axis[-1] + step > hi  # no point below hi is left out


# ------------------------------------------------------------- validation


def test_constructor_validation():
    with pytest.raises(ValueError):
        Box([0, 0], [1, -1])
    with pytest.raises(ValueError):
        Ball([0, 0], -0.5)
    with pytest.raises(ValueError):
        Ball([0, 0], float("nan"))
    with pytest.raises(ValueError):
        VertexPolytope(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        Zonotope([0.0], [[1.0, 0.0]], [1.0])  # generator dim mismatch


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        hausdorff(Box([0], [1]), Box([0, 0], [1, 1]))
    with pytest.raises(ValueError):
        minkowski_sum(Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0))
    with pytest.raises(ValueError):
        support(Box([0, 0], [1, 1]), [1.0])


def _interval_of(c):
    lo, hi = bounds_of(c)
    return float(lo[0]), float(hi[0])


def test_one_dimensional_mixed_sums_and_erosions_follow_interval_arithmetic():
    # dyadic data, so every bound is exact: [a, b] + [c, d] = [a + c, b + d],
    # and [a, b] - [c, d] = [a - c, b - d] when a - c <= b - d, else empty
    sets = {
        "ball": (Ball([0.5], 1.25), (-0.75, 1.75)),
        "zonotope": (Zonotope([-1.0], [[1.0], [-2.0]], [0.25, 0.125]), (-1.5, -0.5)),
        "vpoly": (VertexPolytope([[2.0], [0.25], [1.0]]), (0.25, 2.0)),
        "box": (interval(-3.0, 0.5), (-3.0, 0.5)),
        "point": (point_set([0.75]), (0.75, 0.75)),
    }
    for (na, (a, (alo, ahi))), (nb, (b, (blo, bhi))) in itertools.permutations(sets.items(), 2):
        if type(a) is type(b):
            continue  # same-variant pairs take their own closed forms
        assert _interval_of(a) == (alo, ahi)
        assert _interval_of(minkowski_sum(a, b)) == (alo + blo, ahi + bhi), (na, nb)
        diff = minkowski_diff(a, b)
        if alo - blo <= ahi - bhi:
            assert _interval_of(diff) == (alo - blo, ahi - bhi), (na, nb)
        else:
            assert diff is None, (na, nb)
    # equal widths erode to a single point
    assert _interval_of(minkowski_diff(Ball([0.5], 0.75), interval(-1.0, 0.5))) == (0.75, 0.75)


def test_one_dimensional_zonotope_projection_and_integrated_distance():
    z = Zonotope([0.5], [[1.0], [-2.0]], [0.25, 0.5])  # the interval [-0.75, 1.75]
    same = interval(-0.75, 1.75)
    for x, nearest in [(3.0, 1.75), (0.25, 0.25), (-2.0, -0.75), (1.75, 1.75)]:
        p, dist = project_point([x], z)
        assert p.tolist() == [nearest] and dist == abs(x - nearest)
    for other in (Ball([2.0], 0.5), interval(-0.5, 0.0), Zonotope([1.0], [[3.0]], [0.5])):
        want = integrated_distance(same, other)
        assert want > 0.0
        assert integrated_distance(z, other) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert integrated_distance(other, z) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert integrated_distance(z, same) == 0.0


def test_sampled_three_dimensional_ball_plus_polytope_sum_is_an_inner_hull():
    # the sum of the support points on each grid direction u: an inner
    # approximation of B + P that is exact on the grid, h(u) = h(u, B) + h(u, P)
    ball = Ball([0.5, -1.0, 0.25], 0.75)
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    cube = VertexPolytope(corners + [0.0, 0.5, 0.0])
    n = geometry._N_DIRECTIONS
    for a, b in ((ball, cube), (cube, ball)):
        s = minkowski_sum(a, b)
        assert isinstance(s, VertexPolytope) and s.vertices.shape == (n, 3)
        grid = direction_grid(3, n)
        exact = ball.support_many(grid) + cube.support_many(grid)
        np.testing.assert_allclose(s.support_many(grid), exact, rtol=0.0, atol=1e-12)
        probe = direction_grid(3, 1000)[::7]  # other directions: never above B + P
        outer = ball.support_many(probe) + cube.support_many(probe)
        assert np.all(s.support_many(probe) <= outer + 1e-12)


def test_sampled_three_dimensional_zonotope_plus_polytope_sum_and_average():
    # a 3-D zonotope plus a polytope stays sampled: there is no 3-D zonotope
    # vertex enumeration, so the sum is the support-point sum, exact on the
    # grid directions (a box sums exactly, tested below)
    rng = np.random.default_rng(40)
    zono = Zonotope(np.zeros(3), np.eye(3), np.ones(3))
    poly = VertexPolytope(rng.normal(size=(6, 3)))
    grid = direction_grid(3, geometry._N_DIRECTIONS)
    probe = rng.standard_normal((200, 3))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    scale_ = np.abs(np.vstack([vertices_of(poly), [[1.0, 1.0, 1.0]]])).max()
    for weights in (None, [0.5, 0.5]):
        if weights is None:
            got = [minkowski_sum(zono, poly), minkowski_sum(poly, zono)]
            w = 1.0
        else:
            got = [weighted_minkowski_average(weights, [zono, poly])]
            w = 0.5
        for s in got:
            assert isinstance(s, VertexPolytope)
            exact = w * (zono.support_many(grid) + poly.support_many(grid))
            np.testing.assert_allclose(s.support_many(grid), exact, rtol=0.0,
                                       atol=1e-12 * scale_)
            outer = w * (zono.support_many(probe) + poly.support_many(probe))
            assert np.all(s.support_many(probe) <= outer + 1e-12 * scale_)
    # zonotope pairs keep their closed form
    pair = minkowski_sum(zono, Zonotope(np.ones(3), np.eye(3)[:2], [0.5, 2.0]))
    assert isinstance(pair, Zonotope) and pair.generators.shape == (5, 3)


def test_three_dimensional_box_plus_zonotope_sum_is_an_exact_zonotope():
    # h(u, A + B) = h(u, A) + h(u, B) on random directions, in either order,
    # for boxes with and without a zero-width axis and for their average
    rng = np.random.default_rng(41)
    zono = Zonotope(rng.normal(size=3), rng.normal(size=(6, 3)), rng.uniform(0.2, 1.5, 6))
    dirs = rng.standard_normal((20_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    h_zono = zono.support_many(dirs)
    for box in (Box([-0.5, 0.0, -2.0], [0.5, 1.0, 2.0]), Box([-0.5, 1.0, -2.0], [0.5, 1.0, 2.0])):
        size = np.abs(np.vstack([vertices_of(box), zono.center])).max() + np.abs(zono._effective()).sum()
        h_box = box.support_many(dirs)
        sums = [minkowski_sum(zono, box), minkowski_sum(box, zono)]
        for s, want in [*((s, h_zono + h_box) for s in sums),
                        (weighted_minkowski_average([0.3, 0.7], [box, zono]), 0.3 * h_box + 0.7 * h_zono)]:
            assert isinstance(s, Zonotope) and s.generators.shape == (9, 3)
            np.testing.assert_allclose(s.support_many(dirs), want, rtol=0.0, atol=1e-12 * size)
    # in 2-D a box and a zonogon keep the exact vertex-polygon sum
    assert isinstance(minkowski_sum(Box([0.0, 0.0], [1.0, 2.0]), Zonotope([0.0, 0.0], np.eye(2), [1.0, 1.0])),
                      VertexPolytope)


def test_matrix_scale_of_a_ball_isometry_and_sampled_ellipse():
    ball = Ball([1.0, -0.5], 0.75)
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    img = scale(2.0 * rot, ball)  # a scaled isometry maps the ball to a ball
    assert isinstance(img, Ball)
    np.testing.assert_allclose(img.center, 2.0 * rot @ ball.center, rtol=0.0, atol=1e-15)
    assert img.radius == pytest.approx(1.5, rel=1e-15)
    stretch = np.array([[2.0, 0.0], [0.5, 1.0]])
    n = geometry._N_DIRECTIONS
    ellipse = scale(stretch, ball)  # sampled boundary points P(c + r u)
    assert isinstance(ellipse, VertexPolytope) and len(ellipse.vertices) == n
    back = np.linalg.solve(stretch, (ellipse.vertices - stretch @ ball.center).T).T
    np.testing.assert_allclose(np.linalg.norm(back, axis=1), 0.75, rtol=1e-13)
    u = direction_grid(2, 360)  # inside P B: h(u, P B) = u . P c + r |P' u|
    exact = u @ (stretch @ ball.center) + 0.75 * np.linalg.norm(u @ stretch, axis=1)
    assert np.all(ellipse.support_many(u) <= exact + 1e-12)
    # an n-gon in a circle of radius r lies within r (1 - cos(pi / n)) of it;
    # P, of norm below 2.5, stretches that gap at most 2.5 times
    assert np.max(exact - ellipse.support_many(u)) < 0.75 * 2.5 * (1.0 - math.cos(math.pi / n))
