"""Geometry layer: hulls, arithmetic, distances, serialization."""

import itertools
import json
import math

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
        assert contains(s, p, tol=1e-9)


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


def _erode_2d_all_pairs(c, d, n_directions=360):
    """Reference erosion: every feasible crossing of two shifted facet lines."""
    a, b = geometry._facets_2d(c, n_directions)
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
    yield minkowski_sum(poly(9), ball, 90), ball


def test_halfplane_erosion_matches_all_pairs_scan():
    rng = np.random.default_rng(12)
    shapes = set()
    for c, d in _erosion_cases(rng):
        n_dir = 90 if isinstance(d, Ball) else 360
        got = minkowski_diff(c, d, n_dir)
        want = _erode_2d_all_pairs(c, d, n_dir)
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


def test_projection_solvers_raise_at_their_iteration_cap(monkeypatch):
    # both nearest points lie inside an edge, which takes more than one step
    tri = VertexPolytope([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    z = Zonotope([3.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0])
    np.testing.assert_allclose(project_point([1.5, -2.0], tri)[0], [1.5, 0.0], atol=1e-9)
    np.testing.assert_allclose(project_point([1.0, 3.0], z)[0], [2.5, 1.5], atol=1e-6)
    monkeypatch.setattr(geometry, "_MIN_NORM_MAX_ITER", 1)
    with pytest.raises(SolverLimitError):
        project_point([1.5, -2.0], tri)
    monkeypatch.setattr(geometry, "_ZONOTOPE_NEAREST_MAX_ITER", 1)
    with pytest.raises(SolverLimitError):
        project_point([1.0, 3.0], z)


def test_distance_to_ball_and_box_closed_forms():
    assert math.isclose(dist_point([3.0, 4.0], Ball([0.0, 0.0], 2.0)), 3.0, abs_tol=1e-12)
    assert math.isclose(dist_point([2.0, 0.5], Box([0, 0], [1, 1])), 1.0, abs_tol=1e-12)
    assert dist_point([0.5, 0.5], Box([0, 0], [1, 1])) == 0.0


def test_hausdorff_one_dimensional_exact():
    assert hausdorff(interval(0, 1), interval(2, 5)) == 4.0
    assert hausdorff(interval(-1, 1), interval(-1, 1)) == 0.0


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
    assert math.isclose(integrated_distance(a, b), integrated_distance(b, a), abs_tol=1e-12)


def test_integrated_distance_bounded_by_hausdorff():
    # |d(x,A)-d(x,B)| <= D_inf pointwise and the weight integrates to 1
    rng = np.random.default_rng(10)
    for _ in range(5):
        a = _random_polygon(rng)
        b = _random_polygon(rng)
        assert integrated_distance(a, b) <= hausdorff(a, b) + 1e-9


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
    with pytest.raises(ValueError):
        set_from_dict({"type": "pyramid"})
    with pytest.raises(ValueError):
        set_from_dict({"type": "box", "lower": [0]})
    with pytest.raises(ValueError):
        set_from_dict({"type": "ball", "center": [0], "radius": 1, "extra": 2})
    with pytest.raises(ValueError):
        set_from_dict({"vertices": [[0, 0]]})


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
