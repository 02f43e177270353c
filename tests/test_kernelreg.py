"""Kernel regression of set-valued responses and the interval demo problem."""

import json
import math
import re

import numpy as np
import pytest

from setstat.geometry import (
    Ball,
    Box,
    VertexPolytope,
    Zonotope,
    bounds_of,
    hausdorff,
    interval,
    point_set,
    set_to_dict,
    weighted_minkowski_average,
)
from setstat.kernelreg import (
    EPANECHNIKOV,
    INDICATOR,
    KERNELS,
    KernelSpec,
    LabeledSetSample,
    NoLocalDataError,
    SetRegressionDataset,
    consistency_curve,
    default_bandwidth,
    demo_truth,
    demo_truth_raw,
    estimate,
    generate_demo_dataset,
    kernel_family_eval,
    kernel_weights,
    local_mass_diagnostics,
    read_dataset_jsonl,
    validate_kernel,
    write_dataset_jsonl,
)
from setstat.kernelreg import _demo_fit
from setstat.randomsets import RngSeed


# ------------------------------------------------------------------ kernels


def test_builtin_kernels_satisfy_axioms():
    for spec in KERNELS.values():
        validate_kernel(spec)


def test_kernel_axiom_violations_detected():
    with pytest.raises(ValueError):
        validate_kernel(KernelSpec("neg", lambda t: 0.5 - t))
    with pytest.raises(ValueError):
        validate_kernel(KernelSpec("wide", lambda t: np.ones_like(np.asarray(t))))
    with pytest.raises(ValueError):
        validate_kernel(KernelSpec("hole", lambda t: np.where(np.asarray(t) < 0.1, 0.0, 0.0)))


def test_kernel_family_eval_closed_forms():
    # epanechnikov at the origin: 0.75 / h
    assert math.isclose(kernel_family_eval(EPANECHNIKOV, 0.5, [0.0]), 1.5, abs_tol=1e-12)
    # indicator in 1-D: 0.5 / h inside the window
    assert math.isclose(kernel_family_eval(INDICATOR, 0.5, [0.2]), 1.0, abs_tol=1e-12)
    assert kernel_family_eval(INDICATOR, 0.5, [0.6]) == 0.0
    # 2-D normalization uses h^-2
    assert math.isclose(
        kernel_family_eval(EPANECHNIKOV, 0.5, [0.0, 0.0]), 0.75 / 0.25, abs_tol=1e-12
    )
    with pytest.raises(ValueError):
        kernel_family_eval(EPANECHNIKOV, 0.0, [0.0])


def test_default_bandwidth_rates():
    assert default_bandwidth(1, 1) == 1.0
    assert math.isclose(default_bandwidth(10**5, 1), 0.1, abs_tol=1e-12)
    assert math.isclose(default_bandwidth(10**4, 1), 10 ** (-0.8), abs_tol=1e-12)
    assert math.isclose(default_bandwidth(10**6, 2), 0.1, abs_tol=1e-12)
    with pytest.raises(ValueError):
        default_bandwidth(0, 1)


def test_kernel_weights_normalized_and_local():
    inputs = np.array([[0.0], [0.1], [5.0]])
    w = kernel_weights(EPANECHNIKOV, inputs, [0.05], 0.5)
    assert math.isclose(w.sum(), 1.0, abs_tol=1e-12)
    assert w[2] == 0.0
    assert w[0] > 0 and w[1] > 0
    with pytest.raises(NoLocalDataError):
        kernel_weights(EPANECHNIKOV, inputs, [50.0], 0.5)


# --------------------------------------------------------------- estimator


def _tiny_dataset():
    return SetRegressionDataset(
        [
            LabeledSetSample([0.0], interval(0.0, 1.0)),
            LabeledSetSample([0.2], interval(1.0, 3.0)),
            LabeledSetSample([3.0], interval(10.0, 11.0)),
        ]
    )


def test_estimate_weighted_interval_average_by_hand():
    ds = _tiny_dataset()
    # indicator kernel with h=0.5 sees the first two samples equally
    est = estimate(ds, INDICATOR, [0.1], 0.5)
    lo, hi = bounds_of(est)
    assert math.isclose(lo[0], 0.5, abs_tol=1e-12)
    assert math.isclose(hi[0], 2.0, abs_tol=1e-12)


def test_estimate_reproduces_constant_sets():
    s = interval(-1.5, 2.5)
    ds = SetRegressionDataset(
        [LabeledSetSample([float(x)], s) for x in np.linspace(-2, 2, 20)]
    )
    for u in [-1.0, 0.0, 1.7]:
        assert hausdorff(estimate(ds, EPANECHNIKOV, [u], 0.8), s) <= 1e-12


def test_estimate_translation_equivariance_in_inputs():
    ds = _tiny_dataset()
    shift = 10.0
    shifted = SetRegressionDataset(
        [LabeledSetSample(smp.x + shift, smp.s) for smp in ds.samples]
    )
    a = estimate(ds, EPANECHNIKOV, [0.1], 0.5)
    b = estimate(shifted, EPANECHNIKOV, [0.1 + shift], 0.5)
    assert hausdorff(a, b) <= 1e-12


def test_estimate_invariant_to_kernel_scaling():
    ds = _tiny_dataset()
    doubled = KernelSpec("doubled", lambda t: 2.0 * EPANECHNIKOV.profile(t))
    a = estimate(ds, EPANECHNIKOV, [0.1], 0.5)
    b = estimate(ds, doubled, [0.1], 0.5)
    assert hausdorff(a, b) <= 1e-12


def test_estimate_respects_set_translation():
    ds = _tiny_dataset()
    v = np.array([7.5])
    moved = SetRegressionDataset(
        [LabeledSetSample(smp.x, smp.s.translate(v)) for smp in ds.samples]
    )
    a = estimate(ds, EPANECHNIKOV, [0.1], 0.5)
    b = estimate(moved, EPANECHNIKOV, [0.1], 0.5)
    assert hausdorff(a.translate(v), b) <= 1e-12


def test_estimate_raises_without_local_mass():
    with pytest.raises(NoLocalDataError):
        estimate(_tiny_dataset(), INDICATOR, [20.0], 0.5)


def test_estimate_handles_two_dimensional_sets():
    ds = SetRegressionDataset(
        [
            LabeledSetSample([0.0], Box([0, 0], [1, 1])),
            LabeledSetSample([0.1], Box([1, 1], [2, 2])),
        ]
    )
    est = estimate(ds, INDICATOR, [0.05], 1.0)
    lo, hi = bounds_of(est)
    np.testing.assert_allclose(lo, [0.5, 0.5])
    np.testing.assert_allclose(hi, [1.5, 1.5])


def test_labeled_sample_rejects_non_finite_input():
    for x in ([math.nan], [0.0, math.inf], -math.inf):
        with pytest.raises(ValueError, match="finite"):
            LabeledSetSample(x, interval(0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):  # the same rule as the array constructor
        SetRegressionDataset.from_boxes([[math.nan]], [[0.0]], [[1.0]])


def test_dataset_validation():
    with pytest.raises(ValueError):
        SetRegressionDataset([])
    with pytest.raises(ValueError):
        SetRegressionDataset(
            [
                LabeledSetSample([0.0], interval(0, 1)),
                LabeledSetSample([0.0, 1.0], interval(0, 1)),
            ]
        )
    with pytest.raises(ValueError):
        SetRegressionDataset(
            [
                LabeledSetSample([0.0], interval(0, 1)),
                LabeledSetSample([1.0], Box([0, 0], [1, 1])),
            ]
        )


# ------------------------------------------------------------ demo problem


def test_demo_truth_oracle_values():
    lo, hi = bounds_of(demo_truth(0.0))
    assert (lo[0], hi[0]) == (-2.0, 2.0)
    lo, hi = bounds_of(demo_truth(1.0))
    assert (lo[0], hi[0]) == (1.0, 2.0)
    lo, hi = bounds_of(demo_truth(-2.0))
    assert (lo[0], hi[0]) == (-2.0, 0.5)
    lo, hi = bounds_of(demo_truth(2.0))
    assert (lo[0], hi[0]) == (1.5, 2.0)
    assert demo_truth_raw(-0.3) == (-2.0, 1.0 / 0.3)


def test_demo_truth_clipping_region():
    # raw upper endpoint exceeds 2 between -1/2 and -1/4; the set value clips
    raw_lo, raw_hi = demo_truth_raw(-0.3)
    assert raw_hi > 2.0
    lo, hi = bounds_of(demo_truth(-0.3))
    assert hi[0] == 2.0 and lo[0] == -2.0
    with pytest.raises(ValueError):
        demo_truth(2.5)


def test_generate_demo_dataset_shapes_and_determinism():
    ds1 = generate_demo_dataset(200, RngSeed(31))
    ds2 = generate_demo_dataset(200, RngSeed(31))
    assert len(ds1) == 200
    np.testing.assert_array_equal(ds1.inputs, ds2.inputs)
    for a, b in zip(ds1, ds2):
        assert hausdorff(a.s, b.s) == 0.0
    assert np.all(np.abs(ds1.inputs) <= 2.0)
    for smp in ds1:
        lo, hi = bounds_of(smp.s)
        tlo, thi = bounds_of(demo_truth(float(smp.x[0])))
        w = lo[0] - tlo[0]
        assert abs(w) <= 1.0 + 1e-12  # pure translate by w ~ U(-1, 1)
        assert math.isclose(hi[0] - thi[0], w, abs_tol=1e-12)


def test_local_mass_diagnostics_match_density():
    # x ~ U(-2, 2) has density 1/4; kernels integrate to one, so the first
    # diagnostic estimates 0.25 at interior points and the second decays
    ds = generate_demo_dataset(100_000, RngSeed(5))
    for spec in (EPANECHNIKOV, INDICATOR):
        h = default_bandwidth(len(ds), 1)
        mass, drift = local_mass_diagnostics(spec, ds.inputs, [0.3], h)
        assert abs(mass - 0.25) / 0.25 < 0.05
        assert drift < 0.05


def test_estimate_tracks_demo_truth_at_moderate_n():
    ds = generate_demo_dataset(4000, RngSeed(17))
    h = default_bandwidth(4000, 1)
    for u in [-1.5, -0.5, 0.0, 0.5, 1.5]:
        err = hausdorff(estimate(ds, EPANECHNIKOV, [u], h), demo_truth(u))
        assert err < 0.35


def _per_query_fit(ds, u_grid, h):
    """The columns of the kernel-fit table, one query at a time."""
    rows = []
    for u in u_grid:
        truth, est = demo_truth(float(u)), estimate(ds, EPANECHNIKOV, u, h)
        (t_lo, t_hi), (e_lo, e_hi) = bounds_of(truth), bounds_of(est)
        rows.append((t_lo[0], t_hi[0], e_lo[0], e_hi[0], hausdorff(est, truth)))
    return [np.array(col, dtype=float) for col in zip(*rows)]


def test_demo_fit_matches_the_per_query_loop_bit_for_bit():
    ds = generate_demo_dataset(3000, RngSeed(3))
    h = default_bandwidth(3000, 1)
    preset = -1.5 + 0.1 * np.arange(31)
    grids = [
        preset,
        -1.5 + 0.01 * np.arange(301),
        np.random.default_rng(7).uniform(-2.0, 2.0, 250),
        np.array([-2.0, -0.5, -0.25, 0.0, 0.25, 0.5, 2.0]),
    ]
    for u_grid in grids:
        got = _demo_fit(ds, EPANECHNIKOV, u_grid, h)
        for col, want in zip(got, _per_query_fit(ds, u_grid, h), strict=True):
            assert col.tobytes() == want.tobytes()
    # bounds_of writes the truth's lower endpoint +0.0 at u = 0.5 as -0.0
    assert preset[20] == 0.5
    assert math.copysign(1.0, _demo_fit(ds, EPANECHNIKOV, preset, h)[0][20]) == -1.0
    with pytest.raises(ValueError, match=r"defined on \[-2, 2\]"):
        _demo_fit(ds, EPANECHNIKOV, np.array([0.0, 2.5]), h)


def test_consistency_curve_matches_the_per_query_loop_bit_for_bit():
    u_grid = np.arange(-1.5, 1.5 + 1e-9, 0.25)
    seed = RngSeed(23)
    points, records = consistency_curve([100, 400], 2, u_grid, seed)
    want = []
    for i, n in enumerate([100, 400]):
        h = default_bandwidth(n, 1)
        for r in range(2):
            errs = _per_query_fit(generate_demo_dataset(n, seed.derive(1_000_000 * i + r)),
                                  u_grid, h)[4]
            want += [(n, r, float(u), float(e)) for u, e in zip(u_grid, errs)]
    assert [rec[:3] for rec in records] == [rec[:3] for rec in want]
    assert np.array([rec[3] for rec in records]).tobytes() == np.array(
        [rec[3] for rec in want]).tobytes()
    for p, block in zip(points, (want[:2 * len(u_grid)], want[2 * len(u_grid):])):
        assert p.median_error == float(np.median([rec[3] for rec in block]))


def test_consistency_curve_improves_with_n():
    u_grid = np.arange(-1.5, 1.5 + 1e-9, 0.25)
    points, records = consistency_curve([100, 2000], 3, u_grid, RngSeed(23))
    assert [p.n for p in points] == [100, 2000]
    assert len(records) == 2 * 3 * len(u_grid)
    assert points[1].median_error < points[0].median_error


# ------------------------------------------------------------------- files


def test_dataset_jsonl_round_trip(tmp_path):
    ds = generate_demo_dataset(50, RngSeed(2))
    path = tmp_path / "demo.jsonl"
    write_dataset_jsonl(ds, path)
    back = read_dataset_jsonl(path)
    assert len(back) == 50
    np.testing.assert_allclose(back.inputs, ds.inputs)
    for a, b in zip(ds, back):
        assert hausdorff(a.s, b.s) == 0.0


def test_object_dataset_lines_are_the_json_encoding(tmp_path):
    rng = np.random.default_rng(12)
    sets = [
        Box([-1, 0.5], [2, 3.25]),
        Zonotope([0.1, 0.2], [[1, 0], [0.3, 0.7]], [0.5, 2]),
        Zonotope([0.0, 1e-300], np.zeros((0, 2)), []),
        point_set([1e300, -0.0]),
        Ball([0.5, -0.5], 1.25),
        VertexPolytope(rng.normal(size=(8, 2))),
    ]
    ds = SetRegressionDataset([LabeledSetSample(rng.normal(size=2), s) for s in sets])
    path = tmp_path / "objects.jsonl"
    write_dataset_jsonl(ds, path)
    want = "".join(
        json.dumps({"x": [float(v) for v in smp.x], "set": set_to_dict(smp.s)},
                   separators=(", ", ": ")) + "\n"
        for smp in ds
    )
    assert path.read_text() == want
    back = read_dataset_jsonl(path)
    assert [set_to_dict(smp.s) for smp in back] == [set_to_dict(s) for s in sets]
    box = '{"type": "box", "lower": [0], "upper": [1]}'
    path.write_text(f'{{"x": [0.0], "set": {box}}}\n\n{{"x": [0.0]}}\n')
    with pytest.raises(ValueError, match=r"line 3: expected keys x and set, got \['x'\]"):
        read_dataset_jsonl(path)
    for line in ("5", "[1]", '"x"', "null"):  # a line that is not a JSON object
        path.write_text(f'{{"x": [0.0], "set": {box}}}\n{line}\n')
        with pytest.raises(ValueError, match=rf"line 2: expected keys x and set, got {re.escape(line)}$"):
            read_dataset_jsonl(path)


def test_array_backed_estimate_matches_object_dataset(tmp_path):
    # the demo dataset is array-backed; the file round trip rebuilds it from
    # Box objects, which estimate averages through weighted_minkowski_average
    ds = generate_demo_dataset(3000, RngSeed(11))
    assert ds.lower is not None
    path = tmp_path / "demo.jsonl"
    write_dataset_jsonl(ds, path)
    objects = read_dataset_jsonl(path)
    assert objects.lower is None
    h = default_bandwidth(len(ds), 1)
    for u in np.linspace(-1.5, 1.5, 13):
        fast = estimate(ds, EPANECHNIKOV, [u], h)
        slow = estimate(objects, EPANECHNIKOV, [u], h)
        assert type(fast) is type(slow) is Box
        assert np.array_equal(fast.lower, slow.lower)
        assert np.array_equal(fast.upper, slow.upper)


def _full_scan_estimate(dataset, kernel, u, h):
    """estimate with the kernel evaluated on every input: the path the
    bandwidth window replaced."""
    w = kernel_weights(kernel, dataset.inputs, u, h)
    keep = w > 0
    if dataset.lower is not None:
        wk = w[keep]
        return Box(wk @ dataset.lower[keep], wk @ dataset.upper[keep])
    sets = [smp.s for smp, k in zip(dataset.samples, keep) if k]
    return weighted_minkowski_average(w[keep], sets)


def _assert_window_matches_full_scan(ds, u, h):
    for kernel in (EPANECHNIKOV, INDICATOR):
        try:
            want = _full_scan_estimate(ds, kernel, u, h)
        except NoLocalDataError:
            with pytest.raises(NoLocalDataError):
                estimate(ds, kernel, u, h)
            continue
        got = estimate(ds, kernel, u, h)
        assert type(got) is type(want) is Box
        for a, b in ((got.lower, want.lower), (got.upper, want.upper)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), (kernel.name, u, h)


def _boxes(rng, n, q):
    lo = rng.normal(size=(n, q))
    return lo, lo + rng.uniform(0.0, 2.0, size=(n, q))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 7, 500, 4000])
def test_windowed_estimate_matches_full_scan_bit_for_bit(n, d):
    rng = np.random.default_rng(10 * n + d)
    x = rng.uniform(-2.0, 2.0, size=(n, d))
    x[: n // 4] = x[n // 4 : 2 * (n // 4)]  # duplicate inputs
    x = rng.permutation(x)
    h = default_bandwidth(n, d)
    lo, hi = _boxes(rng, n, 2)
    arrays = SetRegressionDataset.from_boxes(x, lo, hi)
    objects = SetRegressionDataset(arrays.samples)
    assert objects.lower is None
    ends = [x[:, 0].min(), x[:, 0].max()]
    queries = [*ends, ends[0] - 0.5 * h, ends[1] + 0.999 * h, *rng.uniform(-2.2, 2.2, size=25)]
    # a sample's first coordinate, and that coordinate at the window's edges
    picks = x[rng.integers(0, n, size=4), 0]
    queries += [*picks, *(picks - 2.0 * h), *(picks + 2.0 * h)]
    for u0 in queries:
        u = np.concatenate([[u0], x[0, 1:]])
        for ds in (arrays, objects):
            _assert_window_matches_full_scan(ds, u, h)
            _assert_window_matches_full_scan(ds, u + np.array([3.0 * h] + [0.0] * (d - 1)), h)
    for u in x[rng.integers(0, n, size=4)]:  # exactly at a sample
        for ds in (arrays, objects):
            _assert_window_matches_full_scan(ds, u, h)


def test_windowed_estimate_matches_full_scan_at_exactly_h():
    # binary fractions: |x - u| / h is exactly 1, or one ulp either side of it
    h, u = 0.25, 0.5
    x = np.array([0.25, 0.75, np.nextafter(0.25, 1.0), np.nextafter(0.75, 0.0),
                  np.nextafter(0.25, 0.0), np.nextafter(0.75, 1.0), 0.5, 0.5, -2.0, 3.0])
    rng = np.random.default_rng(3)
    lo, hi = _boxes(rng, len(x), 1)
    arrays = SetRegressionDataset.from_boxes(x[:, None], lo, hi)
    for ds in (arrays, SetRegressionDataset(arrays.samples)):
        for q in (u, 0.25, 0.75, 0.0, 1.0, -2.0, 3.0, -2.25, 3.25):
            _assert_window_matches_full_scan(ds, [q], h)
    # on the boundary alone: the epanechnikov profile gives 0 at t = 1
    edge = SetRegressionDataset.from_boxes(np.array([[0.25], [0.75]]), lo[:2], hi[:2])
    with pytest.raises(NoLocalDataError):
        estimate(edge, EPANECHNIKOV, [u], h)
    with pytest.raises(NoLocalDataError):
        _full_scan_estimate(edge, EPANECHNIKOV, [u], h)


def test_windowed_estimate_without_local_mass_raises():
    ds = generate_demo_dataset(2000, RngSeed(4))
    # inputs lie in [-2, 2]: the 2h windows at +-2.5 hold samples, none within h
    for u, h in (([2.5], 0.4), ([-2.5], 0.4), ([0.0], 1e-9)):
        for kernel in (EPANECHNIKOV, INDICATOR):
            with pytest.raises(NoLocalDataError):
                estimate(ds, kernel, u, h)
            with pytest.raises(NoLocalDataError):
                kernel_weights(kernel, ds.inputs, u, h)


def test_dataset_inputs_are_read_only():
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    lo = np.zeros((5, 1))
    arrays = SetRegressionDataset.from_boxes(x, lo, lo + 1.0)
    objects = SetRegressionDataset(arrays.samples)
    before = estimate(arrays, INDICATOR, [-1.0], 0.1)  # sorts the inputs
    for ds in (arrays, objects):
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 9.0
    x[0, 0] = 9.0  # the caller's array stays writable and is not shared
    assert arrays.inputs[0, 0] == -1.0
    assert np.array_equal(estimate(arrays, INDICATOR, [-1.0], 0.1).lower, before.lower)
    with pytest.raises(NoLocalDataError):
        estimate(arrays, INDICATOR, [9.0], 0.1)


def test_sorted_rows_are_built_once_per_dataset(monkeypatch):
    ds = generate_demo_dataset(500, RngSeed(2))
    h = default_bandwidth(len(ds), 1)
    estimate(ds, EPANECHNIKOV, [0.0], h)
    rows = ds._sorted_first_coordinate()[2]
    estimate(ds, INDICATOR, [0.5], h)
    _demo_fit(ds, EPANECHNIKOV, np.linspace(-1.5, 1.5, 7), h)
    assert ds._sorted_first_coordinate()[2] is rows
    # consistency_curve: one sorted copy per generated dataset, read by
    # every query on it
    seen = []
    build = SetRegressionDataset._sorted_first_coordinate

    def spy(dataset):
        built = build(dataset)
        seen.append((dataset, built[2]))
        return built

    monkeypatch.setattr(SetRegressionDataset, "_sorted_first_coordinate", spy)
    consistency_curve([50, 80], 2, np.linspace(-1.0, 1.0, 5), RngSeed(3))
    copies = {}
    for dataset, copy in seen:
        assert copies.setdefault(id(dataset), copy) is copy
    assert len(seen) == 4 * 5 and len(copies) == 4


def test_sorted_rows_are_a_read_only_copy():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, size=(40, 3))
    x[:10, 0] = x[10:20, 0]  # ties keep their dataset order
    lo, hi = _boxes(rng, 40, 1)
    arrays = SetRegressionDataset.from_boxes(x, lo, hi)
    for ds in (arrays, SetRegressionDataset(arrays.samples)):
        order, first, rows = ds._sorted_first_coordinate()
        assert np.array_equal(order, np.argsort(x[:, 0], kind="stable"))
        assert np.array_equal(rows, x[order]) and np.array_equal(first, rows[:, 0])
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 9.0
        assert not np.shares_memory(rows, x) and not np.shares_memory(rows, ds.inputs)


@pytest.mark.parametrize(
    "call",
    [
        lambda ds, u: estimate(ds, EPANECHNIKOV, u, 1.0),
        lambda ds, u: kernel_weights(EPANECHNIKOV, ds.inputs, u, 1.0),
        lambda ds, u: local_mass_diagnostics(EPANECHNIKOV, ds.inputs, u, 1.0),
    ],
    ids=["estimate", "kernel_weights", "local_mass_diagnostics"],
)
def test_query_length_must_match_the_input_dimension(call):
    rng = np.random.default_rng(6)
    lo, hi = _boxes(rng, 50, 1)
    ds = SetRegressionDataset.from_boxes(rng.uniform(-1.0, 1.0, size=(50, 2)), lo, hi)
    for u in ([0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]):
        shape = re.escape(str(np.shape(u)))
        with pytest.raises(ValueError, match=rf"query point has shape {shape}, inputs have dimension 2"):
            call(ds, u)
    assert ds._sorted_first is None  # refused before the window is built
    call(ds, [0.1, 0.1])


def test_dataset_jsonl_bytes_match_object_writer(tmp_path):
    ds = generate_demo_dataset(200, RngSeed(3))
    write_dataset_jsonl(ds, tmp_path / "arrays.jsonl")
    write_dataset_jsonl(SetRegressionDataset(ds.samples), tmp_path / "objects.jsonl")
    assert (tmp_path / "arrays.jsonl").read_bytes() == (tmp_path / "objects.jsonl").read_bytes()


def test_dataset_jsonl_row_writer_matches_json_in_two_dimensions(tmp_path):
    # the array writer formats rows itself; the object writer goes through json
    rng = np.random.default_rng(5)
    odd = np.array([-0.0, 0.0, 1e-300, 5e-324, 1e22, 1e16, -123456789.0, 0.1, 1 / 3, 2.0])
    lo = np.concatenate([rng.normal(size=(30, 2)), odd.reshape(5, 2)])
    hi = lo + np.abs(rng.normal(size=lo.shape))
    hi[-5:] = lo[-5:]  # degenerate boxes, -0.0 corners included
    x = np.concatenate([rng.uniform(-2.0, 2.0, size=(30, 2)), odd.reshape(5, 2)[::-1]])
    ds = SetRegressionDataset.from_boxes(x, lo, hi)
    write_dataset_jsonl(ds, tmp_path / "arrays.jsonl")
    write_dataset_jsonl(SetRegressionDataset(ds.samples), tmp_path / "objects.jsonl")
    text = (tmp_path / "arrays.jsonl").read_bytes()
    assert text == (tmp_path / "objects.jsonl").read_bytes()
    assert b"-0.0" in text and b"5e-324" in text
    back = read_dataset_jsonl(tmp_path / "arrays.jsonl")
    assert np.array_equal(back.inputs, x)


def test_from_boxes_validates_arrays():
    x = np.zeros((3, 1))
    ds = SetRegressionDataset.from_boxes(x, np.zeros((3, 2)), np.ones((3, 2)))
    assert len(ds) == 3 and ds.input_dim == 1 and ds.set_dim == 2
    assert all(isinstance(smp.s, Box) for smp in ds)
    with pytest.raises(ValueError):
        SetRegressionDataset.from_boxes(x, np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        SetRegressionDataset.from_boxes(x, np.ones((3, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SetRegressionDataset.from_boxes(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 1)))


def test_dataset_jsonl_rejects_bad_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"x": [0.0]}\n')
    with pytest.raises(ValueError):
        read_dataset_jsonl(path)
    path.write_text('{"x": [0.0], "set": {"type": "box", "lower": [0], "upper": [1]}, "y": 2}\n')
    with pytest.raises(ValueError):
        read_dataset_jsonl(path)
    # JSON true and false are not numbers, in x or inside the set record
    for line, field in (('{"x": [true], "set": {"type": "box", "lower": [0], "upper": [1]}}', "x"),
                        ('{"x": [0.0], "set": {"type": "box", "lower": [false], "upper": [1]}}',
                         "set")):
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=f"line 1: {field} must hold numbers, not bools"):
            read_dataset_jsonl(path)
