"""Tests of the benchmark itself: tracer, self times, digests, inputs.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import json
import sys

import pytest

import geomix
import workloads
from layers import per_layer_spec
from tracer import Span, Tracer, self_times


def _bindings():
    return {
        (key, attr): value
        for key, mod in sys.modules.items()
        if mod is not None and (key == "setstat" or key.startswith("setstat."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.fixture
def small_clt(monkeypatch, tmp_path):
    kind, params, unit = workloads.HARNESS_WORKLOADS["clt-box2d"]
    monkeypatch.setitem(
        workloads.HARNESS_WORKLOADS,
        "clt-box2d",
        (kind, dict(params, n=40, replicates=30, max_cov_rel_error=1.0), unit),
    )
    monkeypatch.setattr(workloads, "OUT_ROOT", tmp_path)
    return workloads.prepare("clt-box2d", 5)


@pytest.fixture
def small_kernel(monkeypatch, tmp_path):
    kind, params, unit = workloads.HARNESS_WORKLOADS["kernel-interval"]
    grid = {"lo": -1.0, "hi": 1.0, "step": 0.25}
    monkeypatch.setitem(
        workloads.HARNESS_WORKLOADS,
        "kernel-interval",
        (kind, dict(params, n=500, u_grid=grid), unit),
    )
    monkeypatch.setattr(workloads, "OUT_ROOT", tmp_path)
    return workloads.prepare("kernel-interval", 5)


def test_tracer_restores_every_binding():
    before = _bindings()
    from setstat import geometry, harness

    with Tracer():
        assert harness.hausdorff is not before[("setstat.harness", "hausdorff")]
        assert geometry.hausdorff is harness.hausdorff  # one wrapper, every binding
        assert _bindings() != before
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_run_installs_no_wrappers(small_clt):
    before = _bindings()
    small_clt.run()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_gives_the_untraced_digest(small_clt):
    plain = small_clt.run()
    with Tracer() as tracer:
        traced = small_clt.run()
    assert tracer.spans
    assert plain.digest == traced.digest
    assert plain.failed == traced.failed == 0


def test_traced_geometry_ops_keep_their_digest():
    wl = workloads.prepare("geometry-mix2d", 2)
    wl.ops = [op for op in wl.ops if op[0] != "diff"][:60]
    plain = wl.run()
    with Tracer():
        traced = wl.run()
    assert plain.digest == traced.digest
    assert plain.correct and traced.correct


def test_pool_thread_spans_hang_under_the_harness_run(small_kernel):
    with Tracer() as tracer:
        small_kernel.run()
    (run_span,) = [s for s in tracer.spans if s.name == "harness.run"]
    estimates = [s for s in tracer.spans if s.name == "kernelreg.estimate"]
    assert len(estimates) == 9
    assert all(s.parent == run_span.sid for s in estimates)
    selfs = self_times(tracer.spans)
    assert 0.0 <= selfs[run_span.sid] <= run_span.end - run_span.start


def test_self_times_of_a_nested_tree_add_up_to_wall_time():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "a.inner", 2.0, 3.0, 1, 1),
        Span(3, "b", 5.0, 9.0, 0, 1),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_thread_children_once():
    # two pool threads run children that overlap on [3, 4]
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 2),
        Span(2, "b", 3.0, 6.0, 0, 3),
        Span(3, "b.inner", 3.5, 5.0, 2, 3),
    ]
    selfs = self_times(spans)
    union = 6.0 - 1.0
    assert selfs[0] == pytest.approx(10.0 - union)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    # root self time plus the time some child was busy is the wall time
    assert selfs[0] + union == pytest.approx(10.0)


def _encoded(ops):
    return [(op, [geomix.encode(a) if not hasattr(a, "tolist") else repr(a.tolist())
                  for a in args]) for op, args in ops]


def test_geometry_inputs_are_deterministic_per_seed():
    assert _encoded(geomix.build_ops(7)) == _encoded(geomix.build_ops(7))
    assert _encoded(geomix.build_ops(7)) != _encoded(geomix.build_ops(8))
    ops = [op for op, _ in geomix.build_ops(7)]
    assert len(ops) == sum(geomix.COUNTS.values())


def test_benchmark_json_lists_the_reported_layer_metrics():
    from env import ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == per_layer_spec()


def test_adjusted_run_time_cancels_a_host_slowdown():
    import run

    steady = run.adjusted_run_s([1.0] * 4, [0.05] * 5)
    assert steady == pytest.approx(run.REFERENCE_JOB_S * 20)
    # the whole loop on a host twice as slow
    assert run.adjusted_run_s([2.0] * 4, [0.10] * 5) == pytest.approx(steady)
    # the host slows down between the second and third run; the one run whose
    # reference timings straddle the step is outvoted by the median
    assert run.adjusted_run_s([1.0, 1.0, 2.0, 2.0], [0.05, 0.05, 0.10, 0.10, 0.10]) == (
        pytest.approx(steady)
    )


def test_benchmark_json_lists_the_reported_end_to_end_metrics():
    from env import ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["adj_run_s", "adj_items_per_s", "setup_s", "peak_rss_mb"]
