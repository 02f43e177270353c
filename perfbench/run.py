"""setstat benchmark.

Runs one workload in this process as a closed loop with one caller: each
workload run starts when the previous one ends.  After one warm-up run it
measures for --seconds, checks every run's outputs, and prints each metric
by name with its unit.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics (adj_run_s, adj_items_per_s,
setup_s, peak_rss_mb) and prints the wall run_s and items_per_s beside them.
--trace 1 spends half of --seconds untraced and half traced and reports the
per-layer metrics, including the tracing overhead.

    python3 perfbench/run.py --check-presets   # rerun every preset, compare digests
    python3 perfbench/run.py --record          # rewrite reference.json

Run from the root of a checkout.  Outputs go to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

# Set-up probes run before and after the measured loop, so that their median
# spans the same stretch of machine time as the loop does.
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 2
REFERENCE = env.BENCH_DIR / "reference.json"
REFERENCE_SEEDS = range(10)
PROBE_TIMEOUT_S = 150
# On a host shared with other guests the speed can drift by up to 2x over
# seconds to minutes, and a plain median of wall times carries that drift from
# call to call.  The gated
# run time is therefore taken relative to a fixed reference job timed next to
# every run, and expressed in seconds at a host speed where that job takes
# REFERENCE_JOB_S (about its time on the baseline host).
REFERENCE_JOB_S = 0.05


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until the workload can run."""
    start = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(env.BENCH_DIR / "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=env.ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe for {workload!r} failed (exit {proc.returncode})")
    return float(words[1]) - start


def reference_work() -> int:
    """A fixed pure-Python job: build, sort and index 60k small tuples."""
    rows = [(float(i % 977) * 0.5, i, str(i)) for i in range(60000)]
    rows.sort()
    return len({k: v for v, k, _ in rows})


def time_reference() -> float:
    """Seconds for reference_work, with the cyclic collector off so that the
    workload's live objects do not change how much work it does."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def measure(workload, seconds: float, outcomes: list, refs: list | None = None) -> list[float]:
    """Closed loop for `seconds`; returns the program time of each run.

    With `refs`, the reference job is timed before every run and once after
    the last one, so run i lies between refs[i] and refs[i + 1].
    """
    times = []
    deadline = time.perf_counter() + seconds
    while True:
        if refs is not None:
            refs.append(time_reference())
        outcome = workload.run()
        outcomes.append(outcome)
        times.append(outcome.elapsed)
        if time.perf_counter() >= deadline:
            if refs is not None:
                refs.append(time_reference())
            return times


def adjusted_run_s(times: list[float], refs: list[float]) -> float:
    """Median run time at the reference host speed.

    Each run's wall time is divided by the mean of the reference job's times
    just before and just after it, and scaled by REFERENCE_JOB_S.
    """
    return REFERENCE_JOB_S * statistics.median(
        t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)
    )


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {"digest_keys": None, "workloads": {}, "presets": {}}


def traced_measure(workload, name: str, seconds: float, outcomes: list):
    from layers import LayerCounters, layer_metrics
    from tracer import Tracer

    untraced = measure(workload, seconds / 2, outcomes)
    counters = LayerCounters()
    with Tracer(counters.observers()) as tracer:
        traced = measure(workload, seconds / 2, outcomes)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    spans_file = Path(".bench_out") / f"trace-{name}.json"
    spans_file.write_text(json.dumps(tracer.to_json()))
    metrics = layer_metrics(tracer, counters, len(traced), overhead)
    return metrics, untraced, traced


def run_workload(args) -> int:
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES_BEFORE)]
    env.use_checkout_package()
    import workloads
    from layers import per_layer_spec

    wl = workloads.prepare(args.workload, args.seed)
    outcomes = [wl.run()]  # warm-up: caches and lazy imports settle
    if args.trace:
        values, untraced, traced = traced_measure(wl, args.workload, args.seconds, outcomes)
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        times = untraced
    else:
        refs = []
        times = measure(wl, args.seconds, outcomes, refs)
        setup += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES_AFTER)]
        adj_run_s = adjusted_run_s(times, refs)
        samples_file = Path(".bench_out") / f"samples-{args.workload}.json"
        samples_file.write_text(json.dumps({"run_s": times, "reference_s": refs}))
        values = {
            "adj_run_s": adj_run_s,
            "adj_items_per_s": wl.items / adj_run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"adj_run_s": "s", "adj_items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digests = [o.digest for o in outcomes if o.digest is not None]  # runs with outputs
    stamp = env.stamp()
    reference = load_reference()
    ref = None
    if reference["digest_keys"] == stamp["digest_keys"]:
        ref = reference["workloads"].get(args.workload, {}).get(str(args.seed))
    match_frac = None
    if ref is not None and digests:
        match_frac = sum(d == ref for d in digests) / len(digests)
    correct = (
        all(o.correct for o in outcomes)
        and len(set(digests)) <= 1
        and match_frac in (None, 1.0)
    )

    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 caller, "
          f"item = {wl.item_unit}, {wl.items} items per run")
    print(f"  run_s              {statistics.median(times):.4f} s      median of "
          f"{len(times)} {'untraced ' if args.trace else ''}runs after 1 warm-up "
          f"(min {min(times):.4f}, max {max(times):.4f})")
    if args.trace:
        print(f"  traced run_s       {statistics.median(traced):.4f} s      median of "
              f"{len(traced)} traced runs")
    print(f"  items_per_s        {wl.items / statistics.median(times):.4f} 1/s    items per run / run_s")
    if not args.trace:
        print(f"  reference job      {statistics.median(refs) * 1000:.2f} ms     median of "
              f"{len(refs)} timings; {REFERENCE_JOB_S * 1000:.0f} ms is the reference speed")
        print(f"  adj_run_s          {adj_run_s:.4f} s      median of run_s / reference job "
              f"x {REFERENCE_JOB_S} s")
    print(f"  setup_s            {statistics.median(setup):.4f} s      median of "
          f"{len(setup)} fresh processes")
    print(f"  failed_frac        {failed / attempted:.4f} frac   {failed} of {attempted} "
          f"{'ops' if wl.item_unit == 'op' else 'runs'} failed")
    if match_frac is None:
        print("  digest_match_frac  n/a         no reference digest for this seed and stamp")
    else:
        print(f"  digest_match_frac  {match_frac:.4f} frac   against {ref[:16]}")
    for name, value in values.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def preset_digests(harness, kind: str) -> dict[str, str]:
    out_dir = Path(".bench_out") / "presets" / kind
    report = harness.run(harness.preset_config(kind, seed=0, out_dir=str(out_dir)))
    return {
        str(Path(f).relative_to(out_dir)): hashlib.sha256(Path(f).read_bytes()).hexdigest()
        for f in sorted(report.files)
    }


def check_presets() -> int:
    """Rerun every preset at seed 0 and compare its files with reference.json."""
    env.use_checkout_package()
    from setstat import harness

    reference = load_reference()
    stamp = env.stamp()
    if reference["digest_keys"] != stamp["digest_keys"]:
        print("presets: reference digests were recorded under another stamp; not compared")
        print("stamp " + json.dumps(stamp, sort_keys=True))
        return 2
    bad = 0
    for kind in harness.PRESETS:
        got = preset_digests(harness, kind)
        want = reference["presets"].get(kind)
        same = got == want
        bad += not same
        print(f"preset {kind:20s} {'match' if same else 'MISMATCH'} ({len(got)} files)")
        if not same and want is not None:
            for f in sorted(set(got) | set(want)):
                if got.get(f) != want.get(f):
                    print(f"    differs: {f}")
    print(f"presets: {len(harness.PRESETS) - bad} of {len(harness.PRESETS)} match")
    return 1 if bad else 0


def record() -> int:
    """Write reference.json: workload digests per seed and preset file digests."""
    env.use_checkout_package()
    from setstat import harness

    import workloads

    data = {"digest_keys": env.stamp()["digest_keys"], "workloads": {}, "presets": {}}
    for name in workloads.WORKLOAD_NAMES:
        data["workloads"][name] = {}
        for seed in REFERENCE_SEEDS:
            outcome = workloads.prepare(name, seed).run()
            if outcome.failed or not outcome.correct:
                raise RuntimeError(f"{name} seed {seed} failed; not recording it")
            data["workloads"][name][str(seed)] = outcome.digest
            print(f"{name} seed {seed}: {outcome.digest}", flush=True)
    for kind in harness.PRESETS:
        data["presets"][kind] = preset_digests(harness, kind)
        print(f"preset {kind}: {len(data['presets'][kind])} files", flush=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-presets", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(env.ROOT)
    Path(".bench_out").mkdir(exist_ok=True)
    if args.check_presets:
        return check_presets()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
