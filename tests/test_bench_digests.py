"""Output digests of the four benchmark workloads at seed 0.

Each workload runs once and its digest is compared with the one recorded in
perfbench/reference.json, so a change that moves output bits fails here
before the benchmark runs.  The reference holds for one environment stamp
(Python, numpy, scipy, BLAS build and core, SIMD features); under another
stamp the comparison is skipped.  Nothing under perfbench/ is written.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import env  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_workload_digest_matches_reference_at_seed_0(name, monkeypatch, tmp_path):
    if env.stamp()["digest_keys"] != REFERENCE["digest_keys"]:
        pytest.skip("reference digests were recorded under another environment stamp")
    # outputs go to the relative .bench_out/ the reference was recorded with,
    # since summary.json records that path
    monkeypatch.chdir(tmp_path)
    outcome = workloads.prepare(name, 0).run()
    assert outcome.correct
    assert outcome.digest == REFERENCE["workloads"][name]["0"]
