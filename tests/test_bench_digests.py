"""Output digests of the four benchmark workloads and the presets.

Each workload runs once and its digest is compared with the one recorded in
perfbench/reference.json, so a change that moves output bits fails here
before the benchmark runs; kernel-interval and clt-box2d, whose outputs are
tables, are checked at every reference seed.  Each harness preset runs once
and the sha256 of every file it writes is compared with the reference's
"presets" entry, as `perfbench/run.py --check-presets` does.  The reference
holds for one environment stamp (Python, numpy, scipy, BLAS build and core,
SIMD features); under another stamp the comparison is skipped.  Nothing
under perfbench/ is written.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import env  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from setstat import harness  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _skip_under_another_stamp():
    if env.stamp()["digest_keys"] != REFERENCE["digest_keys"]:
        pytest.skip("reference digests were recorded under another environment stamp")


def _check_workload_digest(name, seed, monkeypatch, tmp_path):
    _skip_under_another_stamp()
    # outputs go to the relative .bench_out/ the reference was recorded with,
    # since summary.json records that path
    monkeypatch.chdir(tmp_path)
    outcome = workloads.prepare(name, seed).run()
    assert outcome.correct
    assert outcome.digest == REFERENCE["workloads"][name][str(seed)]


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_workload_digest_matches_reference_at_seed_0(name, monkeypatch, tmp_path):
    _check_workload_digest(name, 0, monkeypatch, tmp_path)


@pytest.mark.parametrize("seed", range(1, 10))
@pytest.mark.parametrize("name", ["kernel-interval", "clt-box2d"])
def test_table_workload_digest_matches_reference_at_seeds_1_to_9(
    name, seed, monkeypatch, tmp_path
):
    _check_workload_digest(name, seed, monkeypatch, tmp_path)


@pytest.mark.parametrize("kind", list(harness.PRESETS))
def test_preset_file_digests_match_reference_at_seed_0(kind, monkeypatch, tmp_path):
    _skip_under_another_stamp()
    monkeypatch.chdir(tmp_path)  # the reference ran in .bench_out/presets/<kind>
    assert run.preset_digests(harness, kind) == REFERENCE["presets"][kind]
