"""Output digests of the four benchmark workloads and the presets.

Each workload runs once and its digest is compared with the one recorded in
perfbench/reference.json, so a change that moves output bits fails here
before the benchmark runs; kernel-interval, clt-box2d and invopt-grid are
checked at every reference seed.  Each harness preset runs once
and the sha256 of every file it writes is compared with the reference's
"presets" entry, as `perfbench/run.py --check-presets` does.  Each
configs/*.json file runs once through the CLI, and the sha256 of every file
it writes is compared with CONFIG_FILE_DIGESTS; no workload or preset runs
the ball-body SLLN chain or the box-quadratic estimators.  The digests hold
for one environment stamp (Python, numpy, scipy, BLAS build and core,
SIMD features); under another stamp the comparison is skipped.  The
benchmark's own tests (perfbench/tests) run once in a subprocess.  Nothing
under perfbench/ is written.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import env  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from setstat import cli, harness  # noqa: E402

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
@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_table_workload_digest_matches_reference_at_seeds_1_to_9(
    name, seed, monkeypatch, tmp_path
):
    _check_workload_digest(name, seed, monkeypatch, tmp_path)


@pytest.mark.parametrize("kind", list(harness.PRESETS))
def test_preset_file_digests_match_reference_at_seed_0(kind, monkeypatch, tmp_path):
    _skip_under_another_stamp()
    monkeypatch.chdir(tmp_path)  # the reference ran in .bench_out/presets/<kind>
    assert run.preset_digests(harness, kind) == REFERENCE["presets"][kind]


CONFIGS = PERFBENCH.parent / "configs"
# sha256 of each file each config writes, under its "out" directory
CONFIG_FILE_DIGESTS = {
    "clt.json": {
        "clt_statistics.csv": "0de07c2547b591f8d2f8ad28ae7cc118b66fd9defd361845204d2a299217d9c8",
        "clt_statistics.json": "35b5d4c790c6bed372f94321ff0c8c909d4f86dd4e6cdc9ab71b3f79f76878f0",
        "clt_vectors.csv": "5709431959d7feaf45b490667236f123e467a8bbd810718269d2ac423980ad97",
        "clt_vectors.json": "9638bf97649ca61b91d3219dd98de834e0ba9bc79b79721e83ba613d7303386c",
        "summary.json": "4db5d545e4ccc7aa3f0e0fbd0df6ff3ee93e05fed64cb4a25ff14a31abc8f71c",
    },
    "compare_estimators.json": {
        "compare.csv": "028a47fa0b11e2a62a22881436cd083b873e592de821265fb22aae74805c3e0c",
        "compare.json": "7fd565d090d51f2acfc4bb81d7c46cdfb580d920a0c29ad5f44c60c70d3aa430",
        "result_abp_n100.json": "21653cbe2825bf59ecab5d9d88ab3d61e09eb3c72185e8e1d37788025f733a35",
        "result_abp_n1000.json": "2483f71120a01e42b65efcf161231d124a2e6409deac07b47525f52195adda80",
        "result_kkt_n100.json": "8227657475857f0ff37a58e98df90e9321675826a498556f42cdf39ca2e4518a",
        "result_kkt_n1000.json": "680e657bdbec6dbdb6f2e250965228c195e908d48138dfb94903cfc1bd9cdf48",
        "result_via_n100.json": "7528febe30418c909a86140d2eaae035a3e626b3afb37342565ddd3124407e07",
        "result_via_n1000.json": "09b02ef53d757c32570d9b307a0c8c2d5d3f3e78e98b63da79cb684ae802082c",
        "summary.json": "2aa766f26c312171e725cfad2a31611307dfc498d68279db27c622832291b02b",
    },
    "kernel_fit.json": {
        "dataset.jsonl": "e4fb2c6ef644b24ad4a4c41984af95f54365a9f615aa485db03bf4039c54c754",
        "fit.csv": "414e56a22cee7c0bc9175a798a7912356eda347d8d9810b6804abc7231e69dd6",
        "fit.json": "89e53c1ab2bc6fc51321d5d24c7843b80ac93a40f6834b6ec52f0470340d0508",
        "summary.json": "a947cae4e8f08601ed1b36849bf8ab033bcd38d3cc4723e730d9ce59c8fde016",
    },
    "slln_ball_noise.json": {
        "slln_errors.csv": "a9b20aed7620b345bd871c07cb9e7c74555445acbb2006feaaf1ba5e7cda40b7",
        "slln_errors.json": "2a3a7c925176067df557e66fb3f6fe8b1f7cfeeb73ef5b576da30bef06db67d4",
        "summary.json": "3dc2a5e59861d3e89de23b77429518b03d8d0b110fbaacf268be0a9efce35afc",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIG_FILE_DIGESTS))
def test_config_file_digests_match_reference(name, monkeypatch, tmp_path):
    _skip_under_another_stamp()
    config = json.loads((CONFIGS / name).read_text())
    monkeypatch.chdir(tmp_path)  # each config writes to a relative "out" path
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([config["kind"], "--config", str(CONFIGS / name)]) == 0
    out = tmp_path / config["out"]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == CONFIG_FILE_DIGESTS[name]


def test_perfbench_tests_pass(tmp_path):
    # from a scratch directory, with no bytecode or pytest cache written, so
    # the bench's relative output root lands there and perfbench/ is untouched
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(PERFBENCH / "tests")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=300,
    )
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
