"""Experiment harness: configs, runners, file outputs, CLI exit codes."""

import csv
import json

import numpy as np
import pytest

from setstat import cli
from setstat.harness import (
    EXPERIMENT_KINDS,
    ConfigError,
    config_from_dict,
    config_to_dict,
    parse_config,
    preset_config,
    run,
    worker_count,
)
from setstat.invopt import read_observations_jsonl
from setstat.kernelreg import read_dataset_jsonl


# ------------------------------------------------------------------- config


def test_config_round_trip():
    cfg = config_from_dict(
        {
            "kind": "slln",
            "params": {"replicates": 4},
            "seed": {"seed": 3, "stream": 2},
            "out": "somewhere",
            "formats": ["json"],
        }
    )
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert cfg.params["replicates"] == 4
    assert cfg.params["n_values"] == [10, 100, 1000]  # preset filled in


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "mystery": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "warp"})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "params": {"zzz": 1}})
    with pytest.raises(ConfigError):
        config_from_dict(
            {"kind": "invopt-fit", "params": {"prior": {"eps_lo": 0.1, "zzz": 2}}}
        )


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "params": {"replicates": 0}})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "params": {"n_values": [100, 10]}})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "params": {"replicates": "many"}})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "seed": -1})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "seed": {"seed": 0, "phase": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "formats": ["yaml"]})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "out": ""})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "invopt-fit", "params": {"estimator": "magic"}})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "kernel-fit", "params": {"kernel": "gauss"}})

    # non-numeric values and nonpositive grid steps are config errors too
    for kind, params in [
        ("invopt-fit", {"prior": {"eps_lo": "abc"}}),
        ("slln", {"n_values": ["x"]}),
        ("invopt-fit", {"lam": "x"}),
        ("invopt-fit", {"h": "x"}),
        ("kernel-fit", {"h": "x"}),
        ("kernel-fit", {"kernel": ["x"]}),
        ("kernel-fit", {"u_grid": {"step": 0}}),
        ("kernel-fit", {"u_grid": {"step": -0.1}}),
        ("invopt-fit", {"prior": {"d_eps": 0}}),
        ("compare-estimators", {"prior": {"d_theta": -0.05}}),
        ("compare-estimators", {"estimators": 5}),
    ]:
        with pytest.raises(ConfigError):
            config_from_dict({"kind": kind, "params": params})


def test_config_seed_shorthand():
    cfg = config_from_dict({"kind": "gen-data", "seed": 9})
    assert cfg.seed.seed == 9 and cfg.seed.stream == 0


def test_parse_config_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_preset_config_known_kinds_only():
    for kind in EXPERIMENT_KINDS:
        cfg = preset_config(kind)
        assert cfg.kind == kind
    with pytest.raises(ConfigError):
        preset_config("warp")


# ------------------------------------------------------------------ workers


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.setenv("SETSTAT_THREADS", "1")
    assert worker_count(8) == 1
    monkeypatch.setenv("SETSTAT_THREADS", "0")
    assert worker_count(8) == 1  # floor at one worker
    monkeypatch.delenv("SETSTAT_THREADS")
    assert worker_count(1) == 1
    assert worker_count(10**6) <= 10**6
    monkeypatch.setenv("SETSTAT_THREADS", "four")
    with pytest.raises(ConfigError):
        worker_count(8)


# ------------------------------------------------------------------ runners


def _small(kind, tmp_path, seed=0, **params):
    data = {"kind": kind, "seed": seed, "out": str(tmp_path / kind)}
    if params:
        data["params"] = params
    return config_from_dict(data)


def test_sets_demo_runner(tmp_path):
    rep = run(_small("sets-demo", tmp_path))
    assert rep.passed
    assert all(v for v in rep.checks.values())
    distances = tmp_path / "sets-demo" / "distances.csv"
    assert distances.exists()
    with open(distances) as fh:
        rows = list(csv.DictReader(fh))
    assert {"set_a", "set_b", "hausdorff", "integrated"} == set(rows[0])
    for row in rows:
        assert float(row["integrated"]) <= float(row["hausdorff"]) + 1e-9


def test_slln_runner_slope(tmp_path):
    rep = run(_small("slln", tmp_path, replicates=20))
    assert rep.checks["slope_in_window"]
    assert rep.checks["errors_decreasing"]
    assert -0.65 <= rep.metrics["slope"] <= -0.35


def test_clt_runner_identity_and_covariance(tmp_path):
    rep = run(_small("clt", tmp_path, replicates=500))
    assert rep.checks["statistic_equals_norm"]
    assert rep.checks["cov_within_tolerance"]
    assert rep.metrics["identity_gap"] <= 1e-10
    stats_file = tmp_path / "clt" / "clt_statistics.csv"
    with open(stats_file) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 500
    for row in rows[:20]:
        assert abs(float(row["scaled_hausdorff"]) - float(row["vector_norm"])) <= 1e-10


def test_kernel_fit_runner(tmp_path):
    rep = run(_small("kernel-fit", tmp_path, n=500))
    assert rep.checks["median_error_within_bound"]
    fit = tmp_path / "kernel-fit" / "fit.csv"
    with open(fit) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"u", "truth_lo", "truth_hi", "est_lo", "est_hi", "hausdorff"}
    assert len(rows) == 31  # grid -1.5:0.1:1.5
    ds = read_dataset_jsonl(tmp_path / "kernel-fit" / "dataset.jsonl")
    assert len(ds) == 500


def test_invopt_fit_runner_with_mle(tmp_path):
    rep = run(_small("invopt-fit", tmp_path, n=300, estimator="mle"))
    assert rep.passed
    result = json.loads((tmp_path / "invopt-fit" / "result_mle.json").read_text())
    assert result["estimator"] == "mle"
    assert abs(result["eps_hat"] - 1.0) <= 0.3
    obs = read_observations_jsonl(tmp_path / "invopt-fit" / "observations.jsonl")
    assert len(obs) == 300
    grid = tmp_path / "invopt-fit" / "grid.csv"
    with open(grid) as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "eps" and header[-1] == "objective"


def test_invopt_fit_runner_via_baseline_has_no_error_checks(tmp_path):
    rep = run(_small("invopt-fit", tmp_path, n=200, estimator="via"))
    assert "eps_error_within_bound" not in rep.checks
    assert rep.passed


def test_compare_estimators_runner(tmp_path):
    rep = run(
        _small(
            "compare-estimators",
            tmp_path,
            n_values=[10, 50],
            replicates=2,
            estimators=["abp", "via"],
        )
    )
    table = tmp_path / "compare-estimators" / "compare.csv"
    with open(table) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2  # estimators x n values x replicates
    assert {r["estimator"] for r in rows} == {"abp", "via"}
    want = float(np.median([abs(float(r["eps_hat"]) - 1.0) for r in rows
                            if r["estimator"] == "abp" and r["n"] == "50"]))
    assert rep.metrics["median_eps_error"]["abp"]["50"] == pytest.approx(want)
    assert "abp_error_decreasing" in rep.checks


def test_gen_data_runner_variants(tmp_path):
    run(_small("gen-data", tmp_path, dataset="box-linear", n=40))
    obs = read_observations_jsonl(tmp_path / "gen-data" / "dataset.jsonl")
    assert len(obs) == 40 and obs.u_dim == 1
    run(_small("gen-data", tmp_path, dataset="box-quadratic", n=30))
    obs2 = read_observations_jsonl(tmp_path / "gen-data" / "dataset.jsonl")
    assert len(obs2) == 30 and obs2.u_dim == 0
    run(_small("gen-data", tmp_path, dataset="set-regression", n=20))
    ds = read_dataset_jsonl(tmp_path / "gen-data" / "dataset.jsonl")
    assert len(ds) == 20


def test_summary_excludes_wall_clock(tmp_path):
    rep = run(_small("gen-data", tmp_path, n=10))
    summary = json.loads((tmp_path / "gen-data" / "summary.json").read_text())
    assert "wall_clock_s" not in summary
    assert summary["config"]["kind"] == "gen-data"
    assert rep.wall_clock_s >= 0.0
    assert summary["version"] == rep.version


def test_formats_subset_respected(tmp_path):
    cfg = config_from_dict(
        {"kind": "slln", "out": str(tmp_path / "j"), "formats": ["json"],
         "params": {"replicates": 2}}
    )
    run(cfg)
    files = {p.name for p in (tmp_path / "j").iterdir()}
    assert "slln_errors.csv" not in files
    assert "slln_errors.json" in files and "summary.json" in files


def test_byte_determinism_across_reruns(tmp_path):
    out = tmp_path / "det"
    cfg = config_from_dict(
        {"kind": "clt", "out": str(out), "seed": 5, "params": {"replicates": 50}}
    )
    run(cfg)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    run(cfg)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_thread_cap_does_not_change_bytes(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("SETSTAT_THREADS", "1")
    run(config_from_dict({"kind": "kernel-fit", "out": str(out1), "params": {"n": 200}}))
    monkeypatch.setenv("SETSTAT_THREADS", "4")
    run(config_from_dict({"kind": "kernel-fit", "out": str(out2), "params": {"n": 200}}))
    assert (out1 / "fit.csv").read_bytes() == (out2 / "fit.csv").read_bytes()


# ---------------------------------------------------------------------- CLI


def test_cli_success_and_stdout_json(tmp_path, capsys):
    code = cli.main(["gen-data", "--out", str(tmp_path / "g"), "--n", "25"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "gen-data"
    assert all(payload["checks"].values()) or payload["checks"] == {}
    assert "wall_clock_s" in payload


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_cli_unknown_kind_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["warp-drive"])
    assert exc.value.code == 2


def test_cli_config_file_and_kind_mismatch(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "gen-data", "params": {"n": 10},
                                "out": str(tmp_path / "o")}))
    assert cli.main(["gen-data", "--config", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["slln", "--config", str(path)]) == 2


def test_cli_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "slln", "params": {"zzz": 1}}')
    assert cli.main(["slln", "--config", str(path)]) == 2
    path2 = tmp_path / "missing.json"
    assert cli.main(["slln", "--config", str(path2)]) == 2
    path3 = tmp_path / "zero_step.json"
    path3.write_text('{"kind": "kernel-fit", "params": {"u_grid": {"step": 0}}}')
    assert cli.main(["kernel-fit", "--config", str(path3)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_failed_check_exits_1(tmp_path, capsys):
    path = tmp_path / "strict.json"
    path.write_text(
        json.dumps(
            {
                "kind": "invopt-fit",
                "params": {"n": 60, "max_eps_error": 1e-9, "max_theta_error": 1e-9},
                "out": str(tmp_path / "s"),
            }
        )
    )
    assert cli.main(["invopt-fit", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "eps_error_within_bound" in err


def test_cli_flag_overrides(tmp_path, capsys):
    out = tmp_path / "o2"
    assert cli.main(["gen-data", "--seed", "7", "--out", str(out), "--n", "12"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == {"seed": 7, "stream": 0}
    assert summary["config"]["params"]["n"] == 12
