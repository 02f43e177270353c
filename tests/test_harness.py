"""Experiment harness: configs, runners, file outputs, CLI exit codes."""

import csv
import io
import json
import re

import numpy as np
import pytest

from setstat import cli, harness, invopt, randomsets
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
from setstat.invopt import (
    generate_boxlinear_observations,
    generate_boxquadratic_observations,
    read_observations_jsonl,
)
from setstat.kernelreg import read_dataset_jsonl
from setstat.randomsets import RngSeed


# ------------------------------------------------------------------- writers


def test_write_json_bytes_match_json_dump(tmp_path):
    class Half(float):
        def __repr__(self):
            return "Half()"

    inf, nan = float("inf"), float("nan")
    grid = [[0.1 * i + 0.01 * j for j in range(7)] for i in range(5)]
    grid[1][2], grid[2][3], grid[3][0], grid[4][6] = inf, -inf, nan, -0.0
    objects = [
        {"grid": grid, "edge": [5e-324, 1e22, -0.0, 0.0, 1.5e-7, -2.5e300]},
        {"empty_list": [], "empty_dict": {}, "nested": [[], {}, [[]], [{}]]},
        {"text": ["plain", "ünïcødé ✓", 'quote " and \\ slash', "tab\tnewline\n"]},
        {"flags": [True, False, None], "ints": [0, -3, 2**70], "mixed": [1, 2.5, "x", None, True]},
        {"z": 1, "a": {"y": [1.0, inf], "b": (2.0, nan)}, "ключ": Half(0.5)},
        {2: "int key", 1.5: "float key"},
        {True: "t", False: "f"},
        {None: "n"},
        [Half(0.25), 0.75],
        (1.0, 2.0),
        np.float64(3.25),
        "top-level string",
        7,
        None,
        [],
        {},
    ]
    for k, obj in enumerate(objects):
        path = tmp_path / f"obj{k}.json"
        harness._write_json(path, obj)
        with open(tmp_path / "ref.json", "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes(), obj
    for bad in ({"a": np.int64(1)}, [object()], {(1, 2): 1}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            harness._write_json(tmp_path / "bad.json", bad)


def test_table_bytes_match_csv_writer_and_json_dump(tmp_path):
    inf, nan = float("inf"), float("nan")
    header = ["z_last", "count", "flag", "name", "value", "100%", "np_value"]
    rows = [
        (1.5, 3, np.bool_(True), "plain", -0.0, inf, np.float64(0.1)),
        (-inf, np.int64(-7), np.bool_(False), 'comma, "quote"', nan, 2**70, np.float32(0.5)),
        (5e-324, 0, True, "ünïcødé", 1e22, -2.5e300, np.float64(-0.0)),
    ]

    def plain(v):  # what the rows stand for as Python scalars
        if isinstance(v, np.floating):
            return float(v)
        if isinstance(v, np.bool_):
            return bool(v)
        return int(v) if isinstance(v, np.integer) else v

    for k, table_rows in enumerate([rows, []]):
        config = harness.ExperimentConfig(
            kind="sets-demo", params={}, seed=RngSeed(0), out_dir=str(tmp_path / f"t{k}"),
            formats=("csv", "json"),
        )
        harness._Emitter(config).table("t", header, table_rows)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([str(v) if isinstance(v, np.bool_) else plain(v) for v in row]
                             for row in table_rows)
        with open(tmp_path / "ref.json", "w") as fh:
            json.dump(
                [{h: plain(v) for h, v in zip(header, row)} for row in table_rows],
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        out = tmp_path / f"t{k}"
        assert (out / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (out / "t.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def _per_cell_table(header, rows) -> tuple[bytes, bytes]:
    """CSV and JSON bytes of a table whose every cell is formatted by _cell_texts."""
    cells = [[harness._cell_texts(v) for v in row] for row in rows]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([text for text, _ in row] for row in cells)
    keys = sorted({k: i for i, k in enumerate(header)}.items())
    objects = [
        "{\n" + ",\n".join(f"    {json.dumps(k)}: {row[i][1]}" for k, i in keys) + "\n  }"
        for row in cells
    ]
    text = "[\n  " + ",\n  ".join(objects) + "\n]\n" if objects else "[]\n"
    return buf.getvalue().encode(), text.encode()


def test_table_columns_match_per_cell_formatting(tmp_path):
    inf, nan = float("inf"), float("nan")
    columns = {
        "float": [1.5, -inf, inf, nan, -0.0, 5e-324, 1e22],
        "int": [0, -7, 2**70, 3, 1, 10**30, -1],
        "bool": [True, False, True, True, False, False, True],
        "np_int": [np.int64(v) for v in (0, -7, 3, 1, 2, 5, -1)],
        "np_bool": [np.bool_(v) for v in (1, 0, 1, 0, 1, 0, 1)],
        "np_float": [np.float64(v) for v in (0.1, -inf, nan, -0.0, 2.5, inf, 1e300)],
        "str": ["plain", 'comma, "quote"', "ünïcødé", "", "100%", "a\nb", "x"],
        "float_int": [1.5, 2, -0.0, 3, inf, 0, nan],
        "float_np_float": [0.1, np.float64(0.2), nan, np.float64(-inf), 1.0, 2.0, 3.0],
        "int_bool": [1, True, 0, False, 2, 3, 4],
        "str_float": ["a", 1.5, "b", nan, "c", -inf, "d"],
    }
    header = list(columns)
    rows = list(zip(*columns.values()))
    repeated = ["a", "b", "a", "c", "b"]  # the last column of a name wins in JSON
    for k, (head, table_rows) in enumerate([
        (header, rows),
        (header, [list(row) for row in rows[:3]]),
        (header, []),
        (repeated, [row[:5] for row in rows]),
        (repeated, []),
        (["only"], [(v,) for v in columns["float"]]),
    ]):
        out = tmp_path / f"t{k}"
        config = harness.ExperimentConfig(
            kind="sets-demo", params={}, seed=RngSeed(0), out_dir=str(out),
            formats=("csv", "json"),
        )
        harness._Emitter(config).table("t", head, iter(table_rows))
        want_csv, want_json = _per_cell_table(head, table_rows)
        assert (out / "t.csv").read_bytes() == want_csv, k
        assert (out / "t.json").read_bytes() == want_json, k


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
    # slln fits a slope through its n_values; compare-estimators takes one entry
    for n_values in ([100], [1]):
        with pytest.raises(ConfigError, match="'n_values'"):
            config_from_dict({"kind": "slln", "params": {"n_values": n_values}})
    config_from_dict({"kind": "compare-estimators", "params": {"n_values": [10]}})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "params": {"replicates": "many"}})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "seed": -1})
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "slln", "seed": {"seed": 0, "phase": 1}})
    # bools are ints to isinstance, but not seeds
    for seed in (True, False, {"seed": True}, {"stream": True}, {"seed": 0, "stream": False},
                 2.0, {"seed": "3"}):
        with pytest.raises(ConfigError, match="'seed'"):
            config_from_dict({"kind": "gen-data", "seed": seed})
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
        ("kernel-fit", {"h": 10**400}),  # an int too large for a float
        ("kernel-fit", {"kernel": ["x"]}),
        ("kernel-fit", {"u_grid": {"step": 0}}),
        ("kernel-fit", {"u_grid": {"step": -0.1}}),
        ("invopt-fit", {"prior": {"d_eps": 0}}),
        ("compare-estimators", {"prior": {"d_theta": -0.05}}),
        ("compare-estimators", {"estimators": 5}),
        # inverted ranges
        ("invopt-fit", {"prior": {"eps_lo": 5, "eps_hi": 1}}),
        ("invopt-fit", {"prior": {"theta_lo": 1, "theta_hi": -1}}),
        ("compare-estimators", {"prior": {"w_lo": 1, "w_hi": -1}}),
        ("kernel-fit", {"u_grid": {"lo": 1, "hi": -1}}),
    ]:
        with pytest.raises(ConfigError):
            config_from_dict({"kind": kind, "params": params})

    # float fields refuse bools and NaN, and name the field
    nan = float("nan")
    for kind, params, field in [
        ("kernel-fit", {"h": True}, "'h'"),
        ("kernel-fit", {"max_median_error": nan}, "'max_median_error'"),
        ("kernel-fit", {"max_median_error": False}, "'max_median_error'"),
        ("kernel-fit", {"u_grid": {"lo": True}}, "'u_grid.lo'"),
        ("invopt-fit", {"lam": nan}, "'lam'"),
        ("invopt-fit", {"eps0": "nan"}, "'eps0'"),
        ("invopt-fit", {"prior": {"w_hi": nan}}, "'prior.w_hi'"),
        ("invopt-fit", {"prior": {"eps_lo": True}}, "'prior.eps_lo'"),
        ("compare-estimators", {"baseline_theta": True}, "'baseline_theta'"),
        ("clt", {"max_cov_rel_error": nan}, "'max_cov_rel_error'"),
        ("gen-data", {"noise_radius": nan}, "'noise_radius'"),
        ("clt", {"noise": {"type": "uniform-box", "lower": [-1e308, 0], "upper": [1e308, 1]}},
         "'noise'"),
        # JSON true and false inside set and noise records, at any depth
        ("slln", {"body": {"type": "box", "lower": [False], "upper": [True]}}, "'body': lower"),
        ("slln", {"noise": {"type": "triangular", "halfwidth": True}}, "'noise': halfwidth"),
        ("clt", {"noise": {"type": "truncated-gaussian", "sigma": [[1, 0], [0, True]],
                           "radius": 1}}, "'noise': sigma"),
        ("clt", {"body": {"type": "zonotope", "center": [0, 0], "generators": [[1, False]],
                          "weights": [1]}}, "'body': generators"),
        # a zero-width W has no uniform density for mle, nor one whose variance overflows
        ("invopt-fit", {"estimator": "mle", "prior": {"w_lo": 0.5, "w_hi": 0.5}}, "'prior.w_lo'"),
        ("invopt-fit", {"estimator": "mle", "prior": {"w_lo": -1e200, "w_hi": 1e200}}, "'prior.w_lo'"),
        ("compare-estimators", {"estimators": ["abp", "mle"], "prior": {"w_lo": 0, "w_hi": 0}},
         "'prior.w_lo'"),
    ]:
        with pytest.raises(ConfigError, match=field):
            config_from_dict({"kind": kind, "params": params})
    zero_width = {"w_lo": 0.5, "w_hi": 0.5}  # abp, kkt and via take a zero-width W
    assert config_from_dict({"kind": "invopt-fit", "params": {"prior": zero_width}})
    assert config_from_dict({"kind": "compare-estimators", "params": {"prior": zero_width}})
    # an infinity is a config error in every float field but a check bound
    inf = float("inf")
    for kind, params, field in [
        ("kernel-fit", {"h": inf}, "'h'"),
        ("kernel-fit", {"u_grid": {"hi": inf}}, "'u_grid.hi'"),
        ("kernel-fit", {"u_grid": {"lo": -inf}}, "'u_grid.lo'"),
        ("kernel-fit", {"u_grid": {"step": "inf"}}, "'u_grid.step'"),
        ("invopt-fit", {"h": "Infinity"}, "'h'"),
        ("invopt-fit", {"eps0": inf}, "'eps0'"),
        ("invopt-fit", {"theta0": -inf}, "'theta0'"),
        ("invopt-fit", {"lam": inf}, "'lam'"),
        ("invopt-fit", {"noise_radius": inf}, "'noise_radius'"),
        ("invopt-fit", {"prior": {"eps_hi": inf}}, "'prior.eps_hi'"),
        ("invopt-fit", {"prior": {"d_theta": inf}}, "'prior.d_theta'"),
        ("compare-estimators", {"baseline_theta": inf}, "'baseline_theta'"),
        ("compare-estimators", {"prior": {"w_lo": -inf}}, "'prior.w_lo'"),
        ("gen-data", {"eps0": inf}, "'eps0'"),
    ]:
        with pytest.raises(ConfigError, match=f"{field}: must be finite"):
            config_from_dict({"kind": kind, "params": params})
    # a check bound below 0, -inf too, is a config error; 0 and +inf are bounds
    for kind, params, field in [
        ("kernel-fit", {"max_median_error": -1}, "'max_median_error'"),
        ("kernel-fit", {"max_median_error": "-inf"}, "'max_median_error'"),
        ("clt", {"max_cov_rel_error": -0.1}, "'max_cov_rel_error'"),
        ("clt", {"max_identity_gap": -5e-324}, "'max_identity_gap'"),
        ("invopt-fit", {"max_eps_error": -inf}, "'max_eps_error'"),
        ("invopt-fit", {"max_theta_error": "-2"}, "'max_theta_error'"),
        ("invopt-fit", {"lam": -1e-3}, "'lam'"),
    ]:
        with pytest.raises(ConfigError, match=f"{field} must be nonnegative"):
            config_from_dict({"kind": kind, "params": params})
    # null is a value only where the preset holds null (kernel-fit h, lam)
    for kind, field in [
        ("kernel-fit", "n"), ("slln", "replicates"), ("invopt-fit", "eps0"),
        ("sets-demo", "n_directions"), ("clt", "max_cov_rel_error"), ("clt", "max_identity_gap"),
        ("kernel-fit", "max_median_error"), ("invopt-fit", "max_eps_error"),
        ("invopt-fit", "max_theta_error"), ("compare-estimators", "baseline_theta"),
        ("invopt-fit", "h"), ("slln", "body"), ("compare-estimators", "prior"),
    ]:
        with pytest.raises(ConfigError, match=f"'{field}' must not be null"):
            config_from_dict({"kind": kind, "params": {field: None}})
    with pytest.raises(ConfigError, match="'prior.d_eps'"):
        config_from_dict({"kind": "invopt-fit", "params": {"prior": {"d_eps": None}}})
    for kind, field in [("kernel-fit", "h"), ("invopt-fit", "lam"), ("compare-estimators", "lam")]:
        assert config_from_dict({"kind": kind, "params": {field: None}}).params[field] is None
    # a grid step giving more than 10^5 points on an axis, counted before
    # any axis is built
    for kind, params, field in [
        ("kernel-fit", {"u_grid": {"step": 1e-9}}, "'u_grid.step'"),
        ("invopt-fit", {"prior": {"d_eps": 1e-9}}, "'prior.d_eps'"),
        ("compare-estimators", {"prior": {"d_theta": 1e-300}}, "'prior.d_theta'"),
        ("invopt-fit", {"prior": {"eps_lo": 0, "eps_hi": 1e308, "d_eps": 1e-300}}, "'prior.d_eps'"),
        ("invopt-fit", {"prior": {"eps_lo": 0, "eps_hi": 100_000, "d_eps": 1}}, "'prior.d_eps'"),
    ]:
        with pytest.raises(ConfigError, match=f"{field} gives over 100000 points"):
            config_from_dict({"kind": kind, "params": params})
    grid = {"eps_lo": 0, "eps_hi": 99_999, "d_eps": 1}  # 10^5 points: at the cap
    assert config_from_dict({"kind": "invopt-fit", "params": {"prior": grid}})
    # a u grid with a point outside the demo truth's domain [-2, 2]
    outside = ({"lo": -1, "hi": 2.5, "step": 0.5}, {"lo": -2.5, "hi": 0}, {"hi": 2.3, "step": 0.2})
    for grid in outside:
        with pytest.raises(ConfigError, match="'u_grid' leaves the demo truth's domain"):
            config_from_dict({"kind": "kernel-fit", "params": {"u_grid": grid}})
    for grid in ({"lo": -2, "hi": 2, "step": 0.45}, {"lo": -1, "hi": 2.3, "step": 0.5}):
        config_from_dict({"kind": "kernel-fit", "params": {"u_grid": grid}})  # stops at <= 2
    cfg = config_from_dict({"kind": "kernel-fit", "params": {"max_median_error": 0}})
    assert cfg.params["max_median_error"] == 0.0
    # a check bound of +inf is no bound
    cfg = config_from_dict({"kind": "kernel-fit", "params": {"max_median_error": "inf"}})
    assert cfg.params["max_median_error"] == float("inf")


def test_config_counts_must_be_integral():
    for value in (3, 3.0, "3"):
        cfg = config_from_dict({"kind": "clt", "params": {"n": value, "replicates": value}})
        assert cfg.params["n"] == cfg.params["replicates"] == 3
        assert json.dumps(config_to_dict(cfg)["params"]["n"]) == "3"
    cfg = config_from_dict({"kind": "slln", "params": {"n_values": [10.0, "100"]}})
    assert json.dumps(cfg.params["n_values"]) == "[10, 100]"
    ball = {"type": "uniform-ball", "radius": 1.0, "dim": 2.0}
    assert config_from_dict({"kind": "clt", "params": {"noise": ball}}).params["noise"]["dim"] == 2
    for kind, params, field in [
        ("clt", {"n": 2.7}, "'n'"),
        ("clt", {"n": True}, "'n'"),
        ("clt", {"n": float("inf")}, "'n'"),
        ("clt", {"n": float("nan")}, "'n'"),
        ("clt", {"replicates": 9.5}, "'replicates'"),
        ("slln", {"replicates": False}, "'replicates'"),
        ("sets-demo", {"n_directions": 360.5}, "'n_directions'"),
        ("slln", {"n_values": [10, 100.5]}, "'n_values'"),
        ("slln", {"n_values": [True, 10]}, "'n_values'"),
        ("clt", {"noise": dict(ball, dim=2.7)}, "'noise': dim"),
        ("clt", {"noise": dict(ball, dim=True)}, "'noise': dim"),
    ]:
        with pytest.raises(ConfigError, match=field):
            config_from_dict({"kind": kind, "params": params})


def test_config_counts_have_a_cap(tmp_path, capsys):
    # ten times the largest preset, workload or config count: checked at
    # parse time, so no over-cap config ever runs
    for kind, params, message in [
        ("clt", {"n": 10**9}, "'n' must be at most 200000"),
        ("kernel-fit", {"n": 200_001}, "'n' must be at most 200000"),
        ("gen-data", {"n": 1e6}, "'n' must be at most 200000"),
        ("clt", {"replicates": 40_001}, "'replicates' must be at most 40000"),
        ("compare-estimators", {"replicates": 10**12}, "'replicates' must be at most 40000"),
        ("sets-demo", {"n_directions": 3_601}, "'n_directions' must be at most 3600"),
        ("slln", {"n_values": [10, 100_001]}, "'n_values' must be at most 100000"),
        ("compare-estimators", {"n_values": [10**9]}, "'n_values' must be at most 100000"),
    ]:
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"kind": kind, "params": params})
    at_cap = [("clt", {"n": 200_000, "replicates": 40_000}), ("sets-demo", {"n_directions": 3_600}),
              ("slln", {"n_values": [10, 100_000]})]
    for kind, params in at_cap:
        assert config_from_dict({"kind": kind, "params": params}).params == {
            **config_from_dict({"kind": kind}).params, **params}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "clt", "params": {"n": 10**9}, "out": str(tmp_path / "o")}))
    assert cli.main(["clt", "--config", str(path)]) == 2
    assert cli.main(["kernel-fit", "--n", "1000000", "--out", str(tmp_path / "k")]) == 2
    assert capsys.readouterr().err.count("config error: parameter 'n' must be at most") == 2
    assert not (tmp_path / "o").exists() and not (tmp_path / "k").exists()


def test_config_grid_cells_have_a_cap(tmp_path, capsys):
    # The (eps, sample) buffer of the grid estimators and the (eps, theta)
    # value table are capped at 10^8 cells at parse time; these configs are
    # only parsed, never run.
    axis = {"eps_lo": 0, "eps_hi": 99_999, "d_eps": 1}  # 10^5 eps points
    square = dict(axis, theta_lo=0, theta_hi=99_999, d_theta=1)
    for kind, params, message in [
        ("invopt-fit", {"n": 200_000, "prior": axis}, "'n' gives 20000000000 grid cells"),
        ("compare-estimators", {"n_values": [10, 2_000], "prior": axis},
         "'n_values' gives 200000000 grid cells"),
        ("invopt-fit", {"prior": square}, "'prior.d_theta' gives 10000000000 grid cells"),
        ("compare-estimators", {"n_values": [10], "prior": square}, "'prior.d_theta' gives"),
    ]:
        with pytest.raises(ConfigError, match=f"{message}.* over 100000000"):
            config_from_dict({"kind": kind, "params": params})
    # n = 200,000 on the preset's 199-point eps axis, the largest n_values
    # entry on it, a full eps axis at the preset n, and a box-quadratic prior,
    # which has no theta axis
    for kind, params in [("invopt-fit", {"n": 200_000}), ("compare-estimators", {"n_values": [100_000]}),
                         ("invopt-fit", {"prior": axis}),
                         ("invopt-fit", {"program": "box-quadratic", "n": 100, "prior": square})]:
        assert config_from_dict({"kind": kind, "params": params}).kind == kind
    path = tmp_path / "big.json"
    config = {"kind": "invopt-fit", "params": {"n": 200_000, "prior": axis}, "out": str(tmp_path / "o")}
    path.write_text(json.dumps(config))
    assert cli.main(["invopt-fit", "--config", str(path)]) == 2
    assert "config error: parameter 'n' gives" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _bad_values(kind, name):
    """(rule, value) pairs that the _FIELDS rules of parameter name refuse in
    kind: a bool and a NaN; an infinity where the field must be finite; null
    where it may not be null; 0 where it must be positive and -1 where it
    must be positive or nonnegative; the cap plus one.  A list field gets
    each as a one-entry list, and a bool and a NaN in place of the list."""
    field = harness._FIELDS[name]
    values = [("bool", True), ("nan", float("nan"))]
    if field.parse in (harness._real, randomsets._integral):
        values += [("inf", float("inf")), ("-inf", -float("inf"))]
    values += [("zero", 0)] if field.range == "positive" else []
    values += [("negative", -1)] if field.range else []
    values += [("cap + 1", field.cap + 1)] if field.cap is not None else []
    if field.listed:
        values = [(rule, [value]) for rule, value in values] + [("bool", True), ("nan", float("nan"))]
    return values + ([] if kind in field.null else [("null", None)])


def _generated_rejections():
    """(rule, kind, params, name) for every field of every kind and each
    value its rules refuse; a prior or u_grid field goes inside its object."""
    for kind, preset in harness.PRESETS.items():
        names = [*preset, *(f"{k}.{s}" for k in ("prior", "u_grid") if k in preset for s in preset[k])]
        for name in names:
            for rule, value in _bad_values(kind, name):
                key, _, sub = name.partition(".")
                yield rule, kind, {key: {sub: value} if sub else value}, name


def test_config_rejects_every_fields_bad_values(tmp_path, capsys):
    cases = list(_generated_rejections())
    for rule, kind, params, name in cases:
        with pytest.raises(ConfigError, match=re.escape(f"'{name}'")):
            config_from_dict({"kind": kind, "params": params})
    # one sample per rule and kind through the CLI: exit 2, naming the field,
    # nothing written
    samples = {(rule, kind): (params, name) for rule, kind, params, name in reversed(cases)}
    assert {rule for rule, _ in samples} == {"bool", "nan", "inf", "-inf", "zero", "negative",
                                             "cap + 1", "null"}
    for (rule, kind), (params, name) in samples.items():
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": kind, "params": params, "out": str(tmp_path / "o")}))
        assert cli.main([kind, "--config", str(path)]) == 2, (rule, params)
        err = capsys.readouterr().err
        assert "config error" in err and f"'{name}'" in err, (rule, params, err)
    assert not (tmp_path / "o").exists()


def test_config_refuses_negative_eps_and_repeated_or_empty_lists(tmp_path, capsys):
    increasing = "'n_values' must be a nonempty list of increasing entries"
    distinct = "'estimators' must be a nonempty list of distinct entries"
    for kind, params, message in [
        ("invopt-fit", {"eps0": -1}, "'eps0' must be nonnegative"),
        ("compare-estimators", {"eps0": -0.5}, "'eps0' must be nonnegative"),
        ("gen-data", {"dataset": "box-linear", "eps0": -1}, "'eps0' must be nonnegative"),
        ("invopt-fit", {"prior": {"eps_lo": -5}}, "'prior.eps_lo' must be nonnegative"),
        ("compare-estimators", {"prior": {"eps_lo": -1e-300}}, "'prior.eps_lo' must be nonnegative"),
        ("slln", {"n_values": [10, 10]}, increasing),
        ("compare-estimators", {"n_values": [10, 100, 100]}, increasing),
        ("slln", {"n_values": []}, increasing),
        ("compare-estimators", {"estimators": []}, distinct),
        ("compare-estimators", {"estimators": ["abp", "kkt", "abp"]}, distinct),
    ]:
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"kind": kind, "params": params})
    # 0 is still a valid eps, and estimators keep the order given
    assert config_from_dict({"kind": "invopt-fit", "params": {"eps0": 0}}).params["eps0"] == 0.0
    cfg = config_from_dict({"kind": "compare-estimators", "params": {"prior": {"eps_lo": 0},
                                                                      "estimators": ["via", "abp"]}})
    assert cfg.params["prior"]["eps_lo"] == 0.0 and cfg.params["estimators"] == ["via", "abp"]
    # each of these ran before and exited 3, or wrote doubled files: now exit 2
    for kind, params, field in [
        ("invopt-fit", {"n": 20, "eps0": -1}, "'eps0'"),
        ("gen-data", {"dataset": "box-linear", "n": 10, "eps0": -1}, "'eps0'"),
        ("invopt-fit", {"n": 20, "prior": {"eps_lo": -5}}, "'prior.eps_lo'"),
        ("compare-estimators", {"n_values": [10, 10], "replicates": 1}, "'n_values'"),
        ("compare-estimators", {"estimators": [], "n_values": [10], "replicates": 1}, "'estimators'"),
    ]:
        path = tmp_path / "refused.json"
        path.write_text(json.dumps({"kind": kind, "params": params, "out": str(tmp_path / "o")}))
        assert cli.main([kind, "--config", str(path)]) == 2, params
        err = capsys.readouterr().err
        assert "config error" in err and field in err, (params, err)
    assert not (tmp_path / "o").exists()


def test_config_validates_the_slope_window():
    for window in ("ab", [1], [1, 2, 3], [-0.3, -0.6], [None, 1], ["-1", "0"],
                   [float("nan"), 0], [0, float("inf")], [True, True], {"lo": 0}):
        with pytest.raises(ConfigError, match="slope_window"):
            config_from_dict({"kind": "slln", "params": {"slope_window": window}})
    cfg = config_from_dict({"kind": "slln", "params": {"slope_window": [-1, 0.5]}})
    assert json.dumps(config_to_dict(cfg)["params"]["slope_window"]) == "[-1, 0.5]"  # as given


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


def test_invopt_fit_runner_with_presmooth(tmp_path):
    cfg = _small("invopt-fit", tmp_path, n=200, estimator="presmooth")
    rep = run(cfg)
    assert set(rep.checks) == {"eps_error_within_bound", "theta_error_within_bound"}
    params = cfg.params
    prog = invopt.BoxLinearProgram()
    direct = invopt.presmooth_estimate(
        prog,
        invopt.generate_boxlinear_observations(200, cfg.seed),
        params["h"],
        harness._invopt_prior(params, prog),
        cfg.seed.derive(500_000),
        lam=params["lam"],
    )
    written = json.loads((tmp_path / "invopt-fit" / "result_presmooth.json").read_text())
    assert written == json.loads(json.dumps(invopt.result_to_dict(direct)))
    assert written["extras"]["n_used"] + written["extras"]["n_skipped"] == 200
    assert rep.metrics["eps_hat"] == direct.eps_hat and rep.metrics["objective"] == direct.objective


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
    rep = run(_small("gen-data", tmp_path, seed=7, dataset="box-linear", n=40, eps0=1.5,
                     theta0=0.25))
    obs = read_observations_jsonl(tmp_path / "gen-data" / "dataset.jsonl")
    assert len(obs) == 40 and obs.u_dim == 1
    assert rep.metrics == {"dataset": "box-linear", "n": 40, "eps0": 1.5, "theta0": 0.25}
    want = generate_boxlinear_observations(40, RngSeed(7), eps0=1.5, theta0=0.25)
    assert np.array_equal(obs.us, want.us) and np.array_equal(obs.ys, want.ys)
    rep = run(_small("gen-data", tmp_path, seed=7, dataset="box-quadratic", n=30))
    obs2 = read_observations_jsonl(tmp_path / "gen-data" / "dataset.jsonl")
    assert len(obs2) == 30 and obs2.u_dim == 0
    assert rep.metrics == {"dataset": "box-quadratic", "n": 30, "noise_radius": 3.0}
    assert np.array_equal(obs2.ys, generate_boxquadratic_observations(30, 3.0, RngSeed(7)).ys)
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


@pytest.mark.parametrize("kind, params, written", [
    ("kernel-fit", {"h": 1e-9}, "dataset.jsonl"),
    ("invopt-fit", {"estimator": "presmooth", "h": 1e-300}, "observations.jsonl"),
])
def test_run_time_config_error_removes_only_the_runs_own_files(tmp_path, kind, params, written):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("not this run's")
    (out / written).write_text("an earlier run's")  # overwritten by this run, then removed
    with pytest.raises(ConfigError, match="'h'"):
        run(config_from_dict({"kind": kind, "out": str(out), "params": params}))
    assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "not this run's"


def test_thread_cap_does_not_change_bytes(tmp_path, monkeypatch):
    # compare-estimators is the kind that maps its replicates on the pool
    params = {"estimators": ["abp", "kkt", "via"], "n_values": [50], "replicates": 4}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("SETSTAT_THREADS", "1")
    run(config_from_dict({"kind": "compare-estimators", "out": str(out1), "params": params}))
    monkeypatch.setenv("SETSTAT_THREADS", "4")
    run(config_from_dict({"kind": "compare-estimators", "out": str(out2), "params": params}))
    names = sorted(f.name for f in out1.iterdir() if f.name != "summary.json")  # echoes out
    assert names == sorted(f.name for f in out2.iterdir() if f.name != "summary.json")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
    path4 = tmp_path / "inverted_prior.json"
    path4.write_text('{"kind": "invopt-fit", "params": {"prior": {"eps_lo": 5, "eps_hi": 1}}}')
    assert cli.main(["invopt-fit", "--config", str(path4)]) == 2
    assert "must not exceed" in capsys.readouterr().err
    # body and noise errors name their field (JSON NaN parses to a float nan)
    for params, field in [
        ('{"body": {"type": "box", "lower": [1, 1], "upper": [-1, -1]}}', "'body'"),
        ('{"noise": {"type": "laplace", "scale": 1}}', "'noise'"),
        ('{"body": {"type": "box", "lower": [-1], "upper": [1]}}', "dimension"),
        ('{"noise": {"type": "uniform-box", "lower": [NaN, -1], "upper": [1, 1]}}', "'noise'"),
        ('{"noise": {"type": "uniform-ball", "radius": Infinity, "dim": 2}}', "'noise'"),
        ('{"noise": {"type": "truncated-gaussian", "sigma": [[1, 0], [0, 1]], "radius": 1e-170}}',
         "'noise'"),
    ]:
        path5 = tmp_path / "bad_model.json"
        path5.write_text(f'{{"kind": "clt", "params": {params}, "out": "{tmp_path / "clt"}"}}')
        assert cli.main(["clt", "--config", str(path5)]) == 2, params
        err = capsys.readouterr().err
        assert "config error" in err and field in err, (params, err)
    # values a run would fail on or truncate are config errors too
    for kind, params, field in [
        ("invopt-fit", {"program": "box-quadratic", "estimator": "presmooth", "n": 20},
         "'estimator'"),
        ("compare-estimators", {"program": "box-quadratic", "estimators": ["abp", "presmooth"],
                                "n_values": [10], "replicates": 1}, "'estimators'"),
        ("clt", {"n": 2.7, "replicates": 20}, "'n'"),
        ("clt", {"noise": {"type": "uniform-ball", "radius": 1.0, "dim": 2.7},
                 "replicates": 20}, "'noise'"),
        ("slln", {"slope_window": "ab", "replicates": 2}, "'slope_window'"),
        ("slln", {"slope_window": [-0.3, -0.6], "replicates": 2}, "'slope_window'"),
        ("slln", {"n_values": [100], "replicates": 2}, "'n_values'"),
        ("slln", {"n_values": [1], "replicates": 2}, "'n_values'"),
        ("kernel-fit", {"n": 200, "max_median_error": float("nan")}, "'max_median_error'"),
        ("kernel-fit", {"n": 200, "h": True}, "'h'"),
        ("kernel-fit", {"n": 200, "max_median_error": -1}, "'max_median_error'"),
        ("clt", {"replicates": 20, "max_identity_gap": float("-inf")}, "'max_identity_gap'"),
        ("clt", {"noise": {"type": "uniform-box", "lower": [-1e308, -1], "upper": [1e308, 1]},
                 "replicates": 20}, "'noise'"),
        ("clt", {"noise": {"type": "uniform-box", "lower": [-1e200, -1], "upper": [1e200, 1]},
                 "replicates": 20}, "'noise'"),
        ("kernel-fit", {"n": 200, "h": float("inf")}, "'h'"),
        ("invopt-fit", {"n": 20, "eps0": float("inf")}, "'eps0'"),
        ("invopt-fit", {"n": 20, "theta0": float("inf")}, "'theta0'"),
        ("invopt-fit", {"n": 20, "lam": float("inf")}, "'lam'"),
        ("invopt-fit", {"n": 20, "prior": {"eps_hi": float("inf")}}, "'prior.eps_hi'"),
        ("kernel-fit", {"n": 200, "u_grid": {"hi": float("inf")}}, "'u_grid.hi'"),
        ("kernel-fit", {"n": 200, "u_grid": {"lo": -1, "hi": 2.5, "step": 0.5}}, "'u_grid'"),
        ("kernel-fit", {"n": 200, "u_grid": {"lo": -2.05, "hi": 1, "step": 0.5}}, "'u_grid'"),
        ("compare-estimators", {"n_values": [10], "replicates": 1,
                                "baseline_theta": float("inf")}, "'baseline_theta'"),
        ("gen-data", {"dataset": "box-quadratic", "n": 10, "noise_radius": float("inf")},
         "'noise_radius'"),
        ("clt", {"n": None, "replicates": 20}, "'n'"),
        ("compare-estimators", {"n_values": [10], "replicates": 1, "baseline_theta": None},
         "'baseline_theta'"),
        ("kernel-fit", {"n": 200, "u_grid": {"step": 1e-9}}, "'u_grid.step'"),
        ("slln", {"body": {"type": "box", "lower": [False], "upper": [True]},
                  "noise": {"type": "triangular", "halfwidth": 1}, "replicates": 2}, "'body'"),
        ("slln", {"body": {"type": "box", "lower": [0], "upper": [1]},
                  "noise": {"type": "triangular", "halfwidth": True}, "replicates": 2}, "'noise'"),
        ("invopt-fit", {"n": 20, "estimator": "mle", "prior": {"w_lo": 0.5, "w_hi": 0.5}},
         "'prior.w_lo'"),
        ("compare-estimators", {"n_values": [10], "replicates": 1, "estimators": ["mle"],
                                "prior": {"w_lo": 0, "w_hi": 0}}, "'prior.w_lo'"),
        # an empty bandwidth window is found only at run time
        ("kernel-fit", {"h": 1e-9}, "'h'"),
        ("kernel-fit", {"n": 1}, "'h'"),
        ("invopt-fit", {"n": 20, "estimator": "presmooth", "h": 1e-300}, "'h'"),
        ("compare-estimators", {"n_values": [10], "replicates": 1, "estimators": ["presmooth"],
                                "h": 1e-300}, "'h'"),
    ]:
        path6 = tmp_path / "late_failure.json"
        out = tmp_path / kind
        path6.write_text(json.dumps({"kind": kind, "params": params, "out": str(out)}))
        assert cli.main([kind, "--config", str(path6)]) == 2, params
        err = capsys.readouterr().err
        assert "config error" in err and field in err, (params, err)
        # a run that fails part way leaves none of its own files behind
        assert not out.exists() or not any(out.iterdir()), (params, list(out.iterdir()))
    for seed in (True, {"seed": 0, "stream": True}):
        path7 = tmp_path / "bool_seed.json"
        path7.write_text(json.dumps({"kind": "gen-data", "seed": seed, "params": {"n": 10},
                                     "out": str(tmp_path / "g")}))
        assert cli.main(["gen-data", "--config", str(path7)]) == 2, seed
        assert "'seed'" in capsys.readouterr().err
    # an unhashable kind or formats entry is a config error, not a TypeError
    for config, field in [({"kind": ["slln"]}, "kind must be one of"),
                          ({"kind": "slln", "formats": [["csv"]]}, "'formats'")]:
        path8 = tmp_path / "unhashable.json"
        path8.write_text(json.dumps({**config, "out": str(tmp_path / "u")}))
        assert cli.main(["slln", "--config", str(path8)]) == 2, config
        err = capsys.readouterr().err
        assert "config error" in err and field in err, (config, err)


def test_cli_kernel_fit_runs_a_grid_whose_step_does_not_divide_the_range(tmp_path, capsys):
    # (2 - -2) / 0.45 is not whole: the grid stops at 1.6 instead of leaving
    # the truth's domain at 2.05
    path = tmp_path / "grid.json"
    params = {"n": 200, "u_grid": {"lo": -2, "hi": 2, "step": 0.45}}
    config = {"kind": "kernel-fit", "params": params, "out": str(tmp_path / "k")}
    path.write_text(json.dumps(config))
    assert cli.main(["kernel-fit", "--config", str(path)]) in (0, 1)
    capsys.readouterr()
    with open(tmp_path / "k" / "fit.csv") as fh:
        us = [float(row["u"]) for row in csv.DictReader(fh)]
    assert us == (-2.0 + 0.45 * np.arange(9)).tolist()


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
