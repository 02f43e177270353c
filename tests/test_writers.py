"""Table and JSON-lines writers against the standard library's own writers.

_Emitter.table must write the bytes csv.writer and
json.dump(indent=2, sort_keys=True) write; write_dataset_jsonl and
write_observations_jsonl must write one json.dumps line per record.  Both
join their rows a chunk of textio._CHUNK_ROWS at a time, so row counts
around one chunk are covered too.
"""

import csv
import json

import numpy as np
import pytest

from setstat import harness, textio
from setstat.geometry import Ball, Box, VertexPolytope, Zonotope, set_to_dict
from setstat.invopt import ObservationDataset, write_observations_jsonl
from setstat.kernelreg import LabeledSetSample, SetRegressionDataset, write_dataset_jsonl
from setstat.randomsets import RngSeed

CHUNK = textio._CHUNK_ROWS
INF, NAN = float("inf"), float("nan")


def _plain(v):
    """The Python scalar a numpy scalar stands for in a table cell."""
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    return float(v) if isinstance(v, np.floating) else v


def _emit_table(tmp_path, header, columns) -> tuple[bytes, bytes]:
    config = harness.ExperimentConfig(
        kind="sets-demo", params={}, seed=RngSeed(0), out_dir=str(tmp_path),
        formats=("csv", "json"),
    )
    harness._Emitter(config).table("t", header, columns)
    return (tmp_path / "t.csv").read_bytes(), (tmp_path / "t.json").read_bytes()


def _oracle_table(tmp_path, header, columns) -> tuple[bytes, bytes]:
    rows = [[_plain(v) for v in row] for row in zip(*columns)]
    with open(tmp_path / "oracle.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with open(tmp_path / "oracle.json", "w") as fh:
        json.dump([dict(zip(header, row)) for row in rows], fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (tmp_path / "oracle.csv").read_bytes(), (tmp_path / "oracle.json").read_bytes()


TABLES = {
    "comma": (["a", "b"], [["x,y", "plain"], [1.5, 2.5]]),
    "quote": (["a", "b"], [['say "hi"', "plain"], [1, 2]]),
    "cr": (["a", "b"], [["line\rbreak", "plain"], [1, 2]]),
    "lf": (["a", "b"], [["line\nbreak", "plain"], [1, 2]]),
    "header_comma": (["a,b", "c"], [[1, 2], [3, 4]]),
    "header_quote": (['a"', "c"], [[1, 2], [3, 4]]),
    "one_column_empty_cell": (["only"], [["a", "", "b"]]),
    "one_column_empty_header": ([""], [[1, 2]]),
    "two_columns_empty_cells": (["a", "b"], [["", "x"], ["", ""]]),
    "crlf_and_quotes": (["a", "b"], [["a\r\nb", '""', 'x"y,z'], [1.5, -INF, 2.0]]),
    "one_column_quoted": (["h,1"], [["", "a,b", '"', "plain"]]),
    "one_column_plain": (["only"], [[1.5, -0.0, INF]]),
    "header_no_rows": (["a", "b", "c"], [[], [], []]),
    "one_column_no_rows": (["only"], [[]]),
    "no_columns": ([], []),
    "repeated_header": (["k", "a", "k"], [[1, 2], [3, 4], [5.5, 6.5]]),
    "keys_non_ascii_and_percent": (["ünï", "100%", "%s", "b"], [[1, 2], [3, 4], [5, 6], [7, 8]]),
    "special_floats": (["f", "g"], [[INF, -INF, NAN, -0.0, 5e-324, 1e22],
                                    [0.1, 2.0, -1e300, 1e-7, 3.0, 4.0]]),
    "numpy_scalars": (
        ["np_float", "np_int", "np_bool", "bool"],
        [[np.float64(0.1), np.float64(-INF), np.float64(NAN)],
         [np.int64(-7), np.int64(2**40), np.int64(0)],
         [np.bool_(True), np.bool_(False), np.bool_(True)],
         [True, False, True]],
    ),
    "mixed_columns": (
        ["float_int", "str_float", "int_bool", "float_np"],
        [[1.5, 2, -0.0], ["a", 1.5, NAN], [1, True, 0], [0.1, np.float64(0.2), 3.0]],
    ),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_matches_csv_writer_and_json_dump(tmp_path, name):
    header, columns = TABLES[name]
    (tmp_path / "out").mkdir()
    got = _emit_table(tmp_path / "out", header, columns)
    assert got == _oracle_table(tmp_path, header, columns)


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_table_matches_oracle_around_a_chunk(tmp_path, n):
    rng = np.random.default_rng(n)
    header = ["i", "x", "y", "label"]
    columns = [range(n), rng.standard_normal(n).tolist(), (1e-300 * rng.random(n)).tolist(),
               [f"r{i}" for i in range(n)]]
    (tmp_path / "out").mkdir()
    got = _emit_table(tmp_path / "out", header, columns)
    assert got == _oracle_table(tmp_path, header, columns)
    # a quoted cell in the last chunk sends the whole table through csv.writer
    columns[3][-1] = "a,b"
    got = _emit_table(tmp_path / "out", header, columns)
    assert got == _oracle_table(tmp_path, header, columns)


def _oracle_dataset_lines(dataset) -> str:
    return "".join(
        json.dumps({"x": x.tolist(), "set": set_to_dict(smp.s)}) + "\n"
        for x, smp in zip(dataset.inputs, dataset.samples)
    )


def _finite(rng, shape) -> np.ndarray:
    """Finite floats of many magnitudes and both signs, with a -0.0."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    a.flat[0] = -0.0
    return a


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("d,q", [(1, 1), (2, 1), (2, 2)])
def test_box_dataset_lines_match_json_dumps(tmp_path, n, d, q):
    rng = np.random.default_rng(7 * n + d + q)
    lower = _finite(rng, (n, q))
    ds = SetRegressionDataset.from_boxes(_finite(rng, (n, d)), lower, lower + rng.random((n, q)))
    write_dataset_jsonl(ds, tmp_path / "d.jsonl")
    assert (tmp_path / "d.jsonl").read_text() == _oracle_dataset_lines(ds)


@pytest.mark.parametrize("n", [3, CHUNK + 1])
def test_object_dataset_lines_match_json_dumps(tmp_path, n):
    rng = np.random.default_rng(n)
    shapes = [
        lambda c: Box(c, c + 1.0),
        lambda c: Ball(c, 0.25),
        lambda c: VertexPolytope([c, c + [1.0, 0.0], c + [0.0, 1.0]]),
        lambda c: Zonotope(c, [[1.0, 0.0], [0.5, 0.5]], [1.0, 2.0]),
    ]
    samples = [LabeledSetSample(x, shapes[i % 4](x)) for i, x in enumerate(_finite(rng, (n, 2)))]
    ds = SetRegressionDataset(samples)
    write_dataset_jsonl(ds, tmp_path / "d.jsonl")
    assert (tmp_path / "d.jsonl").read_text() == _oracle_dataset_lines(ds)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("u_dim,y_dim", [(1, 1), (0, 1), (2, 1), (3, 2)])
def test_observation_lines_match_json_dumps(tmp_path, n, u_dim, y_dim):
    rng = np.random.default_rng(n + 10 * u_dim + y_dim)
    ds = ObservationDataset(_finite(rng, (n, u_dim)) if u_dim else np.zeros((n, 0)),
                            _finite(rng, (n, y_dim)))
    write_observations_jsonl(ds, tmp_path / "o.jsonl")
    want = "".join(
        json.dumps({"u": u.tolist(), "y": y.tolist()}) + "\n" for u, y in zip(ds.us, ds.ys)
    )
    assert (tmp_path / "o.jsonl").read_text() == want
