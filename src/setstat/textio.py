"""The text of every output file, and the JSON-lines reader.

Byte for byte, JSON is what json.dump(indent=2, sort_keys=True) writes, a
table what csv.writer writes (with a JSON twin of row objects) and a
JSON-lines dataset one json.dumps line per record.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii

import numpy as np

from .geometry import _refuse_bools

__all__ = ["json_text", "write_text", "write_table", "write_jsonl", "read_jsonl"]

_CHUNK_ROWS = 4096  # rows per join and write of _write_rows

# The float reprs that JSON spells otherwise; no finite repr has an 'n' or an 'i'.
_JSON_SPECIAL_FLOATS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}

_CSV_QUOTED = re.compile('[,"\r\n]')  # a field holding one is quoted by csv.writer


def _json_scalar(obj) -> str | None:
    """JSON text of a str, None, bool, int or float; None for anything else."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _JSON_SPECIAL_FLOATS.get(text, text)
    return None


def _json_chunks(obj, indent: str, out: list[str]) -> None:
    """Append the text json.dump(obj, indent=2, sort_keys=True) writes."""
    text = _json_scalar(obj)
    if text is not None:
        out.append(text)
        return
    if not isinstance(obj, (list, tuple, dict)):
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
    if not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        out.append("{\n" + inner)
        for i, (key, value) in enumerate(sorted(obj.items())):
            name = key if isinstance(key, str) else _json_scalar(key)
            if name is None:
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
                )
            out.append((sep if i else "") + encode_basestring_ascii(name) + ": ")
            _json_chunks(value, inner, out)
        out.append("\n" + indent + "}")
    elif set(map(type, obj)) == {float}:  # grid rows: one join; repr is float.__repr__ here
        text = sep.join(map(repr, obj))
        if "n" in text:
            for spelling in _JSON_SPECIAL_FLOATS.items():  # no spelling holds another's repr
                text = text.replace(*spelling)
        out.append("[\n" + inner + text + "\n" + indent + "]")
    else:
        out.append("[\n" + inner)
        for i, value in enumerate(obj):
            if i:
                out.append(sep)
            _json_chunks(value, inner, out)
        out.append("\n" + indent + "]")


def json_text(obj) -> str:
    """The text json.dump(obj, indent=2, sort_keys=True) writes plus a newline,
    byte for byte, without json's per-value generator overhead."""
    out: list[str] = []
    _json_chunks(obj, "", out)
    out.append("\n")
    return "".join(out)


def write_text(path, text: str) -> None:
    """Write a file's whole text, rendered beforehand."""
    with open(path, "w") as fh:
        fh.write(text)


def _write_rows(fh, n: int, pieces: list[str], columns: list, last: str | None = None) -> None:
    """Write n rows, row i being pieces[0] + columns[0][i] + pieces[1] + ...
    + columns[-1][i] + pieces[-1], as one str.join and one write per
    _CHUNK_ROWS rows, so no row is formatted alone and no file's whole text
    is held at once; the last row ends with `last` in place of pieces[-1]
    when it is given."""
    width = 2 * len(columns) + 1
    row = [None] * width
    row[::2] = pieces
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        buf = row * (stop - start)
        for j, texts in enumerate(columns):
            buf[2 * j + 1::width] = texts[start:stop]
        if last is not None and stop == n:
            buf[-1] = last
        fh.write("".join(buf))


def _cell_texts(value) -> tuple[str, str]:
    """CSV and JSON text of one table cell; a numpy scalar is written as the
    Python scalar it holds."""
    if isinstance(value, np.generic):
        value = value.item()
    out: list[str] = []
    _json_chunks(value, "    ", out)
    return str(value), "".join(out)


def _column_texts(column) -> tuple:
    """(CSV texts, JSON texts) of one table column, the _cell_texts of each
    cell: a column of exact floats (or an empty one), or of exact ints, is
    formatted in one map of repr, for those types float.__repr__ or int.__repr__."""
    kinds = set(map(type, column))
    if len(kinds) < 2 and kinds <= {float, int}:
        texts = list(map(repr, column))
        return texts, list(map(_JSON_SPECIAL_FLOATS.get, texts, texts))
    return tuple(zip(*map(_cell_texts, column)))


def _csv_fields(texts, lone: bool):
    """Header or column texts as csv.writer writes them: a field holding a
    comma, a quote, a CR or a LF is quoted, its quotes doubled, and so is an
    empty one that is its row's lone field."""
    if not _CSV_QUOTED.search("".join(texts)) and not (lone and "" in texts):
        return texts
    return ['"' + t.replace('"', '""') + '"' if _CSV_QUOTED.search(t) or (lone and not t) else t
            for t in texts]


def write_table(header, columns, csv_path, json_path) -> None:
    """Write the columns, one sequence per header name, to csv_path as
    csv.writer would write their rows, and to json_path as a list of
    {header: cell} objects, as json.dump(indent=2, sort_keys=True) would; a
    path of None is not written.  Each column is formatted once."""
    texts = [_column_texts(column) for column in columns]
    n = len(texts[0][0]) if texts else 0
    if csv_path is not None:
        lone = len(header) == 1
        cells = [_csv_fields(csv_texts, lone) for csv_texts, _ in texts]
        with open(csv_path, "w", newline="") as fh:
            fh.write(",".join(_csv_fields(header, lone)) + "\r\n")
            _write_rows(fh, n, [*("," if j else "" for j in range(len(cells))), "\r\n"], cells)
    if json_path is not None:
        keys = sorted({k: i for i, k in enumerate(header)}.items())  # last column wins
        pieces = [
            ("," if j else "{") + "\n    " + encode_basestring_ascii(k) + ": "
            for j, (k, _) in enumerate(keys)
        ]
        cells = [texts[i][1] for _, i in keys]
        with open(json_path, "w") as fh:
            fh.write("[\n  " if n else "[]\n")
            _write_rows(fh, n, [*pieces, "\n  },\n  "], cells, last="\n  }\n]\n")


def _jsonl_layout(fields: dict, pieces: list[str], columns: list, text: str) -> str:
    """Append to pieces and columns the JSON object of fields, text so far
    being text, and return its text after the last column.  A value is a
    constant str, a nested dict, a 2-D float array (a list per row; tolist
    gives exact floats, so repr is float.__repr__) or a list of row texts."""
    for i, (key, value) in enumerate(fields.items()):
        text += (", " if i else "{") + encode_basestring_ascii(key) + ": "
        if isinstance(value, str):
            text += encode_basestring_ascii(value)
        elif isinstance(value, dict):
            text = _jsonl_layout(value, pieces, columns, text)
        elif isinstance(value, np.ndarray):
            text += "["
            for j, column in enumerate(value.T.tolist()):
                pieces.append(", " if j else text)
                columns.append(list(map(repr, column)))
            text = "]" if value.shape[1] else text + "]"
        else:
            pieces.append(text)
            columns.append(value)
            text = ""
    return text + "}"


def write_jsonl(path, n: int, fields: dict) -> None:
    """Write n records, one json.dumps line each, whose fields in order are
    those of fields (see _jsonl_layout); float arrays must be finite."""
    pieces, columns = [], []
    tail = _jsonl_layout(fields, pieces, columns, "")
    with open(path, "w") as fh:
        _write_rows(fh, n, [*pieces, tail + "\n"], columns)


def read_jsonl(path, keys: tuple[str, ...]):
    """The values of keys on each nonblank line of a JSON-lines file, whose
    every record holds exactly those keys."""
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if not isinstance(rec, dict) or set(rec) != set(keys):
                got = sorted(rec) if isinstance(rec, dict) else line
                raise ValueError(f"line {line_no}: expected keys {' and '.join(keys)}, got {got}")
            _refuse_bools(rec, f"line {line_no}: ")
            yield tuple(rec[k] for k in keys)
