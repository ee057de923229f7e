"""Every file the package reads or writes, and the one place their errors get names.

- Prediction CSVs: `id,label,prob` (binary) or `id,label,p_0,...,p_{C-1}`;
  the label cell may be empty for unlabeled rows.
- Raw-score CSVs: the same layout with `score` / `z_c`.
- Results CSVs: one row per (seed, method, budget, adapted) run.
- Abstain files: the JSON object `abstain` writes, read for its `indices`.
- JSON in (configs, specs, calibrators) and out (payloads, manifests).

Every input opens through :func:`open_input`, once per read (a prediction CSV
too: its blank rows are found in the one parse); every JSON file is read by
:func:`load_json` and written by :func:`write_json`, and every CSV is written
by :func:`write_rows`.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import re

import numpy as np

from .errors import (
    DimensionMismatch, InputNotFound, InvalidConfig, SchemaError, as_array, check_labels, check_probabilities,
)


def _named(path, exc: Exception) -> SchemaError:
    """The SchemaError naming the file and the type of the exception its content raised."""
    return SchemaError(f"{path}: {type(exc).__name__}: {exc}")


@contextlib.contextmanager
def open_input(path):
    """An input file open for reading, and the one place its content errors get names.

    A missing file is InputNotFound. Bytes that are not UTF-8, a CSV cell
    the csv module refuses (one over its field size limit) or text that is
    not JSON, met while the file is read, is a SchemaError naming the file.
    """
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise InputNotFound(path) from None
    with fh:
        try:
            yield fh
        except (UnicodeDecodeError, csv.Error, json.JSONDecodeError) as exc:
            raise _named(path, exc) from None


def _json_int(digits: str) -> int:
    """A JSON integer; one past Python's digit limit is unreadable JSON, not a plain ValueError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise json.JSONDecodeError(str(exc), digits, 0) from None


def load_json(path, build):
    """Return ``build(payload)`` for the JSON file at ``path``.

    A file that is not JSON or is nested past the parser's recursion limit,
    a top level that is not an object, or a payload ``build`` cannot read (a
    missing or unknown field, or a wrong type: the KeyError or TypeError
    Python raises) is a SchemaError naming the file.
    A value ``build`` rejects is its own AbstainkitError.
    """
    with open_input(path) as fh:
        try:
            payload = json.load(fh, parse_int=_json_int)
        except RecursionError as exc:
            raise _named(path, exc) from None
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level must be a JSON object, got {type(payload).__name__}")
    try:
        return build(payload)
    except (KeyError, TypeError) as exc:
        raise _named(path, exc) from None


def write_json(path, payload, indent) -> None:
    """The one JSON file writer: the payload, then a newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=indent) + "\n")


def write_rows(path, header, rows) -> None:
    """The one CSV writer: prediction files and experiment results."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Prediction and raw-score CSVs
# ---------------------------------------------------------------------------

_WRITE_BLOCK = 4096


def write_predictions(path, probs, labels=None, ids=None) -> None:
    """Write a prediction CSV that :func:`read_predictions` reads back.

    The header is `id,label,prob` for a probability vector and
    `id,label,p_0,...,p_{C-1}` for an N x C matrix. ``ids`` default to the
    row numbers from 0; the label cells are empty when ``labels`` is None.
    Labels or ids whose count is not N are DimensionMismatch; probabilities
    that break :func:`~abstainkit.errors.check_probabilities`, or labels that
    break :func:`~abstainkit.errors.check_labels` (whole numbers in [0, 2)
    for a vector, [0, C) for a matrix), are InvalidConfig. Every check runs
    before the file is opened.
    """
    probs = as_array(getattr(probs, "entries", probs), "probs")
    n = probs.shape[0]
    binary = probs.ndim == 1
    header = ["id", "label", "prob"] if binary else ["id", "label"] + [f"p_{c}" for c in range(probs.shape[1])]
    table = probs[:, None] if binary else probs
    for name, column in (("labels", labels), ("ids", ids)):
        if column is not None and len(column) != n:
            raise DimensionMismatch(f"{len(column)} {name} for {n} rows")
    check_probabilities(probs)
    if labels is not None:
        labels = check_labels(labels, 2 if binary else probs.shape[1])

    # Rows become Python values one block at a time: one `tolist` per block is
    # cheaper than a numpy scalar per cell, and a whole-table list would raise
    # the peak memory.
    def rows():
        row_ids = range(n) if ids is None else ids
        for start in range(0, n, _WRITE_BLOCK):
            stop = min(start + _WRITE_BLOCK, n)
            marks = [""] * (stop - start) if labels is None else labels[start:stop].tolist()
            for row_id, label, values in zip(row_ids[start:stop], marks, table[start:stop].tolist()):
                yield [row_id, label, *values]

    write_rows(path, header, rows())


def _line_breaks(text: str) -> int:
    """Line terminators in ``text``: `\\n`, `\\r\\n` and a lone `\\r` count once each."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def read_value_csv(path, binary_column: str, class_prefix: str):
    """Read `id,label,<binary_column>` or `id,label,<class_prefix>_0..`.

    Returns ``(ids, labels_or_None, values)`` with ``values`` a vector for
    the binary layout and an N x C array otherwise. The body is parsed in one
    ``np.loadtxt`` pass: ids and labels as strings, values as floats.
    ``loadtxt`` skips blank lines, so the lines it pulls from the file are
    counted as it reads them: a row takes one line, plus one per line break
    inside its id and label cells, and a line left over is a blank row, a
    row of 0 cells.
    """
    with open_input(path) as fh:
        first = fh.readline()
        if not first:
            raise SchemaError(f"{path}: empty file")
        header = next(csv.reader([first]), [])
        body = fh.tell()
        lead = fh.read(1)
        if not lead:
            raise SchemaError(f"{path}: no data rows")
        if header[:2] != ["id", "label"]:
            raise SchemaError(f"{path}: header must start with id,label")
        value_cols = header[2:]
        if value_cols == [binary_column]:
            binary = True
        elif value_cols == [f"{class_prefix}_{c}" for c in range(len(value_cols))] and value_cols:
            binary = False
        else:
            raise SchemaError(
                f"{path}: value columns must be `{binary_column}` or `{class_prefix}_0..{class_prefix}_{{C-1}}`"
            )
        blank_row = SchemaError(f"{path}: row has 0 cells, expected {len(header)}")
        if lead in "\r\n":
            raise blank_row
        fh.seek(body)
        dtype = [("id", object), ("label", object), ("values", float, (len(value_cols),))]
        # every line loadtxt pulls passes `compress` and advances `lines`, in C, with no Python call per line
        lines = itertools.count(1)
        try:
            # comments=None: a `#` inside an id is data, not the start of a comment
            table = np.loadtxt(itertools.compress(fh, lines), delimiter=",", quotechar='"', comments=None,
                               ndmin=1, dtype=dtype)
        except UnicodeDecodeError:  # a ValueError too: `open_input` names it
            raise
        except ValueError as exc:
            raise _parse_error(path, len(header), exc) from None
    ids, labels = table["id"].tolist(), table["label"]
    # loadtxt skips blank lines, which are rows of 0 cells: every body line must start a row or continue a cell
    seen = next(lines) - 1
    if seen != len(ids) and seen != len(ids) + sum(_line_breaks(cell) for cell in [*ids, *labels.tolist()]):
        raise blank_row
    present = labels != ""
    if present.any() and not present.all():
        raise SchemaError(f"{path}: labels must be all present or all empty")
    try:
        label_arr = labels.astype(np.int64) if present.any() else None
    except (ValueError, OverflowError):  # OverflowError: an integer beyond int64
        raise _label_error(path, labels) from None
    values = np.ascontiguousarray(table["values"][:, 0] if binary else table["values"])
    class_count = 2 if binary else values.shape[1]
    if label_arr is not None and not (label_arr.min() >= 0 and label_arr.max() < class_count):
        raise SchemaError(f"{path}: labels must lie in [0, {class_count})")
    return ids, label_arr, values


def _parse_error(path, cells: int, exc: ValueError) -> SchemaError:
    """The SchemaError for a ValueError from ``np.loadtxt``; rows are numbered from 1."""
    text = str(exc)
    ragged = re.search(r"requires \d+ columns but (\d+) were found at row (\d+)", text)
    if ragged:
        return SchemaError(f"{path}: row has {ragged[1]} cells, expected {cells} (row {ragged[2]})")
    number = re.search(r"could not convert string (.*) to float64 at row (\d+)", text)
    if number:
        return SchemaError(f"{path}: value cell is not a number: {number[1]} (row {int(number[2]) + 1})")
    return SchemaError(f"{path}: {text}")


def _label_error(path, labels) -> SchemaError:
    """The SchemaError for the first label cell that is not a 64-bit integer; rows are numbered from 1."""
    for row, cell in enumerate(labels.tolist(), 1):
        try:
            np.int64(int(cell))
        except (ValueError, OverflowError):
            break
    return SchemaError(f"{path}: label cell is not a 64-bit integer: {cell!r} (row {row})")


def read_predictions(path):
    """Read a prediction CSV; returns ``(ids, labels_or_None, probs)``.

    ``probs`` is a vector for binary files and an N x C array otherwise.
    The values follow :func:`~abstainkit.errors.check_probabilities`; the
    first row that breaks it is a SchemaError naming the file.
    """
    ids, labels, probs = read_value_csv(path, "prob", "p")
    try:
        check_probabilities(probs)
    except InvalidConfig as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return ids, labels, probs


def read_raw_scores(path):
    """Raw-score CSV: `id,label,score` (binary) or `id,label,z_0..z_{C-1}`.

    Returns ``(ids, labels_or_None, scores)``; every score must be finite.
    """
    ids, labels, scores = read_value_csv(path, "score", "z")
    if not np.isfinite(scores).all():
        raise SchemaError(f"{path}: value cell is not finite")
    return ids, labels, scores


# ---------------------------------------------------------------------------
# Abstain files and results CSVs
# ---------------------------------------------------------------------------

def read_abstained(path, n: int) -> np.ndarray:
    """The `indices` of an abstain file: distinct integer rows in [0, n), else SchemaError."""
    indices = load_json(path, lambda payload: payload["indices"])
    if not (isinstance(indices, list) and all(type(i) is int and 0 <= i < n for i in indices)
            and len(set(indices)) == len(indices)):
        raise SchemaError(f"{path}: indices must be distinct integers in [0, {n})")
    return np.array(indices, dtype=np.int64)


def _cell(path, number: int, row: dict, column: str, kind):
    """``kind(row[column])``, finite, or a SchemaError naming the file, the row (from 1) and the column."""
    try:
        value = kind(row[column])
    except (TypeError, ValueError):  # TypeError: a short row leaves the cell None
        what = "an integer" if kind is int else "a number"
        raise SchemaError(f"{path}: row {number}: {column} cell is not {what}: {row[column]!r}") from None
    if kind is float and not math.isfinite(value):
        raise SchemaError(f"{path}: row {number}: {column} cell is not finite: {row[column]!r}")
    return value


def read_results(path, column: str, budget=None) -> dict:
    """The ``column`` of a results CSV as ``{method: vector}``, methods sorted by name.

    Runs pair up by (seed, budget, adapted), and each vector follows the
    sorted pairs; `adapted` is 0 where the column is absent. ``budget`` keeps
    only the rows at that fraction. No rows, a missing column, a cell that
    is not a finite number (an integer for `seed` and `adapted`), a repeated
    run or methods that do not cover the same runs is a SchemaError naming
    the file.
    """
    with open_input(path) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise SchemaError(f"{path}: no rows")
    missing = {"seed", "method", "budget", column}.difference(rows[0])
    if missing:
        raise SchemaError(f"{path}: missing columns {', '.join(sorted(missing))}")
    by_method: dict[str, dict] = {}
    for number, row in enumerate(rows, 1):
        fraction = _cell(path, number, row, "budget", float)
        if budget is not None and fraction != budget:
            continue
        adapted = _cell(path, number, row, "adapted", int) if row.get("adapted") else 0
        key = (_cell(path, number, row, "seed", int), fraction, adapted)
        entries = by_method.setdefault(row["method"], {})
        if key in entries:
            raise SchemaError(f"{path}: method {row['method']} repeats (seed, budget, adapted) {key}")
        entries[key] = _cell(path, number, row, column, float)
    if not by_method:  # only a budget filter can keep no row
        raise SchemaError(f"{path}: no row has budget {budget!r}")
    keys = sorted(next(iter(by_method.values())))
    if any(sorted(entries) != keys for entries in by_method.values()):
        raise SchemaError(f"{path}: methods do not cover the same (seed, budget, adapted) rows")
    return {name: np.array([entries[k] for k in keys]) for name, entries in sorted(by_method.items())}
