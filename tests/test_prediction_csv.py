"""The prediction / raw-score CSV reader against the `csv.reader` reference in oracles."""

import csv
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstainkit import files
from abstainkit.errors import DimensionMismatch, SchemaError
from abstainkit.files import read_predictions, write_predictions
from abstainkit.files import read_value_csv as _read_value_csv
from oracles import read_value_csv

# ids that need quoting, hold a line break or start like a comment
IDS = st.text(alphabet=["a", "7", " ", ",", '"', "\n", "\r", "#"], max_size=5)
VALUES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, -0.0]), st.floats())
MUTATIONS = (None, "empty_cell", "drop_cell", "extra_cell", "blank_line", "space_line", "float_label", "text_value")


@st.composite
def value_files(draw):
    """The text of a value CSV, and the one-cell mutation applied to it."""
    classes = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    labeled = draw(st.booleans())
    header = ["id", "label"] + (["prob"] if classes == 1 else [f"p_{c}" for c in range(classes)])
    rows = [
        [draw(IDS), str(draw(st.integers(0, max(classes, 2) - 1))) if labeled else "",
         *(draw(st.sampled_from(["{!r}", " {!r} ", "{:.3g}"])).format(draw(VALUES)) for _ in range(classes))]
        for _ in range(n)
    ]
    mutation = draw(st.sampled_from(MUTATIONS))
    row = draw(st.integers(0, n - 1))
    cell = draw(st.integers(0, len(header) - 1))
    if mutation == "empty_cell":
        rows[row][cell] = ""
    elif mutation == "drop_cell":
        del rows[row][cell]
    elif mutation == "extra_cell":
        rows[row].insert(cell, "0.5")
    elif mutation == "float_label":
        rows[row][1] = "1.0"
    elif mutation == "text_value":
        rows[row][draw(st.integers(2, len(header) - 1))] = "abc"
    terminator = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = []
    for cells in [header, *rows]:
        out = io.StringIO()
        csv.writer(out, lineterminator=terminator).writerow(cells)
        lines.append(out.getvalue())
    if mutation in ("blank_line", "space_line"):
        lines.insert(draw(st.integers(1, n + 1)), ("" if mutation == "blank_line" else "  ") + terminator)
    if draw(st.booleans()):  # the last line may lack its terminator
        lines[-1] = lines[-1][: -len(terminator)] or lines[-1]
    return "".join(lines), mutation


def _outcome(read, path):
    try:
        return read(path, "prob", "p")
    except SchemaError:
        return SchemaError


@settings(derandomize=True, max_examples=400, deadline=None)
@given(value_files())
def test_reader_matches_the_csv_reference(tmp_path_factory, case):
    text, mutation = case
    path = tmp_path_factory.getbasetemp() / "values.csv"
    path.write_bytes(text.encode())
    want, got = _outcome(read_value_csv, path), _outcome(_read_value_csv, path)
    if want is SchemaError or got is SchemaError:
        assert want is got, (mutation, text, want, got)
        return
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1].dtype == np.int64 and np.array_equal(got[1], want[1])
    assert got[2].dtype == want[2].dtype and got[2].shape == want[2].shape
    assert got[2].tobytes() == want[2].tobytes()  # bit-equal, NaN and -0.0 included


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(lambda classes: st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0, 1)), min_size=classes, max_size=classes),
        min_size=1, max_size=6,
    )),
    st.booleans(),
    st.data(),
)
def test_write_then_read_round_trips(tmp_path_factory, table, labeled, data):
    table = np.array(table)
    if table.shape[1] == 1:
        probs = table[:, 0]
        classes = 2
    else:
        # rows scaled onto the simplex; a row of zeros becomes one-hot
        table[table.sum(axis=1) == 0, 0] = 1.0
        probs = table / table.sum(axis=1, keepdims=True)
        classes = probs.shape[1]
    n = probs.shape[0]
    ids = data.draw(st.lists(IDS, min_size=n, max_size=n))
    labels = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))) if labeled else None
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_predictions(path, probs, labels, ids)
    got_ids, got_labels, got_probs = read_predictions(path)
    assert got_ids == ids
    assert (got_labels is None) if labels is None else np.array_equal(got_labels, labels)
    assert got_probs.tobytes() == probs.tobytes()


def test_write_round_trips_across_row_blocks(tmp_path):
    # rows are converted a block at a time; no id, label or value may slip at a block's edge
    n = 2 * files._WRITE_BLOCK + 3
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(3), n)
    labels = rng.integers(0, 3, n)
    ids = [f"row,{i}" for i in range(n)]
    path = tmp_path / "blocks.csv"
    write_predictions(path, probs, labels, ids)
    got_ids, got_labels, got_probs = read_predictions(path)
    assert got_ids == ids
    assert np.array_equal(got_labels, labels)
    assert got_probs.tobytes() == probs.tobytes()


@pytest.mark.parametrize("column", ["labels", "ids"])
@pytest.mark.parametrize("count", [4, 6])
def test_write_rejects_a_column_that_does_not_match_the_rows(tmp_path, column, count):
    given = {"labels": np.zeros(5, dtype=int), "ids": [str(i) for i in range(5)]}
    given[column] = given[column][:1].repeat(count) if column == "labels" else ["x"] * count
    path = tmp_path / "preds.csv"
    with pytest.raises(DimensionMismatch, match=f"^{count} {column} for 5 rows$"):
        write_predictions(path, np.full(5, 0.5), **given)
    assert not path.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        ("id,label,prob\n0,0,0.1\n1,1,1.5\n2,0,nan\n", "row 2: probabilities must be finite and lie in [0, 1]"),
        ("id,label,prob\n0,0,0.1\n1,1,0.5\n2,0,-inf\n", "row 3: probabilities must be finite and lie in [0, 1]"),
        ("id,label,p_0,p_1\n0,0,0.5,0.5\n1,1,0.5,0.6\n2,0,2.0,-1.0\n", "row 2: probabilities sum to"),
        ("id,label,p_0,p_1\n0,0,0.5,0.5\n1,1,0.5,nan\n", "row 2: probabilities must be finite"),
    ],
    ids=["above_one", "minus_inf", "row_sum", "nan_in_matrix"],
)
def test_prediction_values_are_checked_where_read(tmp_path, content, message):
    path = tmp_path / "preds.csv"
    path.write_text(content)
    with pytest.raises(SchemaError, match="^" + re.escape(f"{path}: {message}")):
        read_predictions(path)


def test_blank_lines_are_rows_without_cells(tmp_path):
    path = tmp_path / "preds.csv"
    bodies = ("0,0,0.1\n\n1,1,0.5\n", "\n0,0,0.1\n", "0,0,0.1\n1,1,0.5\n\n", "0,0,0.1\r\n\r\n1,1,0.5", "\n", "\r\n\r\n",
              "0,0,0.1\r\r1,1,0.5",
              # a line break inside a quoted value cell is not part of an id or label: it reads as a blank row
              'a,0,"0.1\n"\nb,1,0.5\n')
    for body in bodies:
        path.write_text("id,label,prob\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a body of blank lines must not reach the parser's empty-input warning
            with pytest.raises(SchemaError, match=rf"^{path}: row has 0 cells, expected 3"):
                read_predictions(path)
    # a line break inside a quoted id is part of the id, not a blank line
    path.write_text('id,label,prob\n"a\n\nb",0,0.1\n"c\r\n",1,0.5\n', newline="")
    assert read_predictions(path)[0] == ["a\n\nb", "c\r\n"]
    path.write_text('id,label,prob\n"x\ry",1,0.5\r', newline="")
    assert read_predictions(path)[0] == ["x\ry"]


@pytest.mark.parametrize("read, column", [(read_predictions, "prob"), (files.read_raw_scores, "score")])
def test_each_read_opens_its_file_once(tmp_path, monkeypatch, read, column):
    # blank rows are found in the one parse, not by reading the file again
    path = tmp_path / "values.csv"
    path.write_text(f"id,label,{column}\na,0,0.1\nb,1,0.5\n")
    opened = []
    monkeypatch.setattr(files, "open", lambda *args, **kwargs: opened.append(args) or open(*args, **kwargs),
                        raising=False)
    assert read(path)[0] == ["a", "b"]
    assert len(opened) == 1


def test_underscore_in_a_number_is_rejected(tmp_path):
    # float() reads `1_0` as 10.0; the file format does not
    path = tmp_path / "raw.csv"
    path.write_text("id,label,score\n0,1,1_0\n")
    assert read_value_csv(path, "score", "z")[2].tolist() == [10.0]
    with pytest.raises(SchemaError, match=rf"^{path}: value cell is not a number: '1_0' \(row 1\)"):
        _read_value_csv(path, "score", "z")


def test_a_parser_message_of_no_known_form_is_named_whole(tmp_path, monkeypatch):
    # pyproject.toml admits numpy >= 1.24, whose loadtxt may word its errors otherwise
    def loadtxt(*args, **kwargs):
        raise ValueError("a message in no known form")

    path = tmp_path / "preds.csv"
    path.write_text("id,label,prob\n0,0,0.1\n")
    monkeypatch.setattr(files.np, "loadtxt", loadtxt)
    with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: a message in no known form$"):
        read_predictions(path)
