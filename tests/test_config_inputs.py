"""The JSON config and CSV inputs of the CLI under one bad field at a time.

Each JSON case starts from a valid `simulate` config, calibrator (with a
small raw-score file it fits) or `experiment` spec, and each CSV case from a
small valid prediction file, raw-score file, `compare` results file or
abstain file, and sets one field or cell to a value that is wrong for it, or
at least unusual: among them a byte that is not UTF-8 and a cell longer than
the csv module's field limit. A CSV case may instead blank a whole label
column or keep only the first rows of a file. Whatever the value, `main`
must either succeed or exit 1 with one named `AbstainkitError` line and no
output; no exception may escape it and no written value may be `nan`.
"""

import copy
import csv
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from abstainkit import errors
from abstainkit.calibration import CALIBRATOR_KINDS
from abstainkit.cli import main
from abstainkit.experiments import _METRIC_LAYOUT, METHODS
from abstainkit.files import read_predictions

_BINARY_SIM = {"positive_prior": 0.1, "mu_pos": 2.0, "mu_neg": -1.0, "sigma_pos": 1.0, "sigma_neg": 2.0,
               "n": 40, "seed": 0}
_MULTICLASS_SIM = {"priors": [0.5, 0.3, 0.2], "means": [-1.0, 0.0, 1.0], "sigmas": [1.0, 1.0, 2.0], "n": 40, "seed": 0}
_RAW = {"binary": "id,label,score\n0,0,-1.0\n1,1,0.5\n2,0,0.2\n3,1,2.0\n",
        "classes": "id,label,z_0,z_1,z_2\n0,0,1.0,0.0,-1.0\n1,1,0.0,2.0,0.5\n2,2,-1.0,0.0,3.0\n3,1,0.5,0.5,0.0\n"}
_SPEC = {"methods": ["entropy"], "budgets": [0.1], "seeds": [0], "metric": {"name": "auroc"}, "mc_samples": 2}

# (command, valid payload, raw-score layout or None, paths of the fields a case may set)
_INPUTS = [
    ("simulate", _BINARY_SIM, None, [(key,) for key in _BINARY_SIM]),
    ("simulate", _MULTICLASS_SIM, None,
     [(key,) for key in _MULTICLASS_SIM] + [(key, c) for key in ("priors", "means", "sigmas") for c in range(3)]),
    ("apply-calibrator", {"kind": "platt", "scale": 1.5, "offset": [0.2]}, "binary", [("scale",), ("offset", 0)]),
    *[("apply-calibrator", {"kind": kind, "scale": 0.5, "offset": [0.1, 0.0, -0.1]}, "classes",
       [("scale",)] + [("offset", c) for c in range(3)])
      for kind in ("temperature", "bias_corrected_temperature")],
    ("experiment", {**_SPEC, "task": "figure1", "sim": {"n": 200}}, None,
     [("sim", key) for key in _BINARY_SIM if key != "seed"] + [("mc_samples",), ("seeds", 0), ("methods", 0)]),
    ("experiment", {**_SPEC, "task": "kappa_convergence", "metric": {"name": "weighted_kappa"},
                    "sim": {"n": 20, "means": [-1.0, 0.0, 1.0, 2.0]}}, None,
     [("sim", key) for key in ("priors", "sigmas", "n", "repeats")] + [("sim", "means", c) for c in range(4)]
     + [("mc_samples",), ("seeds", 0)]),
    ("experiment", {**_SPEC, "task": "auroc_correlation", "sim": {"abstain_count": 5}}, None,
     [("sim", "abstain_count"), ("mc_samples",), ("seeds", 0)]),
]
_CASES = [(number, path) for number, (_, _, _, paths) in enumerate(_INPUTS) for path in paths]
# written as the byte 0xff, which is not UTF-8 (the file is written with errors="surrogateescape")
_NOT_UTF8 = "\udcff"
# one character past the csv module's default field size limit
_LONG = "x" * 131073
# no value here is a large size: a huge `n` or `mc_samples` would allocate
_BAD_VALUES = ["1", "", None, True, float("nan"), float("inf"), float("-inf"), [1], {}, -0.1, 1.5, _NOT_UTF8, _LONG]


def _write_text(path, text) -> None:
    """Write ``text`` as UTF-8, a lone surrogate such as ``_NOT_UTF8`` as the byte it stands for."""
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(text)


def _with(payload, path, value):
    payload = copy.deepcopy(payload)
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(_CASES), st.sampled_from(_BAD_VALUES))
@example((5, ("methods", 0)), "psychic")  # the figure1 spec's first method: an unknown name
@example((0, ("mu_pos",)), _NOT_UTF8)
def test_a_bad_config_field_is_one_named_error_or_a_clean_run(case, value):
    number, path = case
    command, payload, layout, _ = _INPUTS[number]
    with tempfile.TemporaryDirectory() as tmp:
        config, raw, out = (os.path.join(tmp, name) for name in ("config.json", "raw.csv", "out"))
        _write_text(config, json.dumps(_with(payload, path, value), ensure_ascii=False))
        argv = {
            "simulate": ["simulate", "--config", config, "--output", out],
            "apply-calibrator": ["apply-calibrator", "--input", raw, "--calibrator", config, "--output", out],
            "experiment": ["experiment", "--spec", config, "--output", out],
        }[command]
        if layout is not None:
            _write_text(raw, _RAW[layout])
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        if code == 0:
            if command != "experiment":
                with open(out) as fh:
                    assert "nan" not in fh.read().lower()
            return
        assert code == 1
        assert not os.path.exists(out)
        assert err.count("\n") == 1 and err.startswith("error: "), err
        name = err.split(":")[1].strip()
        assert issubclass(getattr(errors, name, type(None)), errors.AbstainkitError), err


def _table(header, rows):
    return [header.split(",")] + [[str(i), *map(str, row)] for i, row in enumerate(rows)]


# 12 labelled rows each: enough for every method at budget 0.2 and for a calibrator fit
_TABLES = {
    "prob": _table("id,label,prob", [
        (0, 0.05), (1, 0.9), (0, 0.2), (1, 0.7), (0, 0.35), (1, 0.6),
        (0, 0.1), (1, 0.8), (1, 0.45), (0, 0.3), (1, 0.95), (0, 0.55),
    ]),
    "p": _table("id,label,p_0,p_1,p_2", [
        (0, 0.6, 0.3, 0.1), (1, 0.2, 0.5, 0.3), (2, 0.1, 0.2, 0.7), (0, 0.5, 0.25, 0.25),
        (1, 0.3, 0.4, 0.3), (2, 0.2, 0.2, 0.6), (0, 0.7, 0.2, 0.1), (1, 0.25, 0.5, 0.25),
        (2, 0.3, 0.3, 0.4), (0, 0.4, 0.4, 0.2), (1, 0.1, 0.8, 0.1), (2, 0.05, 0.15, 0.8),
    ]),
    "score": _table("id,label,score", [
        (0, -1.5), (1, 2.0), (0, -0.2), (1, 0.7), (0, 0.4), (1, -0.3),
        (0, -2.0), (1, 1.1), (1, 0.1), (0, 0.9), (1, 1.6), (0, -0.8),
    ]),
    "z": _table("id,label,z_0,z_1,z_2", [
        (0, 1.0, 0.0, -1.0), (1, 0.0, 2.0, 0.5), (2, -1.0, 0.0, 3.0), (0, 0.5, 0.2, 0.0),
        (1, 0.2, 0.9, 0.4), (2, 0.1, 0.3, 1.2), (0, 2.0, 1.0, -0.5), (1, -0.5, 1.5, 0.0),
        (2, 0.0, 0.4, 0.3), (0, 0.3, 0.6, -0.2), (1, 1.0, 1.2, 0.1), (2, -0.4, 0.5, 0.2),
    ]),
    # a `compare` results file: two methods paired on six seeds at budget 0.1, and one seed at 0.3
    "results": [["seed", "method", "budget", "post"]] + [
        [str(seed), method, budget, str(post)]
        for method, posts in (("a", (0.61, 0.72, 0.55, 0.68, 0.7, 0.64, 0.5)),
                              ("b", (0.52, 0.6, 0.51, 0.59, 0.66, 0.57, 0.45)))
        for seed, budget, post in zip((*range(6), 0), ("0.1",) * 6 + ("0.3",), posts)
    ],
}
_CALIBRATORS = {"platt": {"kind": "platt", "scale": 1.5, "offset": [0.2]},
                **{kind: {"kind": kind, "scale": 0.5, "offset": [0.1, 0.0, -0.1]} for kind in CALIBRATOR_KINDS[1:]}}
_DROP = object()  # the cell or field is removed
_CELL_VALUES = ["", "nan", "inf", "-inf", "-0.1", "1.5", "1.0", "99999999999999999999",
                "-99999999999999999999", "-1", "3", "x", _DROP, _NOT_UTF8, _LONG]
# the same values for the abstain file's `indices` and one of its entries, 12 being the first row past the end
_FIELD_VALUES = ["", float("nan"), float("inf"), -0.1, 1.5, 1.0, 99999999999999999999, -99999999999999999999,
                 -1, 12, "1", None, True, {}, _DROP, _NOT_UTF8, _LONG]
# (file, row, column): one cell of the header, the first, a middle or the last data row (a row past the
# end first grows the file by repeating its data rows, so a late cell lies past the first read buffer);
# (file, "column", column): that cell of every data row; (file, "rows", None): the file keeps its first k rows;
# ("abstain", key, index): a field
_CASES = [(name, row, column) for name, table in _TABLES.items()
          for row in (0, 1, 6, len(table) - 1) for column in range(len(table[0]))]
_CASES += [(name, "column", 1) for name in ("prob", "p", "score", "z")]
_CASES += [(name, "rows", None) for name in _TABLES]
_CASES += [("abstain", "indices", None), ("abstain", "indices", 0), ("abstain", "indices", 1)]


@st.composite
def _mutations(draw):
    case = draw(st.sampled_from(_CASES))
    if case[1] == "rows":
        return case, draw(st.integers(0, 11))
    return case, draw(st.sampled_from(_FIELD_VALUES if case[0] == "abstain" else _CELL_VALUES))


def _runs(name, data, files):
    """Every command that reads the mutated file ``name``, as argv lists; ``data`` is the CSV input."""
    out = files["out"]
    if name == "results":
        return [["compare", "--input", data, "--output", out], ["compare", "--input", data, "--budget", "0.1"]]
    if name in ("score", "z"):
        kinds = ("platt",) if name == "score" else CALIBRATOR_KINDS[1:]
        return [["calibrate", "--input", data, "--kind", kind, "--output", out] for kind in CALIBRATOR_KINDS] + [
            ["apply-calibrator", "--input", data, "--calibrator", files[kind], "--output", out] for kind in kinds]
    runs = [["evaluate", "--input", data, "--metric", metric, "--abstain-file", files["abstain"]]
            for metric in _METRIC_LAYOUT]
    if name != "abstain":
        runs += [["abstain", "--input", data, "--method", method, "--metric", metric, "--budget", "0.2",
                  "--mc-samples", "4", "--output", out] for method in METHODS for metric in _METRIC_LAYOUT]
        runs.append(["abstain", "--input", data, "--method", "psychic", "--budget", "0.2", "--output", out])
        runs.append(["adapt", "--input", data, "--train-priors", "0.5,0.5" if name == "prob" else "0.4,0.3,0.3",
                     "--output", out])
    return runs


def _written_values(command, out, stdout):
    """The values a successful run wrote: its labels and probabilities, or the numbers of its JSON."""
    if command in ("adapt", "apply-calibrator"):
        # read by the package's reader: an id past the csv field limit is kept and written back
        _, labels, probs = read_predictions(out)
        return [*([] if labels is None else labels.tolist()), *probs.ravel().tolist()]
    if command == "evaluate" or (command == "compare" and not stdout.startswith("wrote ")):
        payload = json.loads(stdout)
    else:
        with open(out) as fh:
            payload = json.load(fh)
    if command == "evaluate":
        return [payload["value"]]
    if command == "compare":
        return [p for row in payload["p_values"] for p in row]
    return [payload["estimated_metric"]] if command == "abstain" else [payload["scale"], *payload["offset"]]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_mutations())
@example((("score", 1, 2), "-99999999999999999999"))  # a Platt sigmoid whose exp overflows
@example((("prob", "column", 1), ""))  # an unlabeled file, which fumera cannot search
@example((("score", "rows", None), 9))  # too few rows to fit a calibrator
@example((("results", 3, 3), "x"))
# a byte that is not UTF-8, and a cell past the csv field limit (a header cell where the body reader takes it)
@example((("prob", 6, 0), _NOT_UTF8))
@example((("prob", 5000, 0), _NOT_UTF8))
@example((("prob", 0, 2), _LONG))
@example((("score", 6, 0), _NOT_UTF8))
@example((("z", 0, 3), _LONG))
@example((("results", 6, 1), _NOT_UTF8))
@example((("results", 6, 1), _LONG))
@example((("abstain", "indices", 0), _NOT_UTF8))
@example((("abstain", "indices", 0), _LONG))
def test_a_bad_input_cell_is_one_named_error_or_a_clean_run(mutation):
    (name, where, column), value = mutation
    abstain = {"indices": [0, 3]}
    tables = {"prob": _TABLES["prob"], "p": _TABLES["p"]} if name == "abstain" else {name: copy.deepcopy(_TABLES[name])}
    # the field or cells that change: `indices` itself or one entry, else a cell of row `where` or of every data row
    targets, key = [], column
    if name == "abstain" and column is None:
        targets, key = [abstain], where
    elif name == "abstain":
        targets = [abstain[where]]
    elif where == "rows":
        del tables[name][value + 1:]
    else:
        table = tables[name]
        if isinstance(where, int):
            table += [[str(i), *table[1 + i % (len(table) - 1)][1:]] for i in range(len(table) - 1, where)]
        targets = table[1:] if where == "column" else [table[where]]
    for target in targets:
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        files = {key: os.path.join(tmp, key) for key in ("abstain", "out", *_CALIBRATORS)}
        for key, payload in [("abstain", abstain), *_CALIBRATORS.items()]:
            _write_text(files[key], json.dumps(payload, ensure_ascii=False))
        runs = []
        for table_name, table in tables.items():
            data = os.path.join(tmp, f"{table_name}.csv")
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows(table)
            _write_text(data, text.getvalue())
            runs += _runs(name, data, files)
        for argv in runs:
            if os.path.exists(files["out"]):
                os.remove(files["out"])
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue()
            if code == 0:
                values = _written_values(argv[0], files["out"], stdout.getvalue())
                assert "nan" not in [str(v).lower() for v in values], (argv, values)
                continue
            assert code == 1 and not os.path.exists(files["out"]) and not stdout.getvalue(), argv
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
            error = err.split(":")[1].strip()
            assert issubclass(getattr(errors, error, type(None)), errors.AbstainkitError), (argv, err)
            if value is _NOT_UTF8 and error == "SchemaError":  # the file was read: the decode error names its type
                assert ": UnicodeDecodeError: " in err, (argv, err)
