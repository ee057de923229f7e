"""End-to-end CLI flows: every subcommand plus error exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from abstainkit.cli import main
from abstainkit.files import read_predictions, write_predictions
from abstainkit.stats import compare_methods


def test_simulate_then_abstain_then_evaluate(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "positive_prior": 0.1, "mu_pos": 2.0, "mu_neg": -1.0,
        "sigma_pos": 1.0, "sigma_neg": 2.0, "n": 800, "seed": 0,
    }))
    data = tmp_path / "data.csv"
    assert main(["simulate", "--config", str(config), "--output", str(data)]) == 0

    abstain_out = tmp_path / "abstain.json"
    code = main([
        "abstain", "--input", str(data), "--method", "sens_window",
        "--metric", "sens_at_spec", "--target-specificity", "0.9",
        "--budget", "0.3", "--mc-samples", "20", "--seed", "0",
        "--output", str(abstain_out),
    ])
    assert code == 0
    payload = json.loads(abstain_out.read_text())
    assert payload["abstained"] == 240
    assert len(payload["indices"]) == 240

    capsys.readouterr()
    code = main([
        "evaluate", "--input", str(data), "--metric", "sens_at_spec",
        "--target-specificity", "0.9", "--abstain-file", str(abstain_out),
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["n"] == 560
    assert 0.0 <= result["value"] <= 1.0

    # abstention should not hurt the estimated metric on this easy setup
    capsys.readouterr()
    main(["evaluate", "--input", str(data), "--metric", "sens_at_spec",
          "--target-specificity", "0.9"])
    baseline = json.loads(capsys.readouterr().out)
    assert result["value"] >= baseline["value"]


def test_multiclass_simulate_and_kappa_abstain(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "priors": [0.4, 0.3, 0.2, 0.1], "means": [-8, -3, 3, 4],
        "sigmas": [4, 3, 3, 2], "n": 600, "seed": 1,
    }))
    data = tmp_path / "mc.csv"
    assert main(["simulate", "--config", str(config), "--output", str(data)]) == 0
    capsys.readouterr()
    code = main([
        "abstain", "--input", str(data), "--method", "kappa_marginal_det",
        "--metric", "weighted_kappa", "--budget", "0.2",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["abstained"] == 120


def test_calibrate_apply_adapt_flow(tmp_path, capsys):
    rng = np.random.default_rng(3)
    scores = rng.normal(0, 2, 2000)
    labels = (rng.random(2000) < 1 / (1 + np.exp(-scores))).astype(int)
    raw = tmp_path / "raw.csv"
    with open(raw, "w") as fh:
        fh.write("id,label,score\n")
        for i, (s, y) in enumerate(zip(scores, labels)):
            fh.write(f"{i},{y},{float(s)!r}\n")
    cal_path = tmp_path / "cal.json"
    assert main(["calibrate", "--input", str(raw), "--kind", "platt", "--output", str(cal_path)]) == 0
    saved = json.loads(cal_path.read_text())
    assert set(saved) == {"kind", "scale", "offset"}

    calibrated = tmp_path / "calibrated.csv"
    assert main(["apply-calibrator", "--input", str(raw), "--calibrator", str(cal_path),
                 "--output", str(calibrated)]) == 0

    capsys.readouterr()
    adapted = tmp_path / "adapted.csv"
    code = main(["adapt", "--input", str(calibrated), "--train-priors", "0.5,0.5",
                 "--output", str(adapted)])
    assert code == 0
    out = capsys.readouterr().out
    info = json.loads(out.splitlines()[0])
    assert info["converged"]
    assert abs(sum(info["test_priors"]) - 1.0) < 1e-9


def test_experiment_and_compare(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "task": "figure1",
        "methods": ["sens_window", "js_divergence", "max_class_prob"],
        "budgets": [0.3],
        "seeds": list(range(6)),
        "metric": {"name": "sens_at_spec", "target_specificity": 0.9},
        "mc_samples": 20,
        "sim": {"n": 400},
        "output": str(tmp_path / "exp"),
    }))
    assert main(["experiment", "--spec", str(spec)]) == 0
    results = tmp_path / "exp" / "results.csv"
    capsys.readouterr()
    code = main(["compare", "--input", str(results), "--column", "post"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["methods"]) == 3
    assert len(payload["p_values"]) == 3


def test_errors_exit_nonzero(tmp_path, capsys):
    code = main(["abstain", "--input", str(tmp_path / "missing.csv"),
                 "--method", "sens_window", "--budget", "0.3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InputNotFound:")

    data = tmp_path / "data.csv"
    write_predictions(data, np.linspace(0.01, 0.99, 20), np.ones(20, dtype=int))
    code = main(["evaluate", "--input", str(data), "--metric", "auroc"])
    assert code == 1
    assert "NoNegatives" in capsys.readouterr().err


def _single_error_line(capsys, error_type):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {error_type}:"), err


@pytest.mark.parametrize("metric", ["auroc", "sens_at_spec"])
def test_evaluate_rejects_binary_metric_on_multiclass(tmp_path, capsys, metric):
    rng = np.random.default_rng(4)
    probs = rng.dirichlet(np.ones(3), 40)
    labels = (probs[:, 2] > 0.3).astype(int)
    data = tmp_path / "three.csv"
    write_predictions(data, probs, labels)
    assert main(["evaluate", "--input", str(data), "--metric", metric]) == 1
    _single_error_line(capsys, "SchemaError")

    # a 2-column matrix is binary and scores like the positive-class vector
    binary, matrix = tmp_path / "binary.csv", tmp_path / "two.csv"
    write_predictions(binary, probs[:, 1], labels)
    write_predictions(matrix, np.column_stack([1.0 - probs[:, 1], probs[:, 1]]), labels)
    values = []
    for path in (binary, matrix):
        assert main(["evaluate", "--input", str(path), "--metric", metric]) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    assert values[0] == values[1]


def test_evaluate_kappa_rejects_binary_vector(tmp_path, capsys):
    data = tmp_path / "binary.csv"
    write_predictions(data, np.linspace(0.05, 0.95, 10), np.arange(10) % 2)
    assert main(["evaluate", "--input", str(data), "--metric", "weighted_kappa"]) == 1
    _single_error_line(capsys, "SchemaError")


def test_evaluate_names_an_unlabeled_file(tmp_path, capsys):
    data = tmp_path / "bare.csv"
    write_predictions(data, np.array([0.2, 0.7]))
    assert main(["evaluate", "--input", str(data), "--metric", "auroc"]) == 1
    assert capsys.readouterr().err == f"error: SchemaError: {data}: evaluate needs labeled predictions\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--input", "missing.csv"],
        ["experiment", "--spec", "missing.json"],
        ["apply-calibrator", "--input", "raw.csv", "--calibrator", "missing.json", "--output", "out.csv"],
    ],
    ids=["compare", "experiment", "apply_calibrator"],
)
def test_missing_input_is_named(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.csv").write_text("id,label,score\n0,1,0.5\n")
    assert main(argv) == 1
    _single_error_line(capsys, "InputNotFound")


# one valid JSON object per input, and the field each "missing" case drops
_BINARY_SIM = {"positive_prior": 0.1, "mu_pos": 2.0, "mu_neg": -1.0, "sigma_pos": 1.0, "sigma_neg": 2.0,
               "n": 40, "seed": 0}
_MULTICLASS_SIM = {"priors": [0.5, 0.5], "means": [-1.0, 1.0], "sigmas": [1.0, 1.0], "n": 40, "seed": 0}
_JSON_INPUTS = {
    "simulate_binary": (_BINARY_SIM, "seed"),
    "simulate_multiclass": (_MULTICLASS_SIM, "means"),
    "apply_calibrator": ({"kind": "platt", "scale": 1.0, "offset": [0.0]}, "scale"),
    "evaluate": ({"indices": [0, 1]}, "indices"),
    "experiment": ({"task": "figure1", "methods": ["entropy"], "budgets": [0.1], "seeds": [0],
                    "metric": {"name": "auroc"}, "sim": {"n": 200}}, "task"),
}
# "deep": nested past the JSON parser's recursion limit
_JSON_CASES = [(name, case) for name in _JSON_INPUTS for case in ("valid", "not_json", "list", "missing", "deep")]
_JSON_CASES += [(name, case) for name in ("simulate_binary", "simulate_multiclass") for case in ("unknown_key", "n_float")]
_JSON_CASES += [("simulate_binary", "no_prior"), ("simulate_binary", "seed_negative")]
_JSON_CASES += [("experiment", "seed_float"), ("experiment", "mc_float")]
_JSON_CASES += [("experiment", case) for case in ("unknown_key", "method_key", "sim_key", "text_budget")]
_JSON_CASES += [("apply_calibrator", "text_scale"), ("apply_calibrator", "unknown_key")]
# spec values checked where the spec is built, before anything is simulated or written
_JSON_CASES += [("experiment", case) for case in (
    "smooth_text", "output_number", "input_number", "method_param_key", "metric_key", "grid_text",
    "params_not_fumera", "sim_text_prior", "sim_text_abstain_count", "sim_text_repeats", "grid_one", "seeds_negative",
)]
# a number field holding text, null, a list or a non-finite value, and a platt calibrator without its offset
_JSON_CASES += [("simulate_binary", case) for case in ("mu_text", "mu_null", "mu_nan", "mu_list")]
_JSON_CASES += [("simulate_multiclass", "means_infinity"), ("experiment", "sim_infinite_sigma"),
                ("apply_calibrator", "number_text_scale"), ("apply_calibrator", "no_offset")]
# an unknown metric, sens_at_spec without its target, a custom task on unlabeled predictions, and an
# integer past Python's digit limit
_JSON_CASES += [("experiment", case) for case in ("metric_bogus", "metric_no_target", "custom_unlabeled")]
_JSON_CASES += [("evaluate", "huge_int")]
_INVALID_CONFIG = ("n_float", "seed_float", "mc_float", "grid_text", "sim_text_abstain_count", "sim_text_repeats",
                   "grid_one", "seed_negative", "seeds_negative", "mu_nan", "means_infinity", "sim_infinite_sigma",
                   "metric_bogus", "metric_no_target")


@pytest.mark.parametrize("name, case", _JSON_CASES, ids=[f"{name}-{case}" for name, case in _JSON_CASES])
def test_malformed_json_input_is_one_named_error(tmp_path, capsys, name, case):
    payload, required = _JSON_INPUTS[name]
    text = {
        "valid": json.dumps(payload),
        "not_json": "{not json",
        "deep": "[" * 100_000,
        "list": json.dumps([payload]),
        "missing": json.dumps({k: v for k, v in payload.items() if k != required}),
        "unknown_key": json.dumps({**payload, "bogus": 1}),
        "n_float": json.dumps({**payload, "n": 10.5}),
        "no_prior": json.dumps({k: v for k, v in payload.items() if k != "positive_prior"}),
        "seed_float": json.dumps({**payload, "seeds": [1.5]}),
        "mc_float": json.dumps({**payload, "mc_samples": 10.5}),
        "method_key": json.dumps({("method" if k == "methods" else k): v for k, v in payload.items()}),
        "sim_key": json.dumps({**payload, "sim": {"bogus": 3}}),
        "text_budget": json.dumps({**payload, "budgets": ["a"]}),
        "text_scale": json.dumps({**payload, "scale": "abc"}),
        "smooth_text": json.dumps({**payload, "smooth": "false"}),
        "output_number": json.dumps({**payload, "output": 5}),
        "input_number": json.dumps({**payload, "input": 7}),
        "method_param_key": json.dumps({**payload, "methods": [{"name": "fumera", "parms": {"grid": 5}}]}),
        "metric_key": json.dumps({**payload, "metric": {"name": "auroc", "target_specifity": 0.9}}),
        "grid_text": json.dumps({**payload, "methods": [{"name": "fumera", "params": {"grid": "abc"}}]}),
        "grid_one": json.dumps({**payload, "methods": ["entropy", {"name": "fumera", "params": {"grid": 1}}]}),
        "seed_negative": json.dumps({**payload, "seed": -1}),
        "seeds_negative": json.dumps({**payload, "seeds": [-1]}),
        "params_not_fumera": json.dumps({**payload, "methods": [{"name": "entropy", "params": {"grid": 5}}]}),
        "sim_text_prior": json.dumps({**payload, "sim": {"positive_prior": "0.1"}}),
        "sim_text_abstain_count": json.dumps({**payload, "task": "auroc_correlation", "sim": {"abstain_count": "x"}}),
        "sim_text_repeats": json.dumps({**payload, "task": "kappa_convergence", "sim": {"repeats": "x"}}),
        "mu_text": json.dumps({**payload, "mu_pos": "1"}),
        "mu_null": json.dumps({**payload, "mu_pos": None}),
        "mu_nan": json.dumps({**payload, "mu_pos": float("nan")}),
        "mu_list": json.dumps({**payload, "mu_pos": [1.0]}),
        "means_infinity": json.dumps({**payload, "means": [float("-inf"), 1.0]}),
        "sim_infinite_sigma": json.dumps({**payload, "sim": {"sigma_pos": float("inf")}}),
        "number_text_scale": json.dumps({**payload, "scale": "2.0"}),
        "no_offset": json.dumps({**payload, "offset": []}),
        "metric_bogus": json.dumps({**payload, "metric": {"name": "bogus"}}),
        "metric_no_target": json.dumps({**payload, "metric": {"name": "sens_at_spec"}}),
        "custom_unlabeled": json.dumps({**payload, "task": "custom", "sim": {}, "input": str(tmp_path / "bare.csv")}),
        "huge_int": '{"indices": [' + "9" * 5000 + "]}",
    }[case]
    path = tmp_path / "input.json"
    path.write_text(text)
    data, raw, out = tmp_path / "data.csv", tmp_path / "raw.csv", tmp_path / "out"
    write_predictions(data, np.array([0.1, 0.8, 0.3, 0.9]), np.array([0, 1, 0, 1]))
    write_predictions(tmp_path / "bare.csv", np.array([0.1, 0.8, 0.3, 0.9]))
    raw.write_text("id,label,score\n0,1,0.5\n1,0,-0.2\n")
    argv = {
        "simulate_binary": ["simulate", "--config", str(path), "--output", str(out)],
        "simulate_multiclass": ["simulate", "--config", str(path), "--output", str(out)],
        "apply_calibrator": ["apply-calibrator", "--input", str(raw), "--calibrator", str(path), "--output", str(out)],
        "evaluate": ["evaluate", "--input", str(data), "--metric", "auroc", "--abstain-file", str(path)],
        "experiment": ["experiment", "--spec", str(path), "--output", str(out)],
    }[name]
    code = main(argv)
    if case == "valid":
        assert code == 0, capsys.readouterr().err
        return
    assert code == 1
    out_text, err = capsys.readouterr()
    assert out_text == "" and not out.exists()
    error_type = "InvalidConfig" if case in _INVALID_CONFIG else "SchemaError"
    assert err.count("\n") == 1 and err.startswith(f"error: {error_type}:"), err
    if case == "no_prior":
        assert "positive_prior" in err, err
    if error_type == "SchemaError":
        named = tmp_path / "bare.csv" if case == "custom_unlabeled" else path
        assert err.startswith(f"error: SchemaError: {named}: "), err


@pytest.mark.parametrize("indices", [[1, 1, 99], [1, 1], [99], [-1], [1.5], [True], "0"],
                         ids=["repro", "repeat", "past_end", "negative", "float", "bool", "not_a_list"])
def test_abstain_file_indices_must_be_distinct_rows(tmp_path, capsys, indices):
    data, abstained = tmp_path / "data.csv", tmp_path / "abstain.json"
    write_predictions(data, np.array([0.1, 0.8, 0.3, 0.9]), np.array([0, 1, 0, 1]))
    abstained.write_text(json.dumps({"indices": indices}))
    assert main(["evaluate", "--input", str(data), "--metric", "auroc", "--abstain-file", str(abstained)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: SchemaError: {abstained}: indices must be distinct integers in [0, 4)\n"


@pytest.mark.parametrize(
    "argv, error_type",
    [
        (["--method", "bogus", "--budget", "0.3"], "InvalidConfig"),
        (["--method", "sens_window", "--budget", "1.5"], "BudgetTooLarge"),
        (["--method", "sens_window", "--budget", "0.3", "--mc-samples", "0"], "InvalidConfig"),
        (["--method", "sens_window", "--budget", "0.3", "--seed", "-1"], "InvalidConfig"),
        (["--method", "sens_window", "--budget", "0.3", "--target-specificity", "1.5"], "InvalidSpecificity"),
        (["--method", "js_divergence", "--budget", "0.3", "--priors", "0.5,abc"], "InvalidConfig"),
        (["--method", "js_divergence", "--budget", "0.3", "--priors", "0.5,0.6"], "InvalidConfig"),
        (["--method", "js_divergence", "--budget", "0.3", "--priors", "0.5,nan"], "InvalidConfig"),
    ],
    ids=["method", "budget", "mc_samples", "seed", "target_specificity", "priors_text", "priors_sum", "priors_nan"],
)
def test_abstain_checks_arguments_before_reading(tmp_path, capsys, argv, error_type):
    assert main(["abstain", "--input", str(tmp_path / "missing.csv"), *argv]) == 1
    _single_error_line(capsys, error_type)


def test_a_sample_count_past_numpy_sizes_names_the_field_before_reading(tmp_path, capsys):
    huge = sys.maxsize + 1
    argv = ["abstain", "--input", str(tmp_path / "missing.csv"), "--method", "sens_window", "--budget", "0.3",
            "--mc-samples", str(huge)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: InvalidConfig: samples must be <= {sys.maxsize}, got {huge}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["abstain", "--method", "js_divergence", "--budget", "0.3", "--priors", "0.5,abc"],
         "--priors: could not convert string to float: 'abc'"),
        (["adapt", "--train-priors", "0.5,0.6", "--output", "out.csv"],
         "--train-priors: priors must be nonnegative and sum to 1 within 1e-9"),
    ],
    ids=["abstain", "adapt"],
)
def test_priors_errors_name_the_flag_before_reading(tmp_path, capsys, argv, message):
    assert main([argv[0], "--input", str(tmp_path / "missing.csv"), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: InvalidConfig: {message}\n"


@pytest.mark.parametrize("flags", [["--max-iter", "0"], ["--max-iter", "-3"], ["--tol", "-1"], ["--tol", "nan"],
                                   ["--tol", "inf"], ["--tol", "0"]],
                         ids=["max_iter_zero", "max_iter_negative", "tol_negative", "tol_nan", "tol_inf", "tol_zero"])
def test_adapt_checks_flags_before_reading(tmp_path, capsys, flags):
    argv = ["adapt", "--input", str(tmp_path / "missing.csv"), "--train-priors", "0.5,0.5", "--output", "out.csv"]
    assert main([*argv, *flags]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: InvalidConfig: {flags[0]} must be "), err


def test_priors_must_match_the_class_count(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_predictions(data, np.array([0.1, 0.8, 0.3, 0.9]), np.array([0, 1, 0, 1]))
    argv = ["abstain", "--input", str(data), "--method", "js_divergence", "--budget", "0.5", "--priors", "0.2,0.3,0.5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: DimensionMismatch: 3 priors for 2 classes\n"


@pytest.mark.parametrize(
    "drop, column",
    [("budget", "post"), ("seed", "post"), ("method", "post"), (None, "bogus")],
    ids=["budget", "seed", "method", "column"],
)
def test_compare_names_a_missing_column(tmp_path, capsys, drop, column):
    results = tmp_path / "results.csv"
    _write_results(results, [(seed, method, 0, 0.5 + 0.01 * seed) for seed in range(6) for method in "ab"])
    if drop is not None:
        rows = [line.split(",") for line in results.read_text().splitlines()]
        keep = [i for i, name in enumerate(rows[0]) if name != drop]
        results.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in rows))
    assert main(["compare", "--input", str(results), "--column", column]) == 1
    err = capsys.readouterr().err
    assert err == f"error: SchemaError: {results}: missing columns {drop or column}\n"


@pytest.mark.parametrize("command", ["calibrate", "apply-calibrator"])
@pytest.mark.parametrize(
    "content, error_type",
    [
        ("", "SchemaError"),
        ("id,label,score\n", "SchemaError"),
        ("identifier,label,score\n0,1,0.5\n", "SchemaError"),
        ("id,label,score,extra\n0,1,0.5,0.1\n", "SchemaError"),
        ("id,label,z_0,z_1\n0,1,0.5\n", "SchemaError"),
        ("id,label,score\n0,1,0.5\n1,,0.2\n", "SchemaError"),
        ("id,label,score\n0,1,0.5\n1,0,inf\n", "SchemaError"),
        ("id,label,score\n0,1,-inf\n1,0,0.2\n", "SchemaError"),
        ("id,label,z_0,z_1\n0,1,0.5,nan\n1,0,0.2,0.1\n", "SchemaError"),
        (None, "InputNotFound"),
    ],
    ids=[
        "empty", "header_only", "bad_header", "bad_value_columns", "ragged_row", "partial_labels",
        "inf", "minus_inf", "nan", "missing",
    ],
)
def test_raw_score_errors_are_named(tmp_path, capsys, command, content, error_type):
    raw = tmp_path / "raw.csv"
    if content is not None:
        raw.write_text(content)
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps({"kind": "platt", "scale": 1.0, "offset": [0.0]}))
    extra = ["--kind", "platt"] if command == "calibrate" else ["--calibrator", str(cal)]
    code = main([command, "--input", str(raw), *extra, "--output", str(tmp_path / "out")])
    assert code == 1
    _single_error_line(capsys, error_type)


def test_non_finite_logit_is_named_before_the_fit(tmp_path, capsys):
    # an `inf` logit used to yield RuntimeWarnings and the identity calibrator
    rng = np.random.default_rng(8)
    logits = rng.normal(0, 2, (40, 2))
    logits[7, 1] = np.inf
    raw = tmp_path / "raw.csv"
    raw.write_text("id,label,z_0,z_1\n" + "".join(
        f"{i},{i % 2},{a!r},{b!r}\n" for i, (a, b) in enumerate(logits.tolist())
    ))
    cal = tmp_path / "cal.json"
    assert main(["calibrate", "--input", str(raw), "--kind", "temperature", "--output", str(cal)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: SchemaError: {raw}: value cell is not finite\n"
    assert not cal.exists()


@pytest.mark.parametrize("calibrator, header", [
    ('{"kind": "platt", "scale": NaN, "offset": [0.0]}', "score"),
    ('{"kind": "temperature", "scale": Infinity, "offset": [0.0, 0.0]}', "z_0,z_1"),
], ids=["platt_nan", "temperature_infinity"])
def test_non_finite_calibrator_scale_is_named(tmp_path, capsys, calibrator, header):
    # both used to exit 0 and write a file of nan probabilities
    raw, cal, out = tmp_path / "raw.csv", tmp_path / "cal.json", tmp_path / "out.csv"
    cells = ",".join(["0.5"] * len(header.split(",")))
    raw.write_text(f"id,label,{header}\n" + "".join(f"{i},{i % 2},{cells}\n" for i in range(4)))
    cal.write_text(calibrator)
    assert main(["apply-calibrator", "--input", str(raw), "--calibrator", str(cal), "--output", str(out)]) == 1
    _single_error_line(capsys, "InvalidConfig")
    assert not out.exists()


def test_ids_survive_apply_calibrator_and_adapt(tmp_path):
    rng = np.random.default_rng(9)
    logits = rng.normal(0, 2, (30, 3))
    ids = [f"pt-{1000 + 7 * i}" for i in range(30)]
    raw = tmp_path / "raw.csv"
    raw.write_text("id,label,z_0,z_1,z_2\n" + "".join(
        f"{row_id},{i % 3},{a!r},{b!r},{c!r}\n" for i, (row_id, (a, b, c)) in enumerate(zip(ids, logits.tolist()))
    ))
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps({"kind": "temperature", "scale": 0.5, "offset": [0.0, 0.0, 0.0]}))
    calibrated, adapted = tmp_path / "calibrated.csv", tmp_path / "adapted.csv"
    assert main(["apply-calibrator", "--input", str(raw), "--calibrator", str(cal), "--output", str(calibrated)]) == 0
    assert main(["adapt", "--input", str(calibrated), "--train-priors", "0.4,0.3,0.3", "--output", str(adapted)]) == 0
    for path in (calibrated, adapted):
        got_ids, labels, _ = read_predictions(path)
        assert got_ids == ids
        np.testing.assert_array_equal(labels, np.arange(30) % 3)


def test_adapt_stops_on_unconverged_em(tmp_path, capsys):
    rng = np.random.default_rng(10)
    probs = rng.uniform(0, 1, 200)
    data, out = tmp_path / "preds.csv", tmp_path / "adapted.csv"
    write_predictions(data, probs, (rng.random(200) < probs).astype(int))
    argv = ["adapt", "--input", str(data), "--train-priors", "0.9,0.1", "--output", str(out)]
    assert main([*argv, "--max-iter", "1"]) == 1
    _single_error_line(capsys, "DidNotConverge")
    assert not out.exists()
    assert main(argv) == 0


def test_abstain_reads_vector_and_two_column_files_alike(tmp_path, capsys):
    rng = np.random.default_rng(11)
    probs = rng.uniform(0, 1, 200)
    labels = (rng.random(200) < probs).astype(int)
    vector, matrix = tmp_path / "vector.csv", tmp_path / "matrix.csv"
    write_predictions(vector, probs, labels)
    write_predictions(matrix, np.column_stack([1.0 - probs, probs]), labels)
    methods = ("sens_window", "auroc_window_det", "auroc_window_mc", "js_divergence", "max_class_prob", "entropy", "fumera")
    for method in methods:
        payloads = []
        for path in (vector, matrix):
            code = main(["abstain", "--input", str(path), "--method", method, "--budget", "0.2", "--mc-samples", "10"])
            assert code == 0, (method, capsys.readouterr().err)
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1], method


@pytest.mark.parametrize(
    "method, metric, probs",
    [
        ("kappa_marginal_det", "weighted_kappa", np.linspace(0.05, 0.95, 20)),
        ("kappa_marginal_mc", "weighted_kappa", np.linspace(0.05, 0.95, 20)),
        ("fumera", "weighted_kappa", np.linspace(0.05, 0.95, 20)),
        ("sens_window", "sens_at_spec", np.full((20, 3), 1.0 / 3.0)),
        ("auroc_window_det", "auroc", np.full((20, 3), 1.0 / 3.0)),
        ("auroc_window_mc", "auroc", np.full((20, 3), 1.0 / 3.0)),
    ],
    ids=["kappa_det_vector", "kappa_mc_vector", "fumera_kappa_vector", "sens_window_3", "auroc_det_3", "auroc_mc_3"],
)
def test_abstain_rejects_a_layout_the_method_cannot_read(tmp_path, capsys, method, metric, probs):
    data = tmp_path / "preds.csv"
    write_predictions(data, probs, np.arange(20) % 2)
    code = main(["abstain", "--input", str(data), "--method", method, "--metric", metric, "--budget", "0.2"])
    assert code == 1
    _single_error_line(capsys, "SchemaError")


@pytest.mark.parametrize("bad_row", ["2,2,0.1,0.1,nan", "2,2,0.9,0.9,0.9"], ids=["nan_cell", "row_sum"])
def test_evaluate_kappa_rejects_invalid_probability_rows(tmp_path, capsys, bad_row):
    data = tmp_path / "three.csv"
    data.write_text(f"id,label,p_0,p_1,p_2\n0,0,0.8,0.1,0.1\n1,1,0.1,0.8,0.1\n{bad_row}\n3,0,0.7,0.2,0.1\n")
    assert main(["evaluate", "--input", str(data), "--metric", "weighted_kappa"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: SchemaError: {data}: row 3: probabilities "), err


def _write_spec(path, methods, budgets):
    path.write_text(json.dumps({
        "task": "figure1", "methods": methods, "budgets": budgets, "seeds": [0],
        "metric": {"name": "auroc"}, "sim": {"n": 200}, "output": str(path.parent / "exp"),
    }))


def test_sens_window_needs_a_target_specificity(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    _write_spec(spec, ["entropy", "sens_window"], [0.3])
    assert main(["experiment", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err == "error: InvalidConfig: sens_window needs a metric with a target_specificity\n"
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "argv", [["abstain", "--method", "entropy", "--budget", "0.2"], ["evaluate", "--metric", "auroc"]],
    ids=["abstain_entropy", "evaluate"],
)
def test_probability_outside_unit_interval_is_named(tmp_path, capsys, argv):
    data = tmp_path / "data.csv"
    data.write_text("id,label,prob\n0,0,0.1\n1,1,0.8\n2,1,1.5\n3,0,0.3\n4,1,0.9\n")
    assert main([argv[0], "--input", str(data), *argv[1:]]) == 1
    err = capsys.readouterr().err
    want = f"error: SchemaError: {data}: row 3: probabilities must be finite and lie in [0, 1], got [1.5]\n"
    assert err == want


def test_row_sum_is_named_as_a_plain_number(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("id,label,p_0,p_1\n0,0,0.5,0.5\n1,1,0.5,0.6\n2,1,0.2,0.8\n")
    assert main(["evaluate", "--input", str(data), "--metric", "weighted_kappa"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: SchemaError: {data}: row 2: probabilities sum to 1.1; a row must sum to 1 within 1e-9\n"


def test_unknown_method_is_rejected_at_zero_budget(tmp_path, capsys):
    data = tmp_path / "preds.csv"
    write_predictions(data, np.linspace(0.05, 0.95, 20), np.arange(20) % 2)
    for budget in ("0.0", "0.04"):  # floor(budget * 20) = 0 abstains on nothing
        assert main(["abstain", "--input", str(data), "--method", "bogus", "--budget", budget]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: InvalidConfig: unknown method 'bogus'"), err
        assert "sens_window" in err and "fumera" in err
    spec = tmp_path / "spec.json"
    _write_spec(spec, ["bogus"], [0.0])
    assert main(["experiment", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith("error: InvalidConfig: unknown method 'bogus'"), err
    assert not (tmp_path / "exp" / "results.csv").exists()


@pytest.mark.parametrize("budget", ["1.5", "-0.1"])
def test_budget_outside_unit_interval_is_named(tmp_path, capsys, budget):
    data = tmp_path / "preds.csv"
    write_predictions(data, np.linspace(0.05, 0.95, 20), np.arange(20) % 2)
    assert main(["abstain", "--input", str(data), "--method", "entropy", "--budget", budget]) == 1
    _single_error_line(capsys, "BudgetTooLarge")
    spec = tmp_path / "spec.json"
    _write_spec(spec, ["entropy"], [float(budget)])
    assert main(["experiment", "--spec", str(spec)]) == 1
    _single_error_line(capsys, "BudgetTooLarge")
    assert not (tmp_path / "exp" / "results.csv").exists()


def test_window_with_no_valid_sample_is_named(tmp_path, capsys):
    # 3 rows survive a 57-row window, and 3 samples leave some window's complement without a class
    data, out = tmp_path / "preds.csv", tmp_path / "abstain.json"
    probs = np.linspace(0.01, 0.99, 60)
    write_predictions(data, probs, (probs > 0.5).astype(int))
    argv = ["abstain", "--input", str(data), "--method", "sens_window", "--budget", "0.95", "--mc-samples", "3"]
    assert main([*argv, "--output", str(out)]) == 1
    _single_error_line(capsys, "DegenerateExpectedCounts")
    assert not out.exists()


@pytest.mark.parametrize("method", ["sens_window", "auroc_window_mc"])
def test_unsmoothed_window_scores_with_no_valid_window_are_named(tmp_path, capsys, method):
    # every sample of all-zero probabilities is all negative, so no window keeps both classes
    data, out = tmp_path / "preds.csv", tmp_path / "abstain.json"
    write_predictions(data, np.zeros(50))
    argv = ["abstain", "--input", str(data), "--method", method, "--budget", "0.2", "--no-smooth",
            "--mc-samples", "5", "--output", str(out)]
    assert main(argv) == 1
    _single_error_line(capsys, "DegenerateExpectedCounts")
    assert not out.exists()


def test_kappa_on_too_few_rows_is_named(tmp_path, capsys):
    data, kept_one = tmp_path / "preds.csv", tmp_path / "abstain.json"
    write_predictions(data, np.array([[0.3, 0.7], [0.6, 0.4], [0.2, 0.8]]), np.array([0, 1, 1]))
    kept_one.write_text(json.dumps({"indices": [0, 1]}))
    argv = ["evaluate", "--input", str(data), "--metric", "weighted_kappa", "--abstain-file", str(kept_one)]
    assert main(argv) == 1
    _single_error_line(capsys, "DegenerateDenominator")
    # abstaining on one of 2 rows would leave a single row, whose kappa is undefined
    write_predictions(data, np.array([[0.3, 0.7], [0.6, 0.4]]), np.array([0, 1]))
    for method in ("kappa_marginal_det", "kappa_marginal_mc"):
        assert main(["abstain", "--input", str(data), "--method", method, "--metric", "weighted_kappa",
                     "--budget", "0.5"]) == 1
        _single_error_line(capsys, "DegenerateDenominator")


def test_calibrate_needs_labels(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("id,label,score\n0,,0.5\n1,,-0.3\n")
    code = main(["calibrate", "--input", str(raw), "--output", str(tmp_path / "cal.json")])
    assert code == 1
    _single_error_line(capsys, "SchemaError")


def test_calibrate_on_too_few_rows_is_named(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("id,label,score\n0,0,0.5\n1,1,-0.3\n2,0,1.2\n3,1,0.1\n")
    code = main(["calibrate", "--input", str(raw), "--kind", "platt", "--output", str(tmp_path / "cal.json")])
    assert code == 1
    _single_error_line(capsys, "TooFewExamples")
    assert not (tmp_path / "cal.json").exists()


def test_evaluate_rejects_nan_probability(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("id,label,prob\n0,0,0.1\n1,1,nan\n2,0,0.3\n3,1,0.9\n")
    code = main(["evaluate", "--input", str(data), "--metric", "sens_at_spec"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: SchemaError: {data}: row 2: probabilities "), err


@pytest.mark.parametrize(
    "content, kind",
    [("id,label,prob\n0,1.0,0.2\n1,0,0.7\n", "label"), ("id,label,prob\n0,1,\n1,0,0.7\n", "value")],
    ids=["float_label", "empty_value"],
)
def test_unparseable_cell_is_named(tmp_path, capsys, content, kind):
    data = tmp_path / "data.csv"
    data.write_text(content)
    assert main(["evaluate", "--input", str(data), "--metric", "auroc"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: SchemaError: {data}: {kind} cell"), err


def test_label_beyond_int64_is_named_with_its_row(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("id,label,prob\n0,0,0.5\n1,99999999999999999999,0.2\n")
    assert main(["evaluate", "--input", str(data), "--metric", "auroc"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: SchemaError: {data}: label cell is not a 64-bit integer: '99999999999999999999' (row 2)\n"


def _write_results(path, rows):
    header = ["seed", "method", "budget", "metric", "adapted", "base", "post", "abstained", "n"]
    lines = [",".join(header)]
    for seed, method, adapted, post in rows:
        lines.append(f"{seed},{method},0.3,auroc,{adapted},0.5,{post!r},30,100")
    path.write_text("\n".join(lines) + "\n")


def test_compare_pairs_rows_by_seed_budget_and_adapted(tmp_path, capsys):
    # `a` gains from adaptation and `b` loses, so ordering each method's rows
    # by value would pair a's unadapted row with b's adapted row
    rows, a, b = [], [], []
    for seed in range(6):
        for adapted, a_post, b_post in ((0, 0.50, 0.78), (1, 0.80, 0.48)):
            a_post, b_post = a_post + 0.01 * seed, b_post + 0.013 * seed
            rows += [(seed, "a", adapted, a_post), (seed, "b", adapted, b_post)]
            a.append(a_post)
            b.append(b_post)
    results = tmp_path / "results.csv"
    _write_results(results, rows[::-1])
    assert main(["compare", "--input", str(results)]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = compare_methods({"a": np.array(a), "b": np.array(b)})
    assert payload["methods"] == ["a", "b"]
    np.testing.assert_array_equal(payload["p_values"], want.p_values)
    assert payload["significant"] == want.significant.tolist()


@pytest.mark.parametrize(
    "column, cell, what",
    [("seed", "abc", "an integer"), ("seed", "1.5", "an integer"), ("budget", "abc", "a number"),
     ("adapted", "abc", "an integer"), ("post", "abc", "a number"), ("post", "nan", "finite"),
     ("budget", "inf", "finite")],
)
def test_compare_names_a_cell_that_is_not_a_number(tmp_path, capsys, column, cell, what):
    results = tmp_path / "results.csv"
    _write_results(results, [(seed, method, 0, 0.5 + 0.01 * seed) for seed in range(6) for method in "ab"])
    rows = [line.split(",") for line in results.read_text().splitlines()]
    rows[3][rows[0].index(column)] = cell
    results.write_text("".join(",".join(row) + "\n" for row in rows))
    assert main(["compare", "--input", str(results)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: SchemaError: {results}: row 3: {column} cell is not {what}: {cell!r}\n"


def test_compare_rejects_methods_on_different_rows(tmp_path, capsys):
    rows = [(seed, "a", 0, 0.5 + 0.01 * seed) for seed in range(6)]
    rows += [(seed, "b", 0, 0.4 + 0.02 * seed) for seed in range(1, 7)]
    results = tmp_path / "results.csv"
    _write_results(results, rows)
    assert main(["compare", "--input", str(results)]) == 1
    _single_error_line(capsys, "SchemaError")


@pytest.mark.parametrize(
    "rows, problem",
    [([], "no rows"), ([(0, "a", 0, 0.5), (0, "a", 0, 0.6)], "method a repeats (seed, budget, adapted) (0, 0.3, 0)")],
    ids=["header_only", "repeated_key"],
)
def test_compare_names_rows_it_cannot_pair(tmp_path, capsys, rows, problem):
    results = tmp_path / "results.csv"
    _write_results(results, rows)
    assert main(["compare", "--input", str(results)]) == 1
    assert capsys.readouterr().err == f"error: SchemaError: {results}: {problem}\n"


@pytest.mark.parametrize("budget", ["0.5", "nan"])
def test_compare_names_a_budget_no_row_has(tmp_path, capsys, budget):
    results = tmp_path / "results.csv"
    _write_results(results, [(seed, method, 0, 0.5 + 0.01 * seed) for seed in range(6) for method in "ab"])
    assert main(["compare", "--input", str(results), "--budget", budget]) == 1
    err = capsys.readouterr().err
    assert err == f"error: SchemaError: {results}: no row has budget {float(budget)!r}\n"


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "abstainkit.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "compare" in proc.stdout
