"""Command-line entry point.

Subcommands mirror the pipeline stages: `simulate` emits a dataset CSV,
`calibrate` fits and saves a calibrator, `adapt` applies label-shift EM,
`abstain` scores and selects an abstention set, `evaluate` recomputes a
metric on retained examples, `experiment` runs a full grid from a spec JSON,
and `compare` builds a signed-rank p-value matrix from a results CSV.

Exit code is 0 on success; failures print one `error: <Type>: <message>`
line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .calibration import (
    CALIBRATOR_KINDS, Calibrator, PriorEstimate, adapt_label_shift_em, apply_calibrator, fit_calibrator,
)
from .errors import AbstainkitError, DidNotConverge, InvalidConfig, SchemaError, check_counts
from .experiments import (
    _METRIC_LAYOUT,
    ExperimentSpec,
    MethodSpec,
    MetricSpec,
    _check_budget,
    _load_json,
    _open_input,
    _read_value_csv,
    _retained_metric,
    _shaped,
    _write_json,
    abstain_indices,
    read_predictions,
    run_experiment,
    write_predictions,
)
from .scoring import MonteCarloConfig
from .simulate import BinarySimConfig, MulticlassSimConfig, simulate_binary, simulate_multiclass
from .stats import compare_methods


def _parse_priors(text: str, flag: str) -> PriorEstimate:
    """The comma-separated class priors given as ``flag``.

    A cell that is not a number, or priors that are not a distribution, is
    InvalidConfig naming the flag.
    """
    try:
        return PriorEstimate(np.array([float(v) for v in text.split(",")]))
    except ValueError as exc:
        raise InvalidConfig(f"{flag}: {exc}") from None


def _metric_spec(args) -> MetricSpec:
    return MetricSpec(name=args.metric, target_specificity=args.target_specificity)


def _emit(payload, output, indent=None) -> None:
    """Write a JSON payload to ``output``, or print it on one line when there is none."""
    if output:
        _write_json(output, payload, indent)
        print(f"wrote {output}")
    else:
        print(json.dumps(payload))


def _sim_config(payload):
    """A config JSON object: multiclass when it has `priors`, binary otherwise."""
    if "priors" in payload:
        return MulticlassSimConfig(**payload)
    return BinarySimConfig(**payload)


def _cmd_simulate(args) -> int:
    cfg = _load_json(args.config, _sim_config)
    if isinstance(cfg, BinarySimConfig):
        probs, labels, _ = simulate_binary(cfg)
    else:
        probs, labels = simulate_multiclass(cfg)
    write_predictions(args.output, probs, labels)
    print(f"wrote {args.output}")
    return 0


def _read_raw_scores(path):
    """Raw-score CSV: `id,label,score` (binary) or `id,label,z_0..z_{C-1}`.

    Returns ``(ids, labels_or_None, scores)``; every score must be finite.
    """
    ids, labels, scores = _read_value_csv(path, "score", "z")
    if not np.isfinite(scores).all():
        raise SchemaError(f"{path}: value cell is not finite")
    return ids, labels, scores


def _cmd_calibrate(args) -> int:
    # the slice drops the ids at once, so they are not held during the fit
    labels, scores = _read_raw_scores(args.input)[1:]
    if labels is None:
        raise SchemaError(f"{args.input}: calibrate needs labeled raw scores")
    _emit(fit_calibrator(args.kind, scores, labels).to_dict(), args.output, indent=2)
    return 0


def _cmd_apply(args) -> int:
    cal = _load_json(args.calibrator, Calibrator.from_dict)
    ids, labels, scores = _read_raw_scores(args.input)
    write_predictions(args.output, apply_calibrator(cal, scores), labels, ids)
    print(f"wrote {args.output}")
    return 0


def _cmd_adapt(args) -> int:
    # the flags are checked before the prediction file is read
    train_priors = _parse_priors(args.train_priors, "--train-priors")
    check_counts(**{"--max-iter": (args.max_iter, 1)})
    if not 0.0 < args.tol < math.inf:  # NaN fails too
        raise InvalidConfig(f"--tol must be finite and > 0, got {args.tol}")
    ids, labels, probs = read_predictions(args.input)
    result = adapt_label_shift_em(
        _shaped(probs, "lifted", "adapt"), train_priors, tol=args.tol, max_iter=args.max_iter,
    )
    if not result.converged:
        raise DidNotConverge(f"label-shift EM did not converge in {result.iterations} iterations")
    adapted = result.adapted_probs.entries
    write_predictions(args.output, adapted[:, 1] if probs.ndim == 1 else adapted, labels, ids)
    print(json.dumps({
        "test_priors": result.test_priors.priors.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
    }))
    return 0


def _cmd_abstain(args) -> int:
    # method, budget, sample count and metric are checked before the prediction file is read
    method = MethodSpec(name=args.method)
    _check_budget(args.budget)
    mc = MonteCarloConfig(samples=args.mc_samples, seed=args.seed, smooth=args.smooth)
    metric = _metric_spec(args)
    priors = _parse_priors(args.priors, "--priors") if args.priors else None
    labels, probs = read_predictions(args.input)[1:]  # the ids are not held while scoring
    if priors is None and labels is not None:
        priors = PriorEstimate.from_labels(labels, 2 if probs.ndim == 1 else probs.shape[1])
    indices, estimate = abstain_indices(method, probs, args.budget, metric, mc, labels=labels, priors=priors)
    payload = {
        "method": args.method,
        "budget": args.budget,
        "abstained": int(indices.size),
        "indices": indices.tolist(),
        "estimated_metric": estimate,
    }
    _emit(payload, args.output)
    return 0


def _abstained_rows(path, n: int) -> np.ndarray:
    """The `indices` of an abstain file: distinct integer rows in [0, n), else SchemaError."""
    indices = _load_json(path, lambda payload: payload["indices"])
    if not (isinstance(indices, list) and all(type(i) is int and 0 <= i < n for i in indices)
            and len(set(indices)) == len(indices)):
        raise SchemaError(f"{path}: indices must be distinct integers in [0, {n})")
    return np.array(indices, dtype=np.int64)


def _cmd_evaluate(args) -> int:
    metric = _metric_spec(args)
    labels, probs = read_predictions(args.input)[1:]
    if labels is None:
        raise SchemaError(f"{args.input}: evaluate needs labeled predictions")
    dropped = _abstained_rows(args.abstain_file, labels.size) if args.abstain_file else np.empty(0, dtype=np.int64)
    value = _retained_metric(metric, probs, labels, dropped)
    print(json.dumps({"metric": args.metric, "value": value, "n": labels.size - dropped.size,
                      "abstained": dropped.size}))
    return 0


def _cmd_experiment(args) -> int:
    spec = _load_json(args.spec, ExperimentSpec.from_dict)
    if args.output:
        spec = replace(spec, output=args.output)
    paths = run_experiment(spec)
    print(json.dumps(paths))
    return 0


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


def _cmd_compare(args) -> int:
    with _open_input(args.input) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise SchemaError(f"{args.input}: no rows")
    missing = {"seed", "method", "budget", args.column}.difference(rows[0])
    if missing:
        raise SchemaError(f"{args.input}: missing columns {', '.join(sorted(missing))}")
    # Runs pair up by (seed, budget, adapted); `adapted` is 0 where the column is absent.
    by_method: dict[str, dict] = {}
    for number, row in enumerate(rows, 1):
        budget = _cell(args.input, number, row, "budget", float)
        if args.budget is not None and budget != args.budget:
            continue
        adapted = _cell(args.input, number, row, "adapted", int) if row.get("adapted") else 0
        key = (_cell(args.input, number, row, "seed", int), budget, adapted)
        entries = by_method.setdefault(row["method"], {})
        if key in entries:
            raise SchemaError(f"{args.input}: method {row['method']} repeats (seed, budget, adapted) {key}")
        entries[key] = _cell(args.input, number, row, args.column, float)
    if not by_method:  # only a --budget filter can keep no row
        raise SchemaError(f"{args.input}: no row has budget {args.budget!r}")
    keys = sorted(next(iter(by_method.values())))
    if any(sorted(entries) != keys for entries in by_method.values()):
        raise SchemaError(f"{args.input}: methods do not cover the same (seed, budget, adapted) rows")
    values = {name: np.array([entries[k] for k in keys]) for name, entries in sorted(by_method.items())}
    result = compare_methods(values)
    payload = {
        "methods": list(result.method_names),
        "p_values": result.p_values.tolist(),
        "significant": result.significant.tolist(),
    }
    _emit(payload, args.output, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abstainkit", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit a dataset CSV from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="fit a calibrator and save it as JSON")
    p.add_argument("--input", required=True, help="raw-score CSV (id,label,score or id,label,z_0..)")
    p.add_argument("--kind", default="platt", choices=CALIBRATOR_KINDS)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("apply-calibrator", help="apply a saved calibrator to raw scores")
    p.add_argument("--input", required=True)
    p.add_argument("--calibrator", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("adapt", help="label-shift adaptation of calibrated predictions")
    p.add_argument("--input", required=True)
    p.add_argument("--train-priors", required=True, help="comma-separated class priors")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("abstain", help="score + select an abstention set")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--metric", default="sens_at_spec", choices=tuple(_METRIC_LAYOUT))
    p.add_argument("--budget", type=float, required=True, help="abstention fraction in [0, 1)")
    p.add_argument("--target-specificity", type=float, default=0.9)
    p.add_argument("--mc-samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smooth", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--priors", default=None, help="comma-separated class priors for the JS baseline")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_abstain)

    p = sub.add_parser("evaluate", help="recompute a metric on retained examples")
    p.add_argument("--input", required=True)
    p.add_argument("--metric", default="sens_at_spec", choices=tuple(_METRIC_LAYOUT))
    p.add_argument("--target-specificity", type=float, default=0.9)
    p.add_argument("--abstain-file", default=None, help="JSON produced by the abstain subcommand")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run a full grid from an ExperimentSpec JSON")
    p.add_argument("--spec", required=True)
    p.add_argument("--output", default=None, help="override the spec's output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("compare", help="signed-rank p-value matrix from a results CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="post")
    p.add_argument("--budget", type=float, default=None, help="restrict to one budget fraction")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AbstainkitError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
