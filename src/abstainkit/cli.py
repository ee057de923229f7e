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
import json
import math
import os
import sys
from dataclasses import replace

# Set before numpy loads: no CLI path makes a BLAS call large enough to thread, so idle workers only burn CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .calibration import (
    CALIBRATOR_KINDS, Calibrator, PriorEstimate, adapt_label_shift_em, apply_calibrator, fit_calibrator,
)
from .errors import AbstainkitError, DidNotConverge, InvalidConfig, SchemaError, check_budget, check_counts
from .experiments import (
    METRICS, ExperimentSpec, MethodSpec, MetricSpec, abstain_indices, evaluate_metric, run_experiment, shaped,
)
from .files import load_json, read_abstained, read_predictions, read_results, write_json, write_predictions
# bench/launch.py times the raw-score reader as `cli._read_raw_scores`
from .files import read_raw_scores as _read_raw_scores
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
        write_json(output, payload, indent)
        print(f"wrote {output}")
    else:
        print(json.dumps(payload))


def _sim_config(payload):
    """A config JSON object: multiclass when it has `priors`, binary otherwise."""
    if "priors" in payload:
        return MulticlassSimConfig(**payload)
    return BinarySimConfig(**payload)


def _cmd_simulate(args) -> int:
    cfg = load_json(args.config, _sim_config)
    if isinstance(cfg, BinarySimConfig):
        probs, labels, _ = simulate_binary(cfg)
    else:
        probs, labels = simulate_multiclass(cfg)
    write_predictions(args.output, probs, labels)
    print(f"wrote {args.output}")
    return 0


def _cmd_calibrate(args) -> int:
    # the slice drops the ids at once, so they are not held during the fit
    labels, scores = _read_raw_scores(args.input)[1:]
    if labels is None:
        raise SchemaError(f"{args.input}: calibrate needs labeled raw scores")
    _emit(fit_calibrator(args.kind, scores, labels).to_dict(), args.output, indent=2)
    return 0


def _cmd_apply(args) -> int:
    cal = load_json(args.calibrator, Calibrator.from_dict)
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
        shaped(probs, "lifted", "adapt"), train_priors, tol=args.tol, max_iter=args.max_iter,
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
    check_budget(args.budget)
    mc = MonteCarloConfig(samples=args.mc_samples, seed=args.seed, smooth=args.smooth)
    metric = _metric_spec(args)
    priors = _parse_priors(args.priors, "--priors") if args.priors else None
    labels, probs = read_predictions(args.input)[1:]  # the ids are not held while scoring
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


def _cmd_evaluate(args) -> int:
    metric = _metric_spec(args)
    labels, probs = read_predictions(args.input)[1:]
    if labels is None:
        raise SchemaError(f"{args.input}: evaluate needs labeled predictions")
    dropped = read_abstained(args.abstain_file, labels.size) if args.abstain_file else np.empty(0, dtype=np.int64)
    value = evaluate_metric(metric, np.delete(probs, dropped, axis=0), np.delete(labels, dropped))
    print(json.dumps({"metric": args.metric, "value": value, "n": labels.size - dropped.size,
                      "abstained": dropped.size}))
    return 0


def _cmd_experiment(args) -> int:
    spec = load_json(args.spec, ExperimentSpec.from_dict)
    if args.output:
        spec = replace(spec, output=args.output)
    paths = run_experiment(spec)
    print(json.dumps(paths))
    return 0


def _cmd_compare(args) -> int:
    result = compare_methods(read_results(args.input, args.column, args.budget))
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
    p.add_argument("--metric", default="sens_at_spec", choices=METRICS)
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
    p.add_argument("--metric", default="sens_at_spec", choices=METRICS)
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
