"""Experiment orchestration: dataset CSV schemas, method pipelines, grid runs.

A run resolves to rows of (seed, method, budget): generate or ingest
predictions, optionally adapt them for label shift, score, select the
abstained set, then recompute the metric of interest on the retained
examples using their true labels. Rows are written in sorted order so a grid
can be evaluated in parallel without changing the output file; re-running a
spec with the same seeds yields a byte-identical CSV body (the manifest
carries the only timestamp).
"""

from __future__ import annotations

import csv
import datetime
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .calibration import PriorEstimate, adapt_label_shift_em
from .errors import BudgetTooLarge, DidNotConverge, InputNotFound, SchemaError
from .metrics import (
    PenaltyWeightMatrix,
    ProbabilityMatrix,
    SortedPredictionSet,
    auroc,
    sensitivity_at_specificity,
    weighted_kappa,
)
from .scoring import (
    MarginalScoreVector,
    MonteCarloConfig,
    baseline_scores,
    fumera_threshold_search,
    score_examples_kappa,
    score_windows_auroc,
    score_windows_sens_at_spec,
    select_abstentions,
)
from .simulate import (
    BinarySimConfig,
    MulticlassSimConfig,
    resample_with_shift,
    sample_random_binary_config,
    simulate_binary,
    simulate_multiclass,
)
from .stats import rank_correlations

__all__ = [
    "MetricSpec",
    "MethodSpec",
    "ExperimentSpec",
    "read_predictions",
    "write_predictions",
    "evaluate_metric",
    "abstain_indices",
    "run_experiment",
    "FIGURE1_CONFIG",
    "KAPPA_CONVERGENCE_CONFIG",
    "KAPPA_SAMPLE_LADDER",
]

TASKS = ("figure1", "auroc_correlation", "kappa_convergence", "label_shift", "custom")

WINDOW_METHODS = ("sens_window", "auroc_window_det", "auroc_window_mc")
PRIORITY_METHODS = ("js_divergence", "max_class_prob", "entropy")
KAPPA_METHODS = ("kappa_marginal_det", "kappa_marginal_mc")
METHODS = WINDOW_METHODS + KAPPA_METHODS + PRIORITY_METHODS + ("fumera",)

# Simulated-classifier setup behind the binary comparison task.
FIGURE1_CONFIG = dict(positive_prior=0.1, mu_pos=2.0, mu_neg=-1.0, sigma_pos=1.0, sigma_neg=2.0, n=10000)

# Four-class setup behind the kappa convergence study.
KAPPA_CONVERGENCE_CONFIG = dict(
    priors=(0.4, 0.3, 0.2, 0.1),
    means=(-8.0, -3.0, 3.0, 4.0),
    sigmas=(4.0, 3.0, 3.0, 2.0),
    n=10000,
)
KAPPA_SAMPLE_LADDER = (8, 32, 128, 512, 2048)

LABEL_SHIFT_CONFIG = dict(positive_prior=0.5, mu_pos=1.0, mu_neg=-1.0, sigma_pos=1.0, sigma_neg=1.0, n=30000)
LABEL_SHIFT_TEST_SIZE = 10000
LABEL_SHIFT_TARGET = (2.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class MetricSpec:
    """Which metric a run optimizes and evaluates.

    ``weighted_kappa`` uses quadratic penalties sized to the data; library
    callers wanting custom penalties should call the metric directly.
    """

    name: str
    target_specificity: float | None = None

    def __post_init__(self):
        if self.name not in ("sens_at_spec", "auroc", "weighted_kappa"):
            raise ValueError(f"unknown metric {self.name!r}")
        if self.name == "sens_at_spec" and self.target_specificity is None:
            raise ValueError("sens_at_spec needs a target_specificity")

    @classmethod
    def from_dict(cls, payload) -> "MetricSpec":
        if isinstance(payload, str):
            payload = {"name": payload}
        return cls(name=payload["name"], target_specificity=payload.get("target_specificity"))

    def to_dict(self) -> dict:
        out = {"name": self.name}
        if self.target_specificity is not None:
            out["target_specificity"] = self.target_specificity
        return out


@dataclass(frozen=True)
class MethodSpec:
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValueError(f"unknown method {self.name!r}; expected one of {', '.join(METHODS)}")

    @classmethod
    def from_dict(cls, payload) -> "MethodSpec":
        if isinstance(payload, str):
            return cls(name=payload)
        return cls(name=payload["name"], params=dict(payload.get("params", {})))

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved grid: task x methods x budgets x seeds."""

    task: str
    methods: tuple
    budgets: tuple
    seeds: tuple
    metric: MetricSpec
    mc_samples: int = 100
    smooth: bool = True
    output: str = "results"
    input_path: str | None = None
    sim_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if not self.methods or not self.budgets or not self.seeds:
            raise ValueError("need at least one method, one budget and one seed")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        return cls(
            task=payload["task"],
            methods=tuple(MethodSpec.from_dict(m) for m in payload.get("methods", ["sens_window"])),
            budgets=tuple(float(b) for b in payload.get("budgets", [0.3])),
            seeds=tuple(int(s) for s in payload.get("seeds", [0])),
            metric=MetricSpec.from_dict(payload.get("metric", {"name": "sens_at_spec", "target_specificity": 0.9})),
            mc_samples=int(payload.get("mc_samples", 100)),
            smooth=bool(payload.get("smooth", True)),
            output=payload.get("output", "results"),
            input_path=payload.get("input"),
            sim_overrides=dict(payload.get("sim", {})),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        return cls.from_dict(_load_json(path))

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "methods": [m.to_dict() for m in self.methods],
            "budgets": list(self.budgets),
            "seeds": list(self.seeds),
            "metric": self.metric.to_dict(),
            "mc_samples": self.mc_samples,
            "smooth": self.smooth,
            "output": self.output,
            "input": self.input_path,
            "sim": dict(self.sim_overrides),
        }


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputNotFound(path) from None


# ---------------------------------------------------------------------------
# Prediction CSV schema: binary files carry `id,label,prob`, multiclass files
# `id,label,p_0,...,p_{C-1}`; the label cell may be empty for unlabeled rows.
# Raw-score files read by the CLI use the same layout with `score` / `z_c`.
# ---------------------------------------------------------------------------

def _write_rows(path, header, rows) -> None:
    """The one CSV writer: prediction files and experiment results."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_predictions(path, probs, labels=None, ids=None) -> None:
    probs = np.asarray(getattr(probs, "entries", probs), dtype=float)
    n = probs.shape[0]
    binary = probs.ndim == 1
    header = ["id", "label", "prob"] if binary else ["id", "label"] + [f"p_{c}" for c in range(probs.shape[1])]
    table = probs[:, None] if binary else probs
    # rows stream one at a time: a whole-table list would raise the peak memory
    rows = (
        [row_id, "" if labels is None else int(labels[i]), *map(repr, table[i].tolist())]
        for i, row_id in zip(range(n), range(n) if ids is None else ids)
    )
    _write_rows(path, header, rows)


def _read_value_csv(path, binary_column: str, class_prefix: str):
    """Read `id,label,<binary_column>` or `id,label,<class_prefix>_0..`.

    Returns ``(ids, labels_or_None, values)`` with ``values`` a vector for
    the binary layout and an N x C array otherwise.
    """
    if not os.path.exists(path):
        raise InputNotFound(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
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
    ids, labels, values = [], [], []
    for row in rows:
        if len(row) != len(header):
            raise SchemaError(f"{path}: row has {len(row)} cells, expected {len(header)}")
        ids.append(row[0])
        labels.append(row[1])
        try:
            values.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise SchemaError(f"{path}: value cell is not a number: {exc}") from None
    have_labels = any(cell != "" for cell in labels)
    if have_labels and not all(cell != "" for cell in labels):
        raise SchemaError(f"{path}: labels must be all present or all empty")
    try:
        label_arr = np.array([int(v) for v in labels], dtype=np.int64) if have_labels else None
    except ValueError as exc:
        raise SchemaError(f"{path}: label cell is not an integer: {exc}") from None
    value_arr = np.asarray(values, dtype=float)
    class_count = 2 if binary else value_arr.shape[1]
    if label_arr is not None and not (label_arr.min() >= 0 and label_arr.max() < class_count):
        raise SchemaError(f"{path}: labels must lie in [0, {class_count})")
    return ids, label_arr, value_arr[:, 0] if binary else value_arr


def read_predictions(path):
    """Read a prediction CSV; returns ``(ids, labels_or_None, probs)``.

    ``probs`` is a vector for binary files and an N x C array otherwise.
    """
    return _read_value_csv(path, "prob", "p")


# ---------------------------------------------------------------------------
# Method pipelines
# ---------------------------------------------------------------------------

def _shaped(probs, layout: str, consumer: str):
    """The one shape rule for predictions, whether a file stores `prob` or `p_0..`.

    ``"binary"`` returns the positive-class vector of a vector or an N x 2
    matrix; ``"classes"`` returns an N x C ProbabilityMatrix and rejects a
    vector, whose class count is unknown; ``"lifted"`` returns a
    ProbabilityMatrix, lifting a vector to ``[1 - p, p]``. A shape the layout
    rejects is a SchemaError.
    """
    probs = np.asarray(getattr(probs, "entries", probs), dtype=float)
    if layout == "lifted":
        return ProbabilityMatrix.from_binary(probs) if probs.ndim == 1 else ProbabilityMatrix(probs)
    if layout == "classes":
        if probs.ndim != 2:
            raise SchemaError(f"{consumer} needs an N x C probability matrix")
        return ProbabilityMatrix(probs)
    if probs.ndim == 2 and probs.shape[1] != 2:
        raise SchemaError(f"{consumer} needs binary predictions, got {probs.shape[1]} classes")
    return probs if probs.ndim == 1 else probs[:, 1]


# the layout each metric reads: kappa needs the class count, the others a positive column
_METRIC_LAYOUT = {"sens_at_spec": "binary", "auroc": "binary", "weighted_kappa": "classes"}


def evaluate_metric(metric: MetricSpec, probs, labels) -> float:
    """Recompute the metric on (retained) examples with their true labels."""
    probs = _shaped(probs, _METRIC_LAYOUT[metric.name], metric.name)
    if metric.name == "weighted_kappa":
        weights = PenaltyWeightMatrix.quadratic(probs.class_count)
        return weighted_kappa(probs.entries.argmax(axis=1), labels, weights)
    preds = SortedPredictionSet.from_unsorted(probs, labels)
    if metric.name == "sens_at_spec":
        return sensitivity_at_specificity(preds, metric.target_specificity)
    return auroc(preds)


def abstain_indices(
    method: MethodSpec,
    probs,
    budget_fraction: float,
    metric: MetricSpec,
    mc: MonteCarloConfig,
    labels=None,
    priors=None,
):
    """Run one abstention method; returns ``(indices, estimate_or_None)``.

    ``probs`` is a positive-class vector or an N x C matrix; a vector and
    its ``[1 - p, p]`` matrix give the same result. Window methods need
    binary predictions and kappa methods a matrix, else SchemaError.
    Indices refer to the given row order. The budget abstains on at most
    ``floor(budget_fraction * N)`` rows; a fraction outside [0, 1) is
    BudgetTooLarge. ``labels`` are consulted only by the validation-search
    method.
    """
    if not 0.0 <= budget_fraction < 1.0:
        raise BudgetTooLarge(f"abstention budget must lie in [0, 1), got {budget_fraction}")
    probs = np.asarray(getattr(probs, "entries", probs), dtype=float)
    n = probs.shape[0]
    d = int(np.floor(budget_fraction * n))
    if d == 0:
        return np.empty(0, dtype=np.int64), None
    name = method.name

    if name in WINDOW_METHODS:
        probs = _shaped(probs, "binary", name)
        order = np.argsort(probs, kind="stable")
        preds = SortedPredictionSet(probs[order])
        if name == "sens_window":
            scores = score_windows_sens_at_spec(preds, metric.target_specificity, d, mc)
        elif name == "auroc_window_det":
            scores = score_windows_auroc(preds, d, mode="deterministic")
        else:
            scores = score_windows_auroc(preds, d, mode="monte_carlo", mc=mc)
        selected = select_abstentions(scores, d)
        return np.sort(order[selected]), float(scores.scores[selected[0]])

    if name in KAPPA_METHODS:
        matrix = _shaped(probs, "classes", name)
        weights = PenaltyWeightMatrix.quadratic(matrix.class_count)
        mode = "deterministic" if name == "kappa_marginal_det" else "monte_carlo"
        scores = score_examples_kappa(matrix, weights, mode=mode, mc=mc)
        selected = select_abstentions(scores, d)
        return selected, float(np.mean(scores.scores[selected]))

    if name in PRIORITY_METHODS:
        rule = "js_divergence_from_priors" if name == "js_divergence" else name
        priorities = baseline_scores(_shaped(probs, "lifted", name), priors=priors, method=rule)
        return select_abstentions(MarginalScoreVector(priorities), d), None

    # fumera, the one method left
    if labels is None:
        raise ValueError("fumera needs validation labels")
    # the search skips tuples the metric rejects, so a wrong shape would abstain on nothing
    _shaped(probs, _METRIC_LAYOUT[metric.name], metric.name)
    matrix = _shaped(probs, "lifted", name)
    grid = int(method.params.get("grid", 51))
    thresholds = fumera_threshold_search(
        matrix,
        np.asarray(labels),
        lambda keep_p, keep_y: evaluate_metric(metric, keep_p, keep_y),
        d,
        grid=grid,
    )
    entries = matrix.entries
    top = entries.argmax(axis=1)
    abstain = entries[np.arange(n), top] < thresholds[top]
    return np.flatnonzero(abstain), None


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _float_cell(value) -> str:
    return repr(float(value))


def _grid_rows(spec: ExperimentSpec, probs, labels, seed: int, priors, adapted: int = 0):
    probs = np.asarray(getattr(probs, "entries", probs), dtype=float)
    labels = np.asarray(labels)
    base = evaluate_metric(spec.metric, probs, labels)
    rows = []
    for method in spec.methods:
        for budget in spec.budgets:
            mc = MonteCarloConfig(samples=spec.mc_samples, seed=seed, smooth=spec.smooth)
            indices, _ = abstain_indices(method, probs, budget, spec.metric, mc, labels=labels, priors=priors)
            keep = np.setdiff1d(np.arange(probs.shape[0]), indices)
            post = evaluate_metric(spec.metric, probs[keep], labels[keep])
            rows.append(
                (seed, method.name, budget, spec.metric.name, adapted,
                 _float_cell(base), _float_cell(post), indices.size, probs.shape[0])
            )
    return rows


_GRID_HEADER = ["seed", "method", "budget", "metric", "adapted", "base", "post", "abstained", "n"]


def _run_figure1(spec: ExperimentSpec):
    rows = []
    cfg_base = dict(FIGURE1_CONFIG, **spec.sim_overrides)
    for seed in spec.seeds:
        cfg = BinarySimConfig(seed=seed, **cfg_base)
        probs, labels, _ = simulate_binary(cfg)
        priors = PriorEstimate(np.array([1.0 - cfg.positive_prior, cfg.positive_prior]))
        rows.extend(_grid_rows(spec, probs, labels, seed, priors))
    return _GRID_HEADER, sorted(rows, key=lambda r: (r[0], r[1], r[2]))


def _run_custom(spec: ExperimentSpec):
    if spec.input_path is None:
        raise ValueError("custom task needs an input file")
    _, labels, probs = read_predictions(spec.input_path)
    if labels is None:
        raise SchemaError("custom task needs labeled predictions for evaluation")
    if probs.ndim == 1:
        empirical = np.array([1.0 - labels.mean(), labels.mean()])
    else:
        empirical = np.bincount(labels, minlength=probs.shape[1]) / labels.size
    priors = PriorEstimate(empirical)
    rows = []
    for seed in spec.seeds:
        rows.extend(_grid_rows(spec, probs, labels, seed, priors))
    return _GRID_HEADER, sorted(rows, key=lambda r: (r[0], r[1], r[2]))


def _run_label_shift(spec: ExperimentSpec):
    rows = []
    cfg_base = dict(LABEL_SHIFT_CONFIG, **spec.sim_overrides)
    train_priors = PriorEstimate(
        np.array([1.0 - cfg_base["positive_prior"], cfg_base["positive_prior"]])
    )
    for seed in spec.seeds:
        cfg = BinarySimConfig(seed=seed, **cfg_base)
        probs, labels, _ = simulate_binary(cfg)
        shifted_probs, shifted_labels, _ = resample_with_shift(
            probs, labels, LABEL_SHIFT_TARGET, LABEL_SHIFT_TEST_SIZE, seed=seed + 1
        )
        result = adapt_label_shift_em(ProbabilityMatrix.from_binary(shifted_probs), train_priors)
        if not result.converged:
            raise DidNotConverge(f"label-shift EM did not converge for seed {seed}")
        adapted_probs = result.adapted_probs.entries[:, 1]
        rows.extend(_grid_rows(spec, shifted_probs, shifted_labels, seed, train_priors, adapted=0))
        rows.extend(_grid_rows(spec, adapted_probs, shifted_labels, seed, result.test_priors, adapted=1))
    return _GRID_HEADER, sorted(rows, key=lambda r: (r[0], r[1], r[2], r[4]))


def _run_auroc_correlation(spec: ExperimentSpec):
    header = ["config_index", "seed", "q", "mu_pos", "mu_neg", "sigma_pos", "sigma_neg", "spearman", "pearson"]
    abst = int(spec.sim_overrides.get("abstain_count", 100))
    rows = []
    for index, seed in enumerate(spec.seeds):
        cfg = sample_random_binary_config(seed)
        probs, _, _ = simulate_binary(cfg)
        preds = SortedPredictionSet.from_unsorted(probs)
        mc_scores = score_windows_auroc(
            preds, abst, mode="monte_carlo",
            mc=MonteCarloConfig(samples=spec.mc_samples, seed=seed, smooth=spec.smooth),
        )
        det_scores = score_windows_auroc(preds, abst, mode="deterministic")
        spearman, pearson = rank_correlations(mc_scores.scores, det_scores.scores)
        rows.append(
            (index, seed, _float_cell(cfg.positive_prior), _float_cell(cfg.mu_pos),
             _float_cell(cfg.mu_neg), _float_cell(cfg.sigma_pos), _float_cell(cfg.sigma_neg),
             _float_cell(spearman), _float_cell(pearson))
        )
    return header, rows


def _run_kappa_convergence(spec: ExperimentSpec):
    header = ["seed", "mc_samples", "mean_abs_diff"]
    cfg_base = dict(KAPPA_CONVERGENCE_CONFIG, **spec.sim_overrides)
    # the mean-abs gap at one sample count is itself noisy (errors are shared
    # across examples), so each rung averages `repeats` independent runs
    repeats = int(cfg_base.pop("repeats", 1))
    rows = []
    for seed in spec.seeds:
        cfg = MulticlassSimConfig(seed=seed, **cfg_base)
        probs, _ = simulate_multiclass(cfg)
        weights = PenaltyWeightMatrix.quadratic(probs.class_count)
        det = score_examples_kappa(probs, weights, mode="deterministic")
        for m in KAPPA_SAMPLE_LADDER:
            # distinct stream per (rung, repeat); a shared seed would make
            # small-M runs prefixes of large-M runs and couple the ladder
            diff = 0.0
            for r in range(repeats):
                mc = score_examples_kappa(
                    probs, weights, mode="monte_carlo",
                    mc=MonteCarloConfig(samples=m, seed=(seed * 4099 + m) * 101 + r),
                )
                diff += float(np.abs(mc.scores - det.scores).mean())
            rows.append((seed, m, _float_cell(diff / repeats)))
    return header, sorted(rows, key=lambda r: (r[0], r[1]))


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute a grid and write ``results.csv`` + ``manifest.json``.

    Returns the paths of both files.
    """
    runners = {
        "figure1": _run_figure1,
        "custom": _run_custom,
        "label_shift": _run_label_shift,
        "auroc_correlation": _run_auroc_correlation,
        "kappa_convergence": _run_kappa_convergence,
    }
    header, rows = runners[spec.task](spec)
    os.makedirs(spec.output, exist_ok=True)
    results_path = os.path.join(spec.output, "results.csv")
    manifest_path = os.path.join(spec.output, "manifest.json")
    _write_rows(results_path, header, rows)
    manifest = {
        "spec": spec.to_dict(),
        "version": __version__,
        "rows": len(rows),
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return {"results": results_path, "manifest": manifest_path}
