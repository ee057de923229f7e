"""Experiment orchestration: spec schemas, method pipelines, grid runs.

A run resolves to rows of (seed, method, budget): generate or ingest
predictions, optionally adapt them for label shift, score, select the
abstained set, then recompute the metric of interest on the retained
examples using their true labels. Rows are written in sorted order so a grid
can be evaluated in parallel without changing the output file; re-running a
spec with the same seeds yields a byte-identical CSV body (the manifest
carries the only timestamp). Files are read and written by :mod:`abstainkit.files`.
"""

from __future__ import annotations

import datetime
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .calibration import PriorEstimate, adapt_label_shift_em
from .errors import (
    MAX_SIZE, DidNotConverge, InvalidConfig, SchemaError, as_array, check_budget, check_counts, check_numbers,
    check_specificity,
)
# bench/launch.py times the prediction reader and writer as `experiments.read_predictions` and
# `experiments.write_predictions`; nothing here calls the writer, which is bound for that alone
from .files import read_predictions, write_json, write_predictions, write_rows
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
    _fumera_abstained,
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
    "shaped",
    "evaluate_metric",
    "abstain_indices",
    "run_experiment",
    "FIGURE1_CONFIG",
    "KAPPA_CONVERGENCE_CONFIG",
    "KAPPA_SAMPLE_LADDER",
]

WINDOW_METHODS = ("sens_window", "auroc_window_det", "auroc_window_mc")
PRIORITY_METHODS = ("js_divergence", "max_class_prob", "entropy")
KAPPA_METHODS = ("kappa_marginal_det", "kappa_marginal_mc")
METHODS = WINDOW_METHODS + KAPPA_METHODS + PRIORITY_METHODS + ("fumera",)
# the metric names, each with the layout it reads: kappa needs the class count, the others a positive column
_METRIC_LAYOUT = {"sens_at_spec": "binary", "auroc": "binary", "weighted_kappa": "classes"}
METRICS = tuple(_METRIC_LAYOUT)

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
        if self.name not in _METRIC_LAYOUT:
            raise InvalidConfig(f"unknown metric {self.name!r}")
        if self.name == "sens_at_spec" and self.target_specificity is None:
            raise InvalidConfig("sens_at_spec needs a target_specificity")
        if self.target_specificity is not None:
            check_specificity(self.target_specificity)


@dataclass(frozen=True)
class MethodSpec:
    """An abstention method; only ``fumera`` takes a param, its integer ``grid`` of at least 2."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in METHODS:
            raise InvalidConfig(f"unknown method {self.name!r}; expected one of {', '.join(METHODS)}")
        takes = {"grid"} if self.name == "fumera" else set()
        if not isinstance(self.params, dict) or not takes.issuperset(self.params):  # an unknown key, as for a keyword
            raise TypeError(f"method {self.name} takes params {sorted(takes)}, got {self.params!r}")
        if "grid" in self.params:
            check_counts(grid=(self.params["grid"], 2, MAX_SIZE))


def _spec_of(cls, entry):
    """A MethodSpec or MetricSpec from a spec entry: one already built, a bare name or an object of its fields."""
    return entry if isinstance(entry, cls) else cls(entry) if isinstance(entry, str) else cls(**entry)


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved grid: task x methods x budgets x seeds.

    The fields are the keys of a spec JSON object; every value is checked
    here, so a bad spec fails when it is built, before anything runs.
    """

    task: str
    methods: tuple = ("sens_window",)
    budgets: tuple = (0.3,)
    seeds: tuple = (0,)
    metric: MetricSpec = MetricSpec("sens_at_spec", 0.9)
    mc_samples: int = 100
    smooth: bool = True
    output: str = "results"
    input: str | None = None
    sim: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in _TASKS:  # the task table follows the task runners, below
            raise InvalidConfig(f"unknown task {self.task!r}")
        for name, kind, what in (("smooth", bool, "true or false"), ("output", str, "a string"),
                                 ("input", (str, type(None)), "a string or null"), ("sim", dict, "an object")):
            if not isinstance(getattr(self, name), kind):
                raise TypeError(f"{name} must be {what}, got {getattr(self, name)!r}")
        check_numbers(budgets=self.budgets)
        object.__setattr__(self, "methods", tuple(_spec_of(MethodSpec, m) for m in self.methods))
        object.__setattr__(self, "budgets", tuple(float(b) for b in self.budgets))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "metric", _spec_of(MetricSpec, self.metric))
        if not self.methods or not self.budgets or not self.seeds:
            raise InvalidConfig("need at least one method, one budget and one seed")
        for budget in self.budgets:
            check_budget(budget)
        if self.metric.target_specificity is None and any(m.name == "sens_window" for m in self.methods):
            raise InvalidConfig("sens_window needs a metric with a target_specificity")
        for seed in self.seeds:
            MonteCarloConfig(samples=self.mc_samples, seed=seed)
        if self.task == "custom" and self.input is None:
            raise InvalidConfig("custom task needs an input file")
        _, config, defaults, settings = _TASKS[self.task]
        for key in self.sim:
            if key not in defaults and key not in settings:  # an unknown key, as for a keyword
                raise TypeError(f"task {self.task} takes no sim key {key!r}")
        # the task's own settings are counts; the sim config checks the rest of `sim` as it is built
        check_counts(**{f"sim {key}": (value, 1) for key, value in self.sim.items() if key in settings})
        if config is not None:
            _task_config(self, self.seeds[0])

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """The spec of a JSON object whose keys are the field names."""
        return cls(**payload)


def _task_config(spec: ExperimentSpec, seed: int):
    """The task's simulation config at ``seed``: its defaults, overridden by the spec's `sim` values."""
    _, config, defaults, settings = _TASKS[spec.task]
    return config(seed=seed, **{**defaults, **{k: v for k, v in spec.sim.items() if k not in settings}})


def _setting(spec: ExperimentSpec, name: str) -> int:
    """One of the task's own integer settings: the spec's `sim` value, else the default."""
    return spec.sim.get(name, _TASKS[spec.task][3][name])


# ---------------------------------------------------------------------------
# Method pipelines
# ---------------------------------------------------------------------------

def shaped(probs, layout: str, consumer: str):
    """The one shape rule for predictions, whether a file stores `prob` or `p_0..`.

    ``"binary"`` returns the positive-class vector of a vector or an N x 2
    matrix; ``"classes"`` returns an N x C ProbabilityMatrix and rejects a
    vector, whose class count is unknown; ``"lifted"`` returns a
    ProbabilityMatrix, lifting a vector to ``[1 - p, p]``. A shape the layout
    rejects is a SchemaError.
    """
    probs = as_array(getattr(probs, "entries", probs), "probs")
    if layout == "lifted":
        return ProbabilityMatrix.from_binary(probs) if probs.ndim == 1 else ProbabilityMatrix(probs)
    if layout == "classes":
        if probs.ndim != 2:
            raise SchemaError(f"{consumer} needs an N x C probability matrix")
        return ProbabilityMatrix(probs)
    if probs.ndim == 2 and probs.shape[1] != 2:
        raise SchemaError(f"{consumer} needs binary predictions, got {probs.shape[1]} classes")
    return probs if probs.ndim == 1 else probs[:, 1]


def evaluate_metric(metric: MetricSpec, probs, labels) -> float:
    """Recompute the metric on (retained) examples with their true labels."""
    probs = shaped(probs, _METRIC_LAYOUT[metric.name], metric.name)
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
    BudgetTooLarge. ``labels`` are the validation labels the ``fumera``
    search needs; ``js_divergence`` also takes their class frequencies as its
    priors when ``priors`` is None.
    """
    check_budget(budget_fraction)
    probs = as_array(getattr(probs, "entries", probs), "probs")
    n = probs.shape[0]
    d = int(np.floor(budget_fraction * n))
    if d == 0:
        return np.empty(0, dtype=np.int64), None
    name = method.name
    # `sens_window` and the `_mc` methods sample; the `_det` ones use expected counts
    sampled = None if name.endswith("_det") else mc

    if name in WINDOW_METHODS:
        probs = shaped(probs, "binary", name)
        order = np.argsort(probs, kind="stable")
        preds = SortedPredictionSet(probs[order])
        if name == "sens_window":
            scores = score_windows_sens_at_spec(preds, metric.target_specificity, d, mc)
        else:
            scores = score_windows_auroc(preds, d, mc=sampled)
        selected = select_abstentions(scores, d)
        return np.sort(order[selected]), float(scores.scores[selected[0]])

    if name in KAPPA_METHODS:
        matrix = shaped(probs, "classes", name)
        weights = PenaltyWeightMatrix.quadratic(matrix.class_count)
        scores = score_examples_kappa(matrix, weights, mc=sampled)
        selected = select_abstentions(scores, d)
        return selected, float(np.mean(scores.scores[selected]))

    if name in PRIORITY_METHODS:
        matrix = shaped(probs, "lifted", name)
        if name == "js_divergence" and priors is None and labels is not None:
            priors = PriorEstimate.from_labels(labels, matrix.class_count)
        priorities = baseline_scores(matrix, priors=priors, method=name)
        return select_abstentions(MarginalScoreVector(priorities), d), None

    # fumera, the one method left
    if labels is None:
        raise SchemaError("fumera needs validation labels")
    # the search skips tuples the metric rejects, so a wrong shape would abstain on nothing
    shaped(probs, _METRIC_LAYOUT[metric.name], metric.name)
    matrix = shaped(probs, "lifted", name)
    thresholds = fumera_threshold_search(
        matrix,
        np.asarray(labels),
        lambda keep_p, keep_y: evaluate_metric(metric, keep_p, keep_y),
        d,
        **method.params,
    )
    return np.flatnonzero(_fumera_abstained(matrix.entries, thresholds)), None


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def _run_grid(spec: ExperimentSpec, cases):
    """Every method at every budget on each case; rows sorted by (seed, method, budget, adapted).

    ``cases`` yields ``(seed, probs, labels, priors, adapted)``: the labelled
    predictions of one seed, the class priors the JS baseline compares rows
    with (None for the label frequencies), and whether label-shift EM adapted
    the predictions (1) or not (0).
    """
    rows = []
    for seed, probs, labels, priors, adapted in cases:
        mc = MonteCarloConfig(samples=spec.mc_samples, seed=seed, smooth=spec.smooth)
        base = evaluate_metric(spec.metric, probs, labels)
        for method in spec.methods:
            for budget in spec.budgets:
                indices, _ = abstain_indices(method, probs, budget, spec.metric, mc, labels=labels, priors=priors)
                post = evaluate_metric(spec.metric, np.delete(probs, indices, axis=0), np.delete(labels, indices))
                rows.append(
                    (seed, method.name, budget, spec.metric.name, adapted, base, post, indices.size, labels.size)
                )
    header = ["seed", "method", "budget", "metric", "adapted", "base", "post", "abstained", "n"]
    return header, sorted(rows, key=lambda r: (r[0], r[1], r[2], r[4]))


def _simulated_cases(spec: ExperimentSpec):
    """Each seed's simulated binary predictions, with the priors they were drawn at."""
    for seed in spec.seeds:
        cfg = _task_config(spec, seed)
        probs, labels, _ = simulate_binary(cfg)
        yield seed, probs, labels, PriorEstimate(np.array([1.0 - cfg.positive_prior, cfg.positive_prior])), 0


def _label_shift_cases(spec: ExperimentSpec):
    """Each seed's simulated predictions resampled at the shifted priors, before and after EM."""
    for seed, probs, labels, train_priors, _ in _simulated_cases(spec):
        shifted_probs, shifted_labels, _ = resample_with_shift(
            probs, labels, LABEL_SHIFT_TARGET, LABEL_SHIFT_TEST_SIZE, seed=seed + 1
        )
        result = adapt_label_shift_em(ProbabilityMatrix.from_binary(shifted_probs), train_priors)
        if not result.converged:
            raise DidNotConverge(f"label-shift EM did not converge for seed {seed}")
        yield seed, shifted_probs, shifted_labels, train_priors, 0
        yield seed, result.adapted_probs.entries[:, 1], shifted_labels, result.test_priors, 1


def _custom_cases(spec: ExperimentSpec):
    """The spec's prediction file, read once, at every seed; the JS baseline takes its label frequencies as priors."""
    _, labels, probs = read_predictions(spec.input)
    if labels is None:
        raise SchemaError(f"{spec.input}: custom task needs labeled predictions for evaluation")
    for seed in spec.seeds:
        yield seed, probs, labels, None, 0


def _run_auroc_correlation(spec: ExperimentSpec):
    header = ["config_index", "seed", "q", "mu_pos", "mu_neg", "sigma_pos", "sigma_neg", "spearman", "pearson"]
    abst = _setting(spec, "abstain_count")
    rows = []
    for index, seed in enumerate(spec.seeds):
        cfg = sample_random_binary_config(seed)
        probs, _, _ = simulate_binary(cfg)
        preds = SortedPredictionSet.from_unsorted(probs)
        mc_scores = score_windows_auroc(
            preds, abst, mc=MonteCarloConfig(samples=spec.mc_samples, seed=seed, smooth=spec.smooth)
        )
        det_scores = score_windows_auroc(preds, abst)
        spearman, pearson = rank_correlations(mc_scores.scores, det_scores.scores)
        rows.append(
            (index, seed, cfg.positive_prior, cfg.mu_pos, cfg.mu_neg, cfg.sigma_pos, cfg.sigma_neg, spearman, pearson)
        )
    return header, rows


def _run_kappa_convergence(spec: ExperimentSpec):
    header = ["seed", "mc_samples", "mean_abs_diff"]
    # the mean-abs gap at one sample count is itself noisy (errors are shared
    # across examples), so each rung averages `repeats` independent runs
    repeats = _setting(spec, "repeats")
    rows = []
    for seed in spec.seeds:
        probs, _ = simulate_multiclass(_task_config(spec, seed))
        weights = PenaltyWeightMatrix.quadratic(probs.class_count)
        det = score_examples_kappa(probs, weights)
        for m in KAPPA_SAMPLE_LADDER:
            # distinct stream per (rung, repeat); a shared seed would make
            # small-M runs prefixes of large-M runs and couple the ladder
            diff = 0.0
            for r in range(repeats):
                mc = score_examples_kappa(
                    probs, weights, mc=MonteCarloConfig(samples=m, seed=(seed * 4099 + m) * 101 + r)
                )
                diff += float(np.abs(mc.scores - det.scores).mean())
            rows.append((seed, m, diff / repeats))
    return header, sorted(rows, key=lambda r: (r[0], r[1]))


# every task: its runner, its simulation config class (None for a task that
# simulates none), that config's defaults but the seed, which comes from
# `seeds`, and the task's own integer settings with theirs; a spec's `sim`
# overrides any of the last two
_TASKS = {
    "figure1": (lambda spec: _run_grid(spec, _simulated_cases(spec)), BinarySimConfig, FIGURE1_CONFIG, {}),
    "auroc_correlation": (_run_auroc_correlation, None, {}, {"abstain_count": 100}),
    "kappa_convergence": (_run_kappa_convergence, MulticlassSimConfig, KAPPA_CONVERGENCE_CONFIG, {"repeats": 1}),
    "label_shift": (lambda spec: _run_grid(spec, _label_shift_cases(spec)), BinarySimConfig, LABEL_SHIFT_CONFIG, {}),
    "custom": (lambda spec: _run_grid(spec, _custom_cases(spec)), None, {}, {}),
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute a grid and write ``results.csv`` + ``manifest.json``.

    Returns the paths of both files.
    """
    header, rows = _TASKS[spec.task][0](spec)
    os.makedirs(spec.output, exist_ok=True)
    results_path = os.path.join(spec.output, "results.csv")
    manifest_path = os.path.join(spec.output, "manifest.json")
    write_rows(results_path, header, rows)
    manifest = {
        "spec": asdict(spec),
        "version": __version__,
        "rows": len(rows),
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_json(manifest_path, manifest, indent=2)
    return {"results": results_path, "manifest": manifest_path}
