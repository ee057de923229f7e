"""The library's error contract: every input rule raises a named AbstainkitError.

A bad value is InvalidConfig and a bad shape or alignment DimensionMismatch,
unless a narrower class names it; no `raise` in the package names a builtin
catch-all. Class-index vectors are checked by one rule, `errors.check_labels`,
wherever they are checked.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abstainkit
from abstainkit.calibration import Calibrator, PriorEstimate, adapt_label_shift_em, fit_calibrator
from abstainkit.errors import (
    AbstainkitError,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidConfig,
    InvalidSpecificity,
    check_labels,
)
from abstainkit.experiments import MetricSpec
from abstainkit.metrics import (
    PenaltyWeightMatrix,
    ProbabilityMatrix,
    SortedPredictionSet,
    auroc,
    running_counts,
    sensitivity_at_specificity,
    weighted_kappa,
)
from abstainkit.scoring import (
    MonteCarloConfig,
    baseline_scores,
    fumera_threshold_search,
    score_examples_kappa,
    score_windows_sens_at_spec,
    smooth_savitzky_golay,
)
from abstainkit.simulate import resample_with_shift
from abstainkit.stats import compare_methods, rank_correlations, wilcoxon_signed_rank_one_sided

_BANNED = {"ValueError", "RuntimeError", "IndexError", "Exception"}


def test_the_package_raises_no_builtin_catch_all():
    found = []
    for path in sorted(Path(abstainkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in _BANNED:
                    found.append(f"{path.name}:{node.lineno}: {exc.id}")
    assert found == []


_SORTED = SortedPredictionSet(np.array([0.1, 0.4, 0.8]), np.array([0, 1, 1]))
_BINARY = ProbabilityMatrix.from_binary(np.array([0.2, 0.6, 0.9]))
_QUADRATIC = PenaltyWeightMatrix.quadratic(2)
_SCORES = np.linspace(-1.0, 1.0, 12)
_LOGITS = np.column_stack([_SCORES, -_SCORES])
_TWELVE = np.arange(12) % 2


def _accuracy(probs, labels):
    return float(np.mean(probs.argmax(axis=1) == labels))


# (call, the error it raises); one case per checked input and per named numpy failure
_CASES = {
    "sorted_matrix": (lambda: SortedPredictionSet(np.zeros((2, 2))), DimensionMismatch),
    "sorted_out_of_range": (lambda: SortedPredictionSet(np.array([0.1, 1.5])), InvalidConfig),
    "sorted_unsorted": (lambda: SortedPredictionSet(np.array([0.5, 0.1])), InvalidConfig),
    "sorted_misaligned": (lambda: SortedPredictionSet(np.array([0.1, 0.5]), np.array([0, 1, 1])), DimensionMismatch),
    "sorted_not_binary": (lambda: SortedPredictionSet(np.array([0.1, 0.5]), np.array([0, 2])), InvalidConfig),
    "unsorted_longer_labels": (lambda: SortedPredictionSet.from_unsorted([0.5, 0.1], [0, 1, 1]), DimensionMismatch),
    "unsorted_shorter_labels": (lambda: SortedPredictionSet.from_unsorted([0.5, 0.1, 0.2], [0, 1]),
                                DimensionMismatch),
    "auroc_unlabeled": (lambda: auroc(SortedPredictionSet(np.array([0.1, 0.5]))), InvalidConfig),
    "matrix_vector": (lambda: ProbabilityMatrix(np.array([0.5, 0.5])), DimensionMismatch),
    "matrix_out_of_range": (lambda: ProbabilityMatrix(np.array([[1.5, -0.5]])), InvalidConfig),
    "matrix_row_sum": (lambda: ProbabilityMatrix(np.array([[0.5, 0.6]])), InvalidConfig),
    "weights_not_square": (lambda: PenaltyWeightMatrix(np.zeros((2, 3))), DimensionMismatch),
    "weights_negative": (lambda: PenaltyWeightMatrix(-np.ones((2, 2))), InvalidConfig),
    "weights_nan": (lambda: PenaltyWeightMatrix(np.array([[0.0, np.nan], [1.0, 0.0]])), InvalidConfig),
    "running_counts_window": (lambda: running_counts(np.array([0.1, 0.2]), 3), InvalidConfig),
    "kappa_misaligned": (lambda: weighted_kappa([0, 1, 1], [0, 1], _QUADRATIC), DimensionMismatch),
    "kappa_fraction_labels": (lambda: weighted_kappa([0, 1, 1, 0], [0.9, 1.5, 1, 0], _QUADRATIC), InvalidConfig),
    "sens_at_spec_none": (lambda: sensitivity_at_specificity(_SORTED, None), InvalidSpecificity),
    "metric_spec_nan": (lambda: MetricSpec("sens_at_spec", float("nan")), InvalidSpecificity),
    "kappa_scorer_weights": (lambda: score_examples_kappa(_BINARY, PenaltyWeightMatrix.quadratic(3)),
                             DimensionMismatch),
    "smooth_polyorder": (lambda: smooth_savitzky_golay(np.zeros(9), 5, 5), InvalidConfig),
    "window_scorer_none": (lambda: score_windows_sens_at_spec(_SORTED, None, 1, MonteCarloConfig(2)),
                           InvalidSpecificity),
    "baseline_unknown": (lambda: baseline_scores(_BINARY, method="psychic"), InvalidConfig),
    "baseline_matrix_priors": (lambda: baseline_scores(_BINARY, np.full((2, 2), 0.25), "js_divergence"),
                               InvalidConfig),
    "fumera_misaligned": (lambda: fumera_threshold_search(_BINARY, [0, 1], _accuracy, 1), DimensionMismatch),
    "fumera_label_two": (lambda: fumera_threshold_search(_BINARY, [0, 1, 2], _accuracy, 1), InvalidConfig),
    "fumera_grid_one": (lambda: fumera_threshold_search(_BINARY, [0, 1, 1], _accuracy, 1, grid=1), InvalidConfig),
    "fumera_grid_nan": (lambda: fumera_threshold_search(_BINARY, [0, 1, 1], _accuracy, 1, grid=[0.0, np.nan]),
                        InvalidConfig),
    "platt_temperature": (lambda: Calibrator("platt", 1.0, [0.0]).temperature, InvalidConfig),
    "platt_label_two": (lambda: fit_calibrator("platt", _SCORES, np.r_[_TWELVE[:-1], 2]), InvalidConfig),
    "temperature_label_range": (lambda: fit_calibrator("temperature", _LOGITS, np.r_[_TWELVE[:-1], 2]),
                                InvalidConfig),
    "platt_nan_score": (lambda: fit_calibrator("platt", np.r_[_SCORES[:-1], np.nan], _TWELVE), InvalidConfig),
    "temperature_nan_score": (lambda: fit_calibrator("temperature", np.where(_LOGITS > 0.9, np.nan, _LOGITS),
                                                     _TWELVE), InvalidConfig),
    "em_no_rows": (lambda: adapt_label_shift_em(ProbabilityMatrix(np.zeros((0, 2))), PriorEstimate([0.5, 0.5])),
                   InvalidConfig),
    "priors_label_five": (lambda: PriorEstimate.from_labels([0, 1, 5], 2), InvalidConfig),
    "priors_no_labels": (lambda: PriorEstimate.from_labels([], 2), InvalidConfig),
    "rank_correlations_short": (lambda: rank_correlations([1.0, 2.0], [2.0, 1.0]), DimensionMismatch),
    "compare_unequal_runs": (lambda: compare_methods({"a": [1.0] * 6, "b": [1.0] * 5}), DimensionMismatch),
    "wilcoxon_nan": (lambda: wilcoxon_signed_rank_one_sided([1.0, 2.0, np.nan, 3.0, 4.0, 5.0]), InvalidConfig),
    "compare_nan": (lambda: compare_methods({"a": [1.0, 2.0, 3.0, 4.0, 5.0, np.nan], "b": [0.0] * 6}),
                    InvalidConfig),
    "resample_negative_m": (lambda: resample_with_shift(np.array([0.2, 0.8]), [0, 1], (0.5, 0.5), -3, 0),
                            InvalidConfig),
    "resample_matrix_labels": (lambda: resample_with_shift(np.array([0.2, 0.8]), [[0], [1]], (0.5, 0.5), 2, 0),
                               DimensionMismatch),
    "resample_misaligned": (lambda: resample_with_shift(np.array([0.2, 0.8]), [0, 1, 1, 0], (0.5, 0.5), 4, 0),
                            DimensionMismatch),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_each_bad_input_is_its_named_error(case):
    call, error = _CASES[case]
    with pytest.raises(error):
        call()


def test_fumera_skips_only_named_errors():
    def rejects_small_sets(probs, labels):
        if labels.size < 3:
            raise DegenerateDenominator("too few rows")
        return _accuracy(probs, labels)

    np.testing.assert_array_equal(fumera_threshold_search(_BINARY, [0, 1, 1], rejects_small_sets, 1, grid=3),
                                  np.zeros(2))

    def broken(probs, labels):
        raise ValueError("a bug in the metric")

    with pytest.raises(ValueError, match="a bug in the metric"):
        fumera_threshold_search(_BINARY, [0, 1, 1], broken, 1, grid=3)


# whole numbers in and out of range, fractions, NaN and bools: one vector mixes them
_LABEL_CELLS = st.one_of(
    st.integers(-2, 4), st.sampled_from([0.0, 1.0, 0.5, 2.5, -1.0, float("nan")]), st.booleans()
)


def _label_consumers(labels, class_count):
    """Each function that takes class indices, called on ``labels`` with valid other inputs."""
    n = len(labels)
    probs = np.linspace(0.1, 0.9, n)
    uniform = ProbabilityMatrix(np.full((n, class_count), 1.0 / class_count))
    weights = PenaltyWeightMatrix.quadratic(class_count)
    valid = np.arange(n) % class_count
    return {
        "SortedPredictionSet": (2, lambda: SortedPredictionSet(probs, labels)),
        "from_unsorted": (2, lambda: SortedPredictionSet.from_unsorted(probs[::-1], labels)),
        "weighted_kappa_true": (class_count, lambda: weighted_kappa(valid, labels, weights)),
        "weighted_kappa_pred": (class_count, lambda: weighted_kappa(labels, valid, weights)),
        "fit_platt": (2, lambda: fit_calibrator("platt", np.zeros(n), labels)),
        "fit_temperature": (class_count, lambda: fit_calibrator("temperature", np.zeros((n, class_count)), labels)),
        "fit_bias_corrected": (class_count, lambda: fit_calibrator("bias_corrected_temperature",
                                                                   np.zeros((n, class_count)), labels)),
        "fumera": (class_count, lambda: fumera_threshold_search(uniform, labels, lambda p, y: float(y.sum()), n,
                                                                grid=3)),
        "priors_from_labels": (class_count, lambda: PriorEstimate.from_labels(labels, class_count)),
        "resample_with_shift": (class_count, lambda: resample_with_shift(
            uniform, labels, np.full(class_count, 1.0 / class_count), 4, 0)),
    }


@settings(derandomize=True, deadline=None, max_examples=60)
@given(cells=st.lists(_LABEL_CELLS, max_size=12), class_count=st.integers(2, 4))
def test_every_label_consumer_applies_the_one_label_rule(cells, class_count):
    labels = np.array(cells)
    for name, (count, call) in _label_consumers(labels, class_count).items():
        try:
            check_labels(labels, count)
            rule = None
        except InvalidConfig as exc:
            rule = str(exc)
        try:
            call()
            got = None
        except AbstainkitError as exc:
            got = str(exc) if isinstance(exc, InvalidConfig) and "labels" in str(exc) else None
        assert got == rule, (name, cells)
