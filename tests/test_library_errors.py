"""The library's error contract: every input rule raises a named AbstainkitError.

A bad value is InvalidConfig and a bad shape or alignment DimensionMismatch,
unless a narrower class names it; no `raise` in the package names a builtin
catch-all. Class-index vectors are checked by one rule, `errors.check_labels`,
and probabilities by one, `errors.check_probabilities`, wherever they are
checked.
"""

import ast
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abstainkit
from abstainkit.calibration import Calibrator, PriorEstimate, adapt_label_shift_em, apply_calibrator, fit_calibrator
from abstainkit.errors import (
    AbstainkitError,
    BudgetMismatch,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidConfig,
    InvalidSpecificity,
    check_labels,
    check_probabilities,
)
from abstainkit.experiments import (
    ExperimentSpec,
    MethodSpec,
    MetricSpec,
    abstain_indices,
    evaluate_metric,
)
from abstainkit.files import write_predictions
from abstainkit.metrics import (
    PenaltyWeightMatrix,
    ProbabilityMatrix,
    SortedPredictionSet,
    auroc,
    kappa_aggregates,
    running_counts,
    sensitivity_at_specificity,
    specificity_threshold_index,
    weighted_kappa,
)
from abstainkit.scoring import (
    MarginalScoreVector,
    MonteCarloConfig,
    WindowScoreVector,
    auroc_rank_sums,
    baseline_scores,
    fumera_threshold_search,
    score_examples_kappa,
    score_windows_auroc,
    score_windows_sens_at_spec,
    select_abstentions,
    smooth_savitzky_golay,
)
from abstainkit.simulate import BinarySimConfig, MulticlassSimConfig, resample_with_shift
from abstainkit.stats import compare_methods, rank_correlations, wilcoxon_signed_rank_one_sided

from oracles import reader_probability_rule

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


# one past the largest size numpy takes; a size at or below it would be allocated
_PAST_MAX_SIZE = sys.maxsize + 1


def _accuracy(probs, labels):
    return float(np.mean(probs.argmax(axis=1) == labels))


# the negatives' suffix counts of the labels 0, 1, 0, 1, as int32
_NEG_SUFFIX = running_counts(np.array([False, True, False, True]), 1).neg_suffix

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
    "running_counts_nan": (lambda: running_counts(np.array([np.nan, 0.5, 0.2]), 1), InvalidConfig),
    "running_counts_above_one": (lambda: running_counts(np.array([1.5, 0.5, 0.2]), 1), InvalidConfig),
    "rank_sums_nan": (lambda: auroc_rank_sums(np.array([np.nan, 0.5, 0.2]), 1), InvalidConfig),
    "rank_sums_above_one": (lambda: auroc_rank_sums(np.array([1.5, 0.5, 0.2]), 1), InvalidConfig),
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
    "fumera_grid_negative": (lambda: fumera_threshold_search(_BINARY, [0, 1, 1], _accuracy, 1, grid=-1),
                             InvalidConfig),
    "fumera_grid_fraction": (lambda: fumera_threshold_search(_BINARY, [0, 1, 1], _accuracy, 1, grid=2.5),
                             InvalidConfig),
    "kappa_aggregates_pred_above": (lambda: kappa_aggregates(_QUADRATIC, [1.0, 1.0], [0, 3]), InvalidConfig),
    "kappa_aggregates_pred_negative": (lambda: kappa_aggregates(_QUADRATIC, [1.0, 1.0], [0, -1]), InvalidConfig),
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
    "calibrator_unknown_kind": (lambda: Calibrator("bogus", 1.0, [0.0]), InvalidConfig),
    "fit_unknown_kind": (lambda: fit_calibrator("bogus", _SCORES, _TWELVE), InvalidConfig),
    "em_three_priors": (lambda: adapt_label_shift_em(_BINARY, PriorEstimate([0.2, 0.3, 0.5])), DimensionMismatch),
    "custom_spec_no_input": (lambda: ExperimentSpec(task="custom"), InvalidConfig),
    "select_beyond_rows": (lambda: select_abstentions(MarginalScoreVector([0.1, 0.2]), 3), BudgetMismatch),
    "select_plain_array": (lambda: select_abstentions(np.zeros(3), 1), TypeError),
    "fumera_grid_one_point": (lambda: fumera_threshold_search(_BINARY, [0, 1, 1], _accuracy, 1, grid=[0.5]),
                              InvalidConfig),
    # counts: a fraction is InvalidConfig, never truncated or a bare slicing TypeError
    "sens_window_fraction": (lambda: score_windows_sens_at_spec(_SORTED, 0.9, 1.5, MonteCarloConfig(2)),
                             InvalidConfig),
    "auroc_window_fraction": (lambda: score_windows_auroc(_SORTED, 1.5), InvalidConfig),
    "smooth_polyorder_fraction": (lambda: smooth_savitzky_golay(np.zeros(9), 3, 0.5), InvalidConfig),
    "smooth_window_float": (lambda: smooth_savitzky_golay(np.zeros(9), 3.0, 1), InvalidConfig),
    "select_fraction": (lambda: select_abstentions(MarginalScoreVector([0.1, 0.2]), 1.5), InvalidConfig),
    "running_counts_fraction": (lambda: running_counts(np.zeros(3), 1.5), InvalidConfig),
    "fumera_budget_fraction": (lambda: fumera_threshold_search(_BINARY, [0, 1, 1], _accuracy, 1.5), InvalidConfig),
    # vectors: a matrix or ragged nesting is DimensionMismatch, not counted flat or a numpy error
    "running_counts_matrix": (lambda: running_counts(np.zeros((2, 2)), 1), DimensionMismatch),
    "wilcoxon_matrix": (lambda: wilcoxon_signed_rank_one_sided(np.ones((3, 3))), DimensionMismatch),
    "compare_matrix_runs": (lambda: compare_methods({"a": np.ones((6, 2)), "b": np.zeros((6, 2))}),
                            DimensionMismatch),
    "smooth_matrix": (lambda: smooth_savitzky_golay(np.zeros((5, 2)), 3, 1), DimensionMismatch),
    "labels_ragged": (lambda: check_labels([[0], [0, 1]], 2), DimensionMismatch),
    "unsorted_ragged": (lambda: SortedPredictionSet.from_unsorted([[0.1], [0.2, 0.3]]), DimensionMismatch),
    "unsorted_ragged_labels": (lambda: SortedPredictionSet.from_unsorted([0.5, 0.1], [[0], [0, 1]]),
                               DimensionMismatch),
    "matrix_ragged": (lambda: ProbabilityMatrix([[0.5, 0.5], [1.0]]), DimensionMismatch),
    "priors_ragged": (lambda: PriorEstimate([[0.5], [0.25, 0.25]]), DimensionMismatch),
    "running_counts_ragged": (lambda: running_counts([[0.1], [0.2, 0.3]], 1), DimensionMismatch),
    "wilcoxon_ragged": (lambda: wilcoxon_signed_rank_one_sided([[0.1], [0.2, 0.3]]), DimensionMismatch),
    "smooth_ragged": (lambda: smooth_savitzky_golay([[0.1], [0.2, 0.3]], 1, 0), DimensionMismatch),
    "apply_calibrator_ragged": (lambda: apply_calibrator(Calibrator("temperature", 1.0, [0.0, 0.0]),
                                                         [[0.0, 1.0], [0.5]]), DimensionMismatch),
    "rank_correlations_ragged": (lambda: rank_correlations([[0.1], [0.2, 0.3]], [1.0, 2.0, 3.0]),
                                 DimensionMismatch),
    "from_binary_ragged": (lambda: ProbabilityMatrix.from_binary([[0.1], [0.2, 0.3]]), DimensionMismatch),
    "weights_ragged": (lambda: PenaltyWeightMatrix([[0.0], [1.0, 0.0]]), DimensionMismatch),
    "fumera_grid_ragged": (lambda: fumera_threshold_search(_BINARY, [0, 1, 1], _accuracy, 1, grid=[[0.0], [0.5, 1.0]]),
                           DimensionMismatch),
    "resample_ragged": (lambda: resample_with_shift([[0.1], [0.2, 0.3]], [0, 1], (0.5, 0.5), 2, 0),
                        DimensionMismatch),
    "compare_ragged": (lambda: compare_methods({"a": [[0.1], [0.2, 0.3]], "b": [0.0] * 6}), DimensionMismatch),
    "probabilities_ragged": (lambda: check_probabilities([[0.1], [0.2, 0.3]]), DimensionMismatch),
    "evaluate_metric_ragged": (lambda: evaluate_metric(MetricSpec("auroc"), [[0.1], [0.2, 0.3]], [0, 1]),
                               DimensionMismatch),
    "abstain_indices_ragged": (lambda: abstain_indices(MethodSpec("max_class_prob"), [[0.1], [0.2, 0.3]], 0.5,
                                                       MetricSpec("auroc"), MonteCarloConfig(2)), DimensionMismatch),
    "write_predictions_ragged": (lambda: write_predictions(os.devnull, [[0.1], [0.2, 0.3]]), DimensionMismatch),
    # the writer refuses what read_predictions would refuse, before the file is opened
    "write_predictions_fractional_labels": (lambda: write_predictions(os.devnull, [0.2, 0.6], [0.5, 1.7]),
                                            InvalidConfig),
    "write_predictions_nan_label": (lambda: write_predictions(os.devnull, [0.2, 0.6], [0.0, np.nan]), InvalidConfig),
    "write_predictions_binary_label_3": (lambda: write_predictions(os.devnull, [0.2, 0.6], [0, 3]), InvalidConfig),
    "write_predictions_nan_probability": (lambda: write_predictions(os.devnull, [0.2, np.nan]), InvalidConfig),
    "write_predictions_probability_above_one": (lambda: write_predictions(os.devnull, [0.2, 1.5]), InvalidConfig),
    "write_predictions_row_sum": (lambda: write_predictions(os.devnull, [[0.5, 0.5], [0.5, 0.6]]), InvalidConfig),
    "marginal_scores_ragged": (lambda: MarginalScoreVector([[0.1], [0.2, 0.3]]), DimensionMismatch),
    "window_scores_ragged": (lambda: WindowScoreVector([[0.1], [0.2, 0.3]], 1), DimensionMismatch),
    # EM arguments the CLI checks before reading, checked by the library too
    "em_tol_nan": (lambda: adapt_label_shift_em(_BINARY, PriorEstimate([0.5, 0.5]), tol=np.nan), InvalidConfig),
    "em_max_iter_negative": (lambda: adapt_label_shift_em(_BINARY, PriorEstimate([0.5, 0.5]), max_iter=-1),
                             InvalidConfig),
    "em_max_iter_fraction": (lambda: adapt_label_shift_em(_BINARY, PriorEstimate([0.5, 0.5]), max_iter=1.5),
                             InvalidConfig),
    # a Monte-Carlo config that is not one: one TypeError, not an AttributeError on `seed`
    "sens_mc_int": (lambda: score_windows_sens_at_spec(_SORTED, 0.9, 1, 5), TypeError),
    "auroc_mc_int": (lambda: score_windows_auroc(_SORTED, 1, mc=5), TypeError),
    "kappa_mc_int": (lambda: score_examples_kappa(_BINARY, _QUADRATIC, mc=5), TypeError),
    # sizes past numpy's range: InvalidConfig naming the field, not an OverflowError or a numpy error
    "mc_samples_past_max_size": (lambda: MonteCarloConfig(_PAST_MAX_SIZE), InvalidConfig),
    "binary_sim_n_past_max_size": (lambda: BinarySimConfig(0.1, 2.0, -1.0, 1.0, 2.0, 10**20, 0), InvalidConfig),
    "multiclass_sim_n_past_max_size": (lambda: MulticlassSimConfig((0.5, 0.5), (0.0, 1.0), (1.0, 1.0), _PAST_MAX_SIZE, 0),
                                       InvalidConfig),
    "method_grid_past_max_size": (lambda: MethodSpec("fumera", {"grid": 10**20}), InvalidConfig),
    "fumera_grid_past_max_size": (lambda: fumera_threshold_search(_BINARY, [0, 1, 1], _accuracy, 1, grid=_PAST_MAX_SIZE),
                                  InvalidConfig),
    "resample_m_past_max_size": (lambda: resample_with_shift(np.array([0.2, 0.8]), [0, 1], (0.5, 0.5), 10**20, 0),
                                 InvalidConfig),
    # soft counts whose threshold the whole levels do not decide (a scan gives 1), refused rather than answered
    "threshold_soft_counts": (lambda: specificity_threshold_index(running_counts([0.25, 0.5, 0.75, 1.0], 1).neg_suffix,
                                                                  1.5, 0.5), InvalidConfig),
    "threshold_denom_nan": (lambda: specificity_threshold_index(_NEG_SUFFIX, np.nan, 0.9), InvalidConfig),
    "threshold_denom_inf": (lambda: specificity_threshold_index(_NEG_SUFFIX, np.inf, 0.9), InvalidConfig),
    "threshold_denom_vector_inf": (lambda: specificity_threshold_index(_NEG_SUFFIX, np.array([2.0, np.inf]), 0.9),
                                   InvalidConfig),
    "threshold_removed_inf": (lambda: specificity_threshold_index(_NEG_SUFFIX, 2.0, 0.9, removed_above=np.inf),
                              InvalidConfig),
    "threshold_removed_nan": (lambda: specificity_threshold_index(_NEG_SUFFIX, 2.0, 0.9, removed_above=np.nan),
                              InvalidConfig),
    "rank_correlations_nan": (lambda: rank_correlations([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]), InvalidConfig),
    "rank_correlations_inf": (lambda: rank_correlations([1.0, 2.0, 3.0], [1.0, np.inf, 3.0]), InvalidConfig),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_each_bad_input_is_its_named_error(case):
    call, error = _CASES[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("kind", ["platt", "temperature"])
def test_apply_calibrator_rejects_non_finite_scores_as_the_fit_does(kind, bad):
    if kind == "platt":
        cal, scores = Calibrator("platt", 1.0, [0.0]), np.array([bad, 0.0])
    else:
        cal, scores = Calibrator("temperature", 1.0, [0.0, 0.0]), np.array([[0.0, 1.0], [bad, 0.0]])
    with pytest.raises(InvalidConfig, match="^raw scores must be finite$"):
        apply_calibrator(cal, scores)
    with pytest.raises(InvalidConfig, match="^raw scores must be finite$"):
        fit_calibrator(kind, np.repeat(scores, 6, axis=0), _TWELVE)


_NINE = np.linspace(0.05, 0.95, 9)


def _count_consumers(value):
    """Each count argument as (its valid integers, a call with ``value`` there and valid other inputs)."""
    sorted_nine = SortedPredictionSet(_NINE)
    return {
        "sens_budget": (range(1, 9), lambda: score_windows_sens_at_spec(sorted_nine, 0.5, value, MonteCarloConfig(2))),
        "auroc_budget": (range(1, 9), lambda: score_windows_auroc(sorted_nine, value)),
        "auroc_budget_mc": (range(1, 9), lambda: score_windows_auroc(sorted_nine, value, MonteCarloConfig(2))),
        "running_counts_window": (range(1, 10), lambda: running_counts(_NINE, value)),
        "smooth_window": (range(1, 10, 2), lambda: smooth_savitzky_golay(_NINE, value, 0)),
        "smooth_polyorder": (range(0, 5), lambda: smooth_savitzky_golay(_NINE, 5, value)),
        "select_count": (range(0, 10), lambda: select_abstentions(MarginalScoreVector(_NINE), value)),
        "fumera_budget": (range(-3, 13), lambda: fumera_threshold_search(_BINARY, [0, 1, 1], lambda p, y: y.size,
                                                                         value)),
        "em_max_iter": (range(0, 13), lambda: adapt_label_shift_em(_BINARY, PriorEstimate([0.5, 0.5]),
                                                                   max_iter=value)),
    }


@settings(derandomize=True, deadline=None, max_examples=80)
@given(value=st.one_of(st.integers(-3, 12), st.integers(-3, 12).map(np.int64), st.floats(-3.0, 12.0),
                       st.just(float("nan")), st.booleans()))
def test_every_count_argument_is_an_integer_or_invalid_config(value):
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    for name, (valid, call) in _count_consumers(value).items():
        try:
            call()
            got = None
        except AbstainkitError as exc:  # anything else, a numpy error included, fails the test
            got = exc
        if integer and value in valid:
            assert got is None, (name, value, got)
        elif integer:  # out of range: a named error, of the class its range check uses
            assert got is not None, (name, value)
        else:
            assert isinstance(got, InvalidConfig), (name, value, got)


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


def test_probability_matrix_names_its_bad_row():
    with pytest.raises(InvalidConfig, match=r"^row 1: probabilities sum to 0\.9; a row must sum to 1 within 1e-9$"):
        ProbabilityMatrix(np.array([[0.5, 0.4]]))
    want = "row 2: probabilities must be finite and lie in [0, 1], got [nan, 1.0]"
    with pytest.raises(InvalidConfig, match=f"^{re.escape(want)}$"):
        ProbabilityMatrix(np.array([[0.5, 0.5], [np.nan, 1.0]]))


# values in and out of [0, 1], non-finite ones, and sums just inside and just outside 1e-9 of 1
_PROBABILITY_CELLS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.5 + 5e-10, 0.5 + 2e-9, -0.0, -1e-12, 1.5, float("nan"), float("inf"),
                     -float("inf")]),
    st.floats(0.0, 1.0),
)


@st.composite
def _probability_arrays(draw):
    """A vector, or a matrix whose rows are a mix of valid rows (uniform or one-hot) and arbitrary cells."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(_PROBABILITY_CELLS, min_size=1, max_size=8)))
    columns = draw(st.integers(1, 4))
    row = st.one_of(
        st.just([1.0 / columns] * columns),
        st.integers(0, columns - 1).map(lambda c: [float(c == k) for k in range(columns)]),
        st.lists(_PROBABILITY_CELLS, min_size=columns, max_size=columns),
    )
    return np.array(draw(st.lists(row, min_size=1, max_size=6)))


def _named_row(call):
    """``(row, "range" or "sum")`` from the probability rule's InvalidConfig, or None if ``call`` passes it."""
    try:
        call()
    except InvalidConfig as exc:
        found = re.match(r"row (\d+): probabilities (must be finite|sum to)", str(exc))
        if found:
            return int(found[1]), "range" if found[2] == "must be finite" else "sum"
    return None


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=_probability_arrays())
def test_every_probability_consumer_applies_the_reader_rule(values):
    want = reader_probability_rule(values)
    consumers = {"check_probabilities": lambda: check_probabilities(values)}
    if values.ndim == 2:
        consumers["ProbabilityMatrix"] = lambda: ProbabilityMatrix(values)
    else:  # an unsorted vector that passes the rule is rejected afterwards, as unsorted
        consumers["SortedPredictionSet"] = lambda: SortedPredictionSet(values)
    for name, call in consumers.items():
        assert _named_row(call) == want, (name, values.tolist())
