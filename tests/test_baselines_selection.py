"""Baseline priority rules, validation threshold search, and budget selection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstainkit import (
    MarginalScoreVector,
    PenaltyWeightMatrix,
    PriorEstimate,
    ProbabilityMatrix,
    SortedPredictionSet,
    WindowScoreVector,
    auroc,
    baseline_scores,
    fumera_threshold_search,
    select_abstentions,
    weighted_kappa,
)
from abstainkit.errors import BudgetMismatch, DegenerateDenominator, DegenerateExpectedCounts, MissingPriors

from oracles import direct_js_divergence, exhaustive_threshold_search


class TestBaselineScores:
    def test_uniform_row_has_maximal_entropy_priority(self):
        rows = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1], [0.4, 0.3, 0.2, 0.1]])
        priority = baseline_scores(ProbabilityMatrix(rows), method="entropy")
        assert priority.argmax() == 0
        assert priority[0] == pytest.approx(np.log(4), abs=1e-12)

    def test_row_equal_to_priors_has_top_js_priority(self):
        priors = PriorEstimate(np.array([0.6, 0.3, 0.1]))
        rows = np.array([[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.1, 0.1, 0.8]])
        priority = baseline_scores(
            ProbabilityMatrix(rows), priors=priors, method="js_divergence"
        )
        assert priority.argmax() == 0
        assert priority[0] == pytest.approx(0.0, abs=1e-12)

    def test_js_priorities_match_direct_formula(self):
        priors = np.array([0.1, 0.9])
        rows = np.array([[0.5, 0.5], [0.9, 0.1], [0.05, 0.95]])
        priority = baseline_scores(
            ProbabilityMatrix(rows), priors=priors, method="js_divergence"
        )
        for row, got in zip(rows, priority):
            assert got == pytest.approx(-direct_js_divergence(row, priors), abs=1e-12)
        # [0.05, 0.95] is closest to the priors, so it is abstained first
        assert priority.argmax() == 2

    def test_binary_orderings_coincide(self):
        # confidence, entropy and distance-from-half all order binary rows
        # identically
        rng = np.random.default_rng(0)
        p = rng.uniform(0.01, 0.99, 50)
        matrix = ProbabilityMatrix.from_binary(p)
        by_conf = np.argsort(baseline_scores(matrix, method="max_class_prob"), kind="stable")
        by_entropy = np.argsort(baseline_scores(matrix, method="entropy"), kind="stable")
        by_distance = np.argsort(-np.abs(p - 0.5), kind="stable")
        np.testing.assert_array_equal(by_conf, by_entropy)
        np.testing.assert_array_equal(by_conf, by_distance)

    def test_missing_inputs(self):
        matrix = ProbabilityMatrix.from_binary(np.array([0.2, 0.8]))
        with pytest.raises(MissingPriors):
            baseline_scores(matrix, method="js_divergence")

    def test_entropy_handles_exact_zeros(self):
        matrix = ProbabilityMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
        priority = baseline_scores(matrix, method="entropy")
        assert priority[0] == 0.0


def _auroc_metric(probs, labels):
    return auroc(SortedPredictionSet.from_unsorted(probs[:, 1], labels))


class TestFumeraSearch:
    def test_zero_budget_abstains_nothing(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0, 1, 40)
        matrix = ProbabilityMatrix.from_binary(p)
        labels = (rng.random(40) < p).astype(int)
        thresholds = fumera_threshold_search(
            matrix, labels, _auroc_metric, 0, grid=11
        )
        top = matrix.entries.argmax(axis=1)
        top_p = matrix.entries[np.arange(40), top]
        assert int((top_p < thresholds[top]).sum()) == 0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0, 1, 100)
        labels = (rng.random(100) < p).astype(int)
        matrix = ProbabilityMatrix.from_binary(p)
        grid = np.linspace(0, 1, 21)
        got = fumera_threshold_search(
            matrix, labels, _auroc_metric, 30, grid=grid
        )
        want = exhaustive_threshold_search(matrix.entries, labels, _auroc_metric, 30, grid)
        np.testing.assert_array_equal(got, want)

    def test_nonempty_binary_region_contains_half(self):
        # any abstained binary example has max-prob >= 0.5 below its class
        # threshold, so a point predicted at exactly 0.5 must also fall inside
        rng = np.random.default_rng(3)
        for trial in range(5):
            p = rng.uniform(0, 1, 60)
            labels = (rng.random(60) < p).astype(int)
            matrix = ProbabilityMatrix.from_binary(p)
            thresholds = fumera_threshold_search(
                matrix, labels, _auroc_metric, 15, grid=11
            )
            top = matrix.entries.argmax(axis=1)
            top_p = matrix.entries[np.arange(60), top]
            if (top_p < thresholds[top]).any():
                # probe the midpoint: argmax ties resolve to class 0
                assert 0.5 < thresholds[0]


def _kappa_metric(probs, labels):
    weights = PenaltyWeightMatrix.quadratic(probs.shape[1])
    return weighted_kappa(probs.argmax(axis=1), labels, weights)


def _picky_accuracy(probs, labels):
    # coarse values force score ties; some retained sets are rejected
    if labels.size % 3 == 0:
        raise DegenerateDenominator("rejected retained set")
    return round(float(np.mean(probs.argmax(axis=1) == labels)), 1)


def _minus_inf_on_even(probs, labels):
    # -inf is a score, not a skip: retained sets of even size score it
    if labels.size % 2 == 0:
        return -np.inf
    return round(float(np.mean(probs.argmax(axis=1) == labels)), 1)


@st.composite
def _fumera_instances(draw):
    """Rows and grid on the same lattice k/steps, so top-class probabilities
    equal grid values and tie; labels, metric and budget to go with them."""
    n_classes = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 25))
    steps = draw(st.sampled_from([4, 10]))
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, steps), min_size=n_classes - 1, max_size=n_classes - 1)))
        rows.append(np.diff([0, *cuts, steps]) / steps)
    grid = np.array(draw(st.lists(st.integers(0, steps), min_size=3, max_size=11, unique=True))) / steps
    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    metrics = [_kappa_metric, _picky_accuracy, _minus_inf_on_even] + ([_auroc_metric] if n_classes == 2 else [])
    metric = draw(st.sampled_from(metrics))
    return ProbabilityMatrix(np.array(rows)), labels, metric, draw(st.integers(0, n)), grid


class TestFumeraSearchProperties:
    @settings(derandomize=True, deadline=None)
    @given(_fumera_instances())
    def test_matches_exhaustive_oracle(self, instance):
        matrix, labels, metric, budget, grid = instance
        got = fumera_threshold_search(matrix, labels, metric, budget, grid=grid)
        want = exhaustive_threshold_search(matrix.entries, labels, metric, budget, grid)
        np.testing.assert_array_equal(got, want)

    @settings(derandomize=True, deadline=None)
    @given(_fumera_instances())
    def test_one_metric_call_per_distinct_feasible_abstained_set(self, instance):
        matrix, labels, metric, budget, grid = instance
        calls = []

        def counted(probs, retained):
            calls.append(retained.size)
            return metric(probs, retained)

        fumera_threshold_search(matrix, labels, counted, budget, grid=grid)
        top = matrix.entries.argmax(axis=1)
        top_p = matrix.entries[np.arange(matrix.n), top]
        abstained_sets = {
            tuple(np.flatnonzero(top_p < np.asarray(t)[top]))
            for t in itertools.product(grid, repeat=matrix.class_count)
        }
        assert len(calls) == sum(len(a) <= budget for a in abstained_sets)

    def test_minus_inf_first_score_is_kept(self):
        matrix = ProbabilityMatrix.from_binary(np.array([0.2, 0.6, 0.9]))
        labels = np.array([0, 1, 1])
        got = fumera_threshold_search(matrix, labels, lambda p, y: -np.inf, 1, grid=3)
        want = exhaustive_threshold_search(matrix.entries, labels, lambda p, y: -np.inf, 1, np.linspace(0, 1, 3))
        np.testing.assert_array_equal(got, want)

    def test_rejects_nan_grid_value(self):
        matrix = ProbabilityMatrix.from_binary(np.array([0.2, 0.6, 0.9]))
        with pytest.raises(ValueError, match="finite"):
            fumera_threshold_search(matrix, np.array([0, 1, 1]), _auroc_metric, 1, grid=[0.0, np.nan, 1.0])


class TestSelectAbstentions:
    def test_window_tie_break_prefers_first(self):
        scores = WindowScoreVector(np.full(7, 0.5), window_size=4)
        chosen = select_abstentions(scores, 4)
        np.testing.assert_array_equal(chosen, [0, 1, 2, 3])

    def test_window_increasing_takes_last(self):
        scores = WindowScoreVector(np.linspace(0, 1, 6), window_size=3)
        chosen = select_abstentions(scores, 3)
        np.testing.assert_array_equal(chosen, [5, 6, 7])

    def test_window_fraction_budget_must_match(self):
        scores = WindowScoreVector(np.zeros(8), window_size=3)
        # n = 10 rows and a window of 3: consistent
        chosen = select_abstentions(scores, 3)
        assert chosen.size == 3
        with pytest.raises(BudgetMismatch):
            select_abstentions(scores, 4)

    def test_window_scores_with_no_valid_window_are_named(self):
        # an unsmoothed Monte-Carlo scorer returns NaN for a window that never had a valid sample
        scores = WindowScoreVector(np.full(5, np.nan), window_size=2)
        with pytest.raises(DegenerateExpectedCounts, match="no window"):
            select_abstentions(scores, 2)
        partly = WindowScoreVector(np.array([np.nan, 0.2, 0.7, np.nan]), window_size=2)
        np.testing.assert_array_equal(select_abstentions(partly, 2), [2, 3])

    def test_top_k_selects_highest_with_low_index_ties(self):
        scores = MarginalScoreVector(np.array([0.3, 0.9, 0.1, 0.9]))
        chosen = select_abstentions(scores, 2)
        np.testing.assert_array_equal(chosen, [1, 3])
        tied = MarginalScoreVector(np.array([0.5, 0.5, 0.5, 0.1]))
        chosen = select_abstentions(tied, 2)
        np.testing.assert_array_equal(chosen, [0, 1])
