"""Core metric correctness against trivial cases and brute-force oracles."""

import numpy as np
import pytest

from abstainkit import (
    PenaltyWeightMatrix,
    ProbabilityMatrix,
    SortedPredictionSet,
    auroc,
    running_counts,
    sensitivity_at_specificity,
    weighted_kappa,
)
from abstainkit.errors import (
    DegenerateDenominator,
    InvalidSpecificity,
    NoNegatives,
    NoPositives,
)
from abstainkit.metrics import kappa_aggregates

from oracles import pairwise_auroc, scan_sensitivity


class TestSortedPredictionSet:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            SortedPredictionSet(np.array([0.5, 0.1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SortedPredictionSet(np.array([-0.1, 0.2]))

    def test_rejects_nan(self):
        for probs in ([0.2, np.nan], [np.nan, 0.2], [np.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                SortedPredictionSet(np.array(probs))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SortedPredictionSet.from_unsorted(np.array([0.7, np.nan, 0.1]))

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError, match="align"):
            SortedPredictionSet(np.array([0.1, 0.2]), np.array([1]))

    def test_from_unsorted_is_stable(self):
        probs = np.array([0.5, 0.2, 0.5, 0.1])
        labels = np.array([1, 0, 0, 1])
        preds = SortedPredictionSet.from_unsorted(probs, labels)
        assert preds.probs.tolist() == [0.1, 0.2, 0.5, 0.5]
        # the two tied 0.5 entries keep their original relative order
        assert preds.labels.tolist() == [1, 0, 1, 0]


class TestRunningCounts:
    def test_totals_and_monotonicity(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(50) < 0.3).astype(int)
        counts = running_counts(labels, window=7)
        assert counts.pos_suffix[0] + counts.neg_suffix[0] == 50
        assert np.all(np.diff(counts.pos_suffix) <= 0)
        assert np.all(np.diff(counts.pos_prefix) >= 0)
        assert np.all(np.diff(counts.neg_prefix) >= 0)

    def test_window_counts_match_suffix_difference(self):
        rng = np.random.default_rng(1)
        labels = (rng.random(30) < 0.5).astype(int)
        d = 5
        counts = running_counts(labels, window=d)
        for i in range(30 + 1 - d):
            assert counts.window_pos[i] == counts.pos_suffix[i] - counts.pos_suffix[i + d]
            assert counts.window_pos[i] == labels[i : i + d].sum()


class TestSensitivityAtSpecificity:
    def test_perfectly_separated(self):
        preds = SortedPredictionSet(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1]))
        assert sensitivity_at_specificity(preds, 0.5) == 1.0

    def test_interleaved_high_target(self):
        # only the topmost example sits above the index excluding all negatives
        preds = SortedPredictionSet(np.array([0.1, 0.4, 0.6, 0.9]), np.array([0, 1, 0, 1]))
        assert sensitivity_at_specificity(preds, 0.99) == 0.5

    def test_matches_threshold_scan_oracle(self):
        rng = np.random.default_rng(42)
        probs = np.sort(rng.uniform(0, 1, 1000))
        labels = (rng.random(1000) < probs).astype(int)
        preds = SortedPredictionSet(probs, labels)
        for s in (0.5, 0.9, 0.99):
            assert sensitivity_at_specificity(preds, s) == scan_sensitivity(probs, labels, s)

    def test_matches_threshold_scan_on_simulated_instance(self):
        from abstainkit import BinarySimConfig, simulate_binary

        cfg = BinarySimConfig(
            positive_prior=0.1, mu_pos=2.0, mu_neg=-1.0, sigma_pos=1.0, sigma_neg=2.0,
            n=1000, seed=0,
        )
        probs, labels, _ = simulate_binary(cfg)
        preds = SortedPredictionSet.from_unsorted(probs, labels)
        want = scan_sensitivity(preds.probs, preds.labels, 0.9)
        assert sensitivity_at_specificity(preds, 0.9) == want

    def test_nonincreasing_in_target(self):
        rng = np.random.default_rng(3)
        probs = np.sort(rng.uniform(0, 1, 200))
        labels = (rng.random(200) < probs).astype(int)
        preds = SortedPredictionSet(probs, labels)
        values = [sensitivity_at_specificity(preds, s) for s in np.linspace(0.01, 0.99, 25)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_errors(self):
        ones = SortedPredictionSet(np.array([0.2, 0.8]), np.array([1, 1]))
        zeros = SortedPredictionSet(np.array([0.2, 0.8]), np.array([0, 0]))
        with pytest.raises(NoNegatives):
            sensitivity_at_specificity(ones, 0.5)
        with pytest.raises(NoPositives):
            sensitivity_at_specificity(zeros, 0.5)
        ok = SortedPredictionSet(np.array([0.2, 0.8]), np.array([0, 1]))
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidSpecificity):
                sensitivity_at_specificity(ok, bad)


class TestAuroc:
    def test_perfect_and_inverted(self):
        probs = np.array([0.1, 0.2, 0.8, 0.9])
        assert auroc(SortedPredictionSet(probs, np.array([0, 0, 1, 1]))) == 1.0
        assert auroc(SortedPredictionSet(probs, np.array([1, 1, 0, 0]))) == 0.0

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(5, 51))
            probs = np.sort(rng.uniform(0, 1, n))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0], labels[-1] = 0, 1
            preds = SortedPredictionSet(probs, labels)
            assert auroc(preds) == pairwise_auroc(probs, labels)

    def test_pairwise_oracle_up_to_200(self):
        rng = np.random.default_rng(8)
        n = 200
        probs = np.sort(rng.uniform(0, 1, n))
        labels = (rng.random(n) < 0.4).astype(int)
        assert auroc(SortedPredictionSet(probs, labels)) == pairwise_auroc(probs, labels)

    def test_label_flip_symmetry(self):
        # complementing the label sequence (probs negated and re-sorted to
        # stay a valid ascending vector) complements the ranking probability
        rng = np.random.default_rng(9)
        probs = np.sort(rng.choice(np.linspace(0.01, 0.99, 500), size=60, replace=False))
        labels = (rng.random(60) < 0.5).astype(int)
        if labels.sum() in (0, 60):
            labels[0] = 1 - labels[0]
        forward = auroc(SortedPredictionSet(probs, labels))
        mirrored = auroc(SortedPredictionSet(np.sort(1.0 - probs), 1 - labels))
        assert forward + mirrored == pytest.approx(1.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(NoPositives):
            auroc(SortedPredictionSet(np.array([0.2, 0.8]), np.array([0, 0])))
        with pytest.raises(NoNegatives):
            auroc(SortedPredictionSet(np.array([0.2, 0.8]), np.array([1, 1])))


class TestWeightedKappa:
    def setup_method(self):
        self.quadratic = PenaltyWeightMatrix.quadratic(5)

    def test_perfect_agreement(self):
        labels = np.array([0, 1, 2, 3, 4, 2, 1])
        assert weighted_kappa(labels, labels, self.quadratic) == 1.0

    def test_hand_instance_frozen_from_direct_formula(self):
        pred = np.array([0, 1, 2, 3, 4, 0])
        true = np.array([0, 2, 2, 4, 4, 1])
        # direct evaluation: observed = 0+1+0+1+0+1 = 3;
        # expected = sum_ij (i-j)^2 * (N_i/6) * F_j = 166/6
        got = weighted_kappa(pred, true, self.quadratic)
        assert got == pytest.approx(1.0 - 3.0 / (166.0 / 6.0), abs=1e-12)

    def test_constant_predictions_match_direct_formula(self):
        pred = np.zeros(6, dtype=int)
        true = np.array([0, 0, 1, 2, 3, 4])
        # observed = 0+0+1+4+9+16 = 30; expected = sum_i i^2 * N_i = 30
        got = weighted_kappa(pred, true, self.quadratic)
        assert got == pytest.approx(1.0 - 30.0 / 30.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        pred = rng.integers(0, 4, 40)
        true = rng.integers(0, 4, 40)
        w = PenaltyWeightMatrix(rng.uniform(0, 3, (4, 4)) * (1 - np.eye(4)))
        base = weighted_kappa(pred, true, w)
        perm = rng.permutation(4)
        w_perm = PenaltyWeightMatrix(w.weights[np.ix_(perm, perm)])
        inverse = np.argsort(perm)
        assert weighted_kappa(inverse[pred], inverse[true], w_perm) == pytest.approx(base, abs=1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            weighted_kappa(np.zeros(4, dtype=int), np.zeros(4, dtype=int), self.quadratic)

    def test_too_few_rows_is_a_degenerate_denominator(self):
        # one row pairs its own classes, so kappa has no chance term to compare with
        for n in (0, 1):
            labels = np.zeros(n, dtype=int)
            with pytest.raises(DegenerateDenominator, match="need at least 2 examples"):
                weighted_kappa(labels, labels, self.quadratic)
            with pytest.raises(DegenerateDenominator, match="need at least 2 examples"):
                kappa_aggregates(self.quadratic, np.ones(5), np.bincount(labels, minlength=5))

    def test_can_be_negative(self):
        pred = np.array([0, 0, 4, 4])
        true = np.array([4, 4, 0, 0])
        assert weighted_kappa(pred, true, self.quadratic) < 0


class TestProbabilityMatrix:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ProbabilityMatrix(np.array([[0.5, 0.4]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityMatrix(np.array([[0.5, 0.5], [np.nan, 1.0]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityMatrix.from_binary(np.array([0.2, np.nan]))

    def test_from_binary(self):
        m = ProbabilityMatrix.from_binary(np.array([0.2, 0.7]))
        assert m.class_count == 2
        np.testing.assert_allclose(m.entries[:, 1], [0.2, 0.7])

    def test_penalty_weights_validated(self):
        with pytest.raises(ValueError, match="square"):
            PenaltyWeightMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="nonnegative"):
            PenaltyWeightMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
