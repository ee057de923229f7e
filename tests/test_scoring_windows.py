"""Window scorers for sensitivity-at-specificity and auROC.

The load-bearing checks are the oracle equivalences: with 0/1 probabilities
every scorer must reproduce brute-force remove-and-recompute values exactly,
and with soft probabilities the deterministic scorer must match naive
definitional evaluation while the Monte-Carlo scorer must sit within
sampling error of a from-scratch resampling estimate.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abstainkit import (
    SortedPredictionSet,
    auroc,
    running_counts,
    score_windows_auroc,
    score_windows_sens_at_spec,
    sensitivity_at_specificity,
)
from abstainkit.errors import (
    BudgetTooLarge, DegenerateExpectedCounts, InvalidConfig, InvalidSpecificity, NoNegatives,
)
from abstainkit.metrics import specificity_threshold_index
from abstainkit.scoring import MonteCarloConfig, auroc_rank_sums

from oracles import (
    full_range_sens_window_scores,
    metric_without_window,
    naive_auroc_window_scores,
    naive_mc_sens_windows,
    naive_post_rank_sums,
    same_stream_window_means,
)


def _hard_instance(rng, n_min=20, n_max=60):
    """0/1 probabilities (all zeros then all ones) with a window size that
    keeps both classes in every window's complement."""
    n = int(rng.integers(n_min, n_max + 1))
    k = int(rng.integers(4, n - 4))
    d = int(rng.integers(1, min(k, n - k)))
    p = np.concatenate([np.zeros(k), np.ones(n - k)])
    return p, d


class TestThresholdVectors:
    """Threshold indices after j negatives below (left) or above (right) it
    are abstained on, as the sens window scorer forms them."""

    @staticmethod
    def _shifted(counts, s, max_removed):
        j = np.arange(max_removed + 1)
        denom = counts.total_neg - j
        left = specificity_threshold_index(counts.neg_suffix, denom, s)
        right = specificity_threshold_index(counts.neg_suffix, denom, s, removed_above=j)
        return left, right

    def test_shift_directions(self):
        rng = np.random.default_rng(0)
        counts = running_counts(rng.random(80) < 0.4, window=10)
        left, right = self._shifted(counts, 0.8, 9)
        pre = specificity_threshold_index(counts.neg_suffix, counts.total_neg, 0.8)
        # dropping negatives below the threshold pushes it up; above, down
        assert np.all(left >= pre)
        assert np.all(right <= pre)
        assert left[0] == right[0] == pre

    def test_matches_definition(self):
        rng = np.random.default_rng(1)
        counts = running_counts(rng.random(40) < 0.5, window=5)
        n_neg = counts.total_neg
        s = 0.7
        left_shift, right_shift = self._shifted(counts, s, int(n_neg) - 1)
        for j in range(int(n_neg)):
            left = min(
                i for i in range(41) if 1.0 - counts.neg_suffix[i] / (n_neg - j) >= s
            )
            right = min(
                i for i in range(41) if 1.0 - (counts.neg_suffix[i] - j) / (n_neg - j) >= s
            )
            assert left_shift[j] == left
            assert right_shift[j] == right

    def test_cannot_remove_all_negatives(self):
        counts = running_counts(np.array([False, False, True, True]), window=1)
        with pytest.raises(NoNegatives, match="no negatives remain"):
            self._shifted(counts, 0.5, 2)

    @settings(derandomize=True, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=10, max_size=60),
        st.one_of(st.floats(0.0, 1e-9), st.floats(0.0, 1.0), st.floats(1.0 - 1e-9, 1.0)),
    )
    # (1 - s) * denom rounds to just below the whole count 1, and 1 - 9/10 to just below s
    @example([False] * 5 + [True] * 5, 0.8)
    @example([False] * 10 + [True] * 2, 0.1)
    def test_matches_linear_scan(self, labels, s):
        # bool labels give int32 runs of equal neg_suffix values. Both vector
        # forms the scorer uses are checked, for every count it removes:
        # removed negatives below the threshold (left) and above it (right).
        counts = running_counts(np.array(labels), window=1)
        neg_suffix = counts.neg_suffix
        assert neg_suffix.dtype == np.int32
        n, total = len(labels), counts.total_neg
        if total == 0:
            return
        removed = np.arange(neg_suffix[0])
        denom = total - removed

        # decimal targets put (1 - s) * denom a rounding error off an integer count
        for target in (s, 0.5, 0.7, 0.8, 0.9, 0.95):
            def scan(d, r):
                return next((i for i in range(n) if 1.0 - (neg_suffix[i] - r) / d >= target), n)

            left = specificity_threshold_index(neg_suffix, denom, target)
            right = specificity_threshold_index(neg_suffix, denom, target, removed_above=removed)
            assert left.shape == right.shape == denom.shape
            assert left.tolist() == [scan(d, 0) for d in denom]
            assert right.tolist() == [scan(d, r) for d, r in zip(denom, removed)]
            single = specificity_threshold_index(neg_suffix, total, target)
            assert type(single) is int and single == scan(total, 0)

    def test_integer_counts_are_searched_without_a_float_copy(self):
        # a float copy of neg_suffix alone would take 8 bytes per entry
        counts = running_counts(np.random.default_rng(2).random(200_000) < 0.4, window=1)
        neg_suffix = counts.neg_suffix
        assert neg_suffix.dtype == np.int32
        j = np.arange(500)
        for denom, removed_above in ((counts.total_neg, 0), (counts.total_neg - j, np.stack((np.zeros_like(j), j)))):
            tracemalloc.start()
            try:
                specificity_threshold_index(neg_suffix, denom, 0.9, removed_above=removed_above)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * neg_suffix.size

    @pytest.mark.parametrize("denom, removed_above", [
        (np.nan, 0), (1e12, 0), (30.0, 2**40), (np.array([30.0, np.nan, 1e12]), 3),
    ])
    def test_integer_counts_take_keys_past_their_range_as_found_by_the_linear_scan(self, denom, removed_above):
        neg_suffix = running_counts(np.random.default_rng(3).random(60) < 0.4, window=1).neg_suffix
        if np.isnan(denom).any():
            with pytest.raises(InvalidConfig, match="must be finite"):
                specificity_threshold_index(neg_suffix, denom, 0.9, removed_above)
            return
        n = neg_suffix.size - 1
        want = next((i for i in range(n) if 1.0 - (int(neg_suffix[i]) - removed_above) / denom >= 0.9), n)
        got = specificity_threshold_index(neg_suffix, denom, 0.9, removed_above)
        assert type(got) is int and got == want


@st.composite
def _window_instances(draw):
    """Sorted soft probabilities (0 and 1 included), a window size and a seed."""
    n = draw(st.integers(3, 12))
    p = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return np.sort(np.array(p)), draw(st.integers(1, n - 1)), draw(st.integers(0, 2**32 - 1))


class TestSameStreamOracle:
    """Each MC window score is exactly the mean, over that window's valid
    samples, of the metric recomputed on the labels drawn from the same streams."""

    @settings(derandomize=True, deadline=None)
    @given(_window_instances(), st.floats(0.05, 0.95))
    def test_sens_equals_remove_and_recompute_mean(self, instance, s):
        p, d, seed = instance
        mc = MonteCarloConfig(samples=6, seed=seed, smooth=False)
        got = score_windows_sens_at_spec(SortedPredictionSet(p), s, d, mc).scores
        want = same_stream_window_means(
            p, d, 6, seed, sensitivity_at_specificity, target_specificity=s
        )
        np.testing.assert_array_equal(got, want)

    @settings(derandomize=True, deadline=None)
    @given(_window_instances())
    def test_auroc_equals_remove_and_recompute_mean(self, instance):
        p, d, seed = instance
        mc = MonteCarloConfig(samples=6, seed=seed, smooth=False)
        got = score_windows_auroc(SortedPredictionSet(p), d, mc=mc).scores
        np.testing.assert_array_equal(got, same_stream_window_means(p, d, 6, seed, auroc))


@st.composite
def _edge_window_instances(draw):
    """Sorted probabilities that are often exactly 0.0 or 1.0, so samples lose
    a class and windows hold every negative, plus a target near 0, near 1 or
    between, and a seed."""
    n = draw(st.integers(2, 12))
    cell = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    p = np.sort(np.array(draw(st.lists(cell, min_size=n, max_size=n))))
    s = draw(st.one_of(
        st.floats(0.0, 0.05, exclude_min=True), st.floats(0.05, 0.95), st.floats(0.95, 1.0, exclude_max=True)
    ))
    return p, s, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None)
@given(_edge_window_instances())
def test_sens_scores_are_bytes_of_the_full_range_reference(instance):
    # the scorer searches thresholds only for the negative counts its windows
    # remove; the reference searches every count from 0 to the cap
    p, s, seed = instance
    mc = MonteCarloConfig(samples=8, seed=seed, smooth=False)
    for d in range(1, p.size):
        got = score_windows_sens_at_spec(SortedPredictionSet(p), s, d, mc).scores
        want = full_range_sens_window_scores(p, d, s, 8, seed)
        assert got.tobytes() == want.tobytes(), (d, got, want)


@st.composite
def _lattice_window_instances(draw):
    """Sorted probabilities k/steps (steps 1 gives hard 0/1 values), so values
    tie, with their integer numerators and a window size."""
    steps = draw(st.sampled_from([1, 4, 10]))
    n = draw(st.integers(3, 12))
    ks = np.sort(draw(st.lists(st.integers(0, steps), min_size=n, max_size=n)))
    return ks / steps, ks, steps, draw(st.integers(1, n - 1))


class TestDeterministicOracle:
    @settings(derandomize=True, deadline=None)
    @given(_lattice_window_instances())
    def test_auroc_equals_naive_double_loop(self, instance):
        p, ks, steps, d = instance
        preds = SortedPredictionSet(p)
        # expected class mass left by each window, in exact units of 1/steps
        kept_pos = ks.sum() - np.convolve(ks, np.ones(d, dtype=int), "valid")
        kept_neg = (p.size - d) * steps - kept_pos
        if min(kept_pos.min(), kept_neg.min()) == 0:
            with pytest.raises(DegenerateExpectedCounts):
                score_windows_auroc(preds, d)
            return
        got = score_windows_auroc(preds, d).scores
        np.testing.assert_allclose(got, naive_auroc_window_scores(p, d), rtol=0, atol=1e-10)


class TestSensWindowScorer:
    def test_degenerate_probability_collapse_exact(self):
        rng = np.random.default_rng(7)
        mc = MonteCarloConfig(samples=1, seed=0, smooth=False)
        for _ in range(15):
            p, d = _hard_instance(rng)
            s = float(rng.uniform(0.05, 0.95))
            scores = score_windows_sens_at_spec(SortedPredictionSet(p), s, d, mc).scores
            labels = p.astype(int)
            for i in range(p.size + 1 - d):
                want = metric_without_window(
                    p, labels, i, d, sensitivity_at_specificity, target_specificity=s
                )
                assert scores[i] == want

    def test_matches_naive_monte_carlo_within_sampling_error(self):
        rng = np.random.default_rng(11)
        n, d, samples, s = 50, 11, 2500, 0.8
        p = np.sort(rng.uniform(0.05, 0.95, n))
        got = score_windows_sens_at_spec(
            SortedPredictionSet(p), s, d, MonteCarloConfig(samples=samples, seed=5, smooth=False)
        ).scores
        means, errs = naive_mc_sens_windows(p, d, s, samples, np.random.default_rng(999))
        # both estimators carry MC error of the same size
        tol = 3.0 * np.sqrt(2.0) * errs
        assert np.all(np.abs(got - means) <= tol)

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(13)
        p = np.sort(rng.uniform(0, 1, 300))
        preds = SortedPredictionSet(p)
        mc = MonteCarloConfig(samples=50, seed=99, smooth=True)
        a = score_windows_sens_at_spec(preds, 0.9, 40, mc).scores
        b = score_windows_sens_at_spec(preds, 0.9, 40, mc).scores
        np.testing.assert_array_equal(a, b)
        c = score_windows_sens_at_spec(preds, 0.9, 40, MonteCarloConfig(50, seed=100)).scores
        assert not np.array_equal(a, c)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(14)
        p = np.sort(rng.uniform(0, 1, 200))
        mc = MonteCarloConfig(samples=30, seed=2, smooth=True)
        scores = score_windows_sens_at_spec(SortedPredictionSet(p), 0.9, 30, mc)
        assert len(scores) == 200 + 1 - 30
        assert scores.scores.min() >= 0.0 and scores.scores.max() <= 1.0

    def test_budget_and_specificity_validation(self):
        preds = SortedPredictionSet(np.linspace(0, 1, 10))
        mc = MonteCarloConfig(samples=1)
        with pytest.raises(BudgetTooLarge):
            score_windows_sens_at_spec(preds, 0.9, 10, mc)
        with pytest.raises(BudgetTooLarge):
            score_windows_sens_at_spec(preds, 0.9, 0, mc)
        with pytest.raises(InvalidSpecificity):
            score_windows_sens_at_spec(preds, 1.0, 3, mc)
        with pytest.raises(InvalidSpecificity):
            score_windows_sens_at_spec(preds, None, 3, mc)


class TestAurocRankSums:
    def test_post_sum_identity_exact(self):
        # the algebraic shortcut must equal the definitional double loop
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(10, 60))
            d = int(rng.integers(1, n))
            labels = rng.integers(0, 2, n).astype(float)
            sums = auroc_rank_sums(labels, d)
            np.testing.assert_array_equal(sums.post_sums, naive_post_rank_sums(labels, d))

    def test_identity_holds_for_soft_values(self):
        rng = np.random.default_rng(22)
        p = np.sort(rng.uniform(0, 1, 35))
        sums = auroc_rank_sums(p, 8)
        np.testing.assert_allclose(sums.post_sums, naive_post_rank_sums(p, 8), atol=1e-9)


class TestAurocWindowScorer:
    def test_degenerate_probability_collapse_exact(self):
        rng = np.random.default_rng(23)
        mc = MonteCarloConfig(samples=3, seed=1, smooth=False)
        for _ in range(15):
            p, d = _hard_instance(rng)
            preds = SortedPredictionSet(p)
            det = score_windows_auroc(preds, d).scores
            sampled = score_windows_auroc(preds, d, mc=mc).scores
            labels = p.astype(int)
            for i in range(p.size + 1 - d):
                want = metric_without_window(p, labels, i, d, auroc)
                assert det[i] == want
                assert sampled[i] == want

    def test_deterministic_matches_naive_double_loop(self):
        rng = np.random.default_rng(24)
        n, d = 40, 10
        p = np.sort(rng.uniform(0, 1, n))
        got = score_windows_auroc(SortedPredictionSet(p), d).scores
        np.testing.assert_allclose(got, naive_auroc_window_scores(p, d), atol=1e-10)

    def test_monte_carlo_tracks_deterministic(self):
        rng = np.random.default_rng(25)
        p = np.sort(rng.uniform(0.02, 0.98, 400))
        preds = SortedPredictionSet(p)
        det = score_windows_auroc(preds, 50).scores
        mc = score_windows_auroc(
            preds, 50, mc=MonteCarloConfig(samples=400, seed=3, smooth=True)
        ).scores
        assert np.abs(mc - det).max() < 0.02

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(26)
        p = np.sort(rng.uniform(0, 1, 150))
        det = score_windows_auroc(SortedPredictionSet(p), 20)
        assert det.scores.min() >= 0.0 and det.scores.max() <= 1.0
        mcs = score_windows_auroc(
            SortedPredictionSet(p), 20, mc=MonteCarloConfig(40, seed=4, smooth=True)
        )
        assert mcs.scores.min() >= 0.0 and mcs.scores.max() <= 1.0

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(27)
        p = np.sort(rng.uniform(0, 1, 120))
        preds = SortedPredictionSet(p)
        mc = MonteCarloConfig(samples=25, seed=8, smooth=False)
        a = score_windows_auroc(preds, 15, mc=mc).scores
        b = score_windows_auroc(preds, 15, mc=mc).scores
        np.testing.assert_array_equal(a, b)

    def test_deterministic_degenerate_counts(self):
        # every probability ~1: expected negative mass vanishes
        p = np.full(20, 1.0 - 1e-15)
        with pytest.raises(DegenerateExpectedCounts):
            score_windows_auroc(SortedPredictionSet(p), 5)

    def test_budget_validation(self):
        preds = SortedPredictionSet(np.linspace(0, 1, 8))
        with pytest.raises(BudgetTooLarge):
            score_windows_auroc(preds, 8)


class TestDegenerateSamples:
    def test_skipped_samples_keep_scores_finite(self):
        # coin-flip probabilities on a tiny set: many samples lose a whole
        # class for some window, yet each window averages its valid samples
        preds = SortedPredictionSet(np.full(4, 0.5))
        mc = MonteCarloConfig(samples=200, seed=0, smooth=False)
        sens = score_windows_sens_at_spec(preds, 0.5, 1, mc)
        roc = score_windows_auroc(preds, 1, mc=mc)
        assert np.isfinite(sens.scores).all()
        assert np.isfinite(roc.scores).all()
        assert np.all(roc.scores >= 0.0) and np.all(roc.scores <= 1.0)

    def test_all_samples_degenerate_yields_nan(self):
        # both probabilities 0: every sample lacks positives entirely
        preds = SortedPredictionSet(np.zeros(2))
        mc = MonteCarloConfig(samples=5, seed=0, smooth=False)
        scores = score_windows_sens_at_spec(preds, 0.5, 1, mc).scores
        assert np.isnan(scores).all()

    def test_smoothing_refuses_never_valid_windows(self):
        preds = SortedPredictionSet(np.zeros(12))
        mc = MonteCarloConfig(samples=3, seed=0, smooth=True)
        with pytest.raises(ValueError, match="valid sample"):
            score_windows_sens_at_spec(preds, 0.5, 1, mc)


@pytest.mark.parametrize("fields, message", [
    (dict(samples=2.5), "samples and seed must be integers"),
    (dict(samples=True), "samples and seed must be integers"),
    (dict(samples=2, seed=1.5), "samples and seed must be integers"),
    (dict(samples=0), "samples must be >= 1, got 0"),
    (dict(samples=2, seed=-1), "seed must be >= 0, got -1"),
])
def test_monte_carlo_config_checks_its_counts(fields, message):
    with pytest.raises(InvalidConfig, match=message):
        MonteCarloConfig(**fields)
    assert MonteCarloConfig(samples=np.int64(2), seed=np.int64(3)).samples == 2
