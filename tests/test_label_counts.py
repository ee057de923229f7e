"""Bool labels: one-cumsum running counts and the sampled kernels built on them.

The Monte-Carlo window scorers draw each sample's labels as a bool array,
for which `running_counts` takes one cumulative sum and derives the
negative counts from it. The float two-cumsum path stays the reference:
every count array and every score must carry its exact bytes, both for
samples whose windows are all valid and for samples where some are not.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abstainkit import SortedPredictionSet, auroc, running_counts, score_windows_auroc, score_windows_sens_at_spec
from abstainkit import scoring
from abstainkit.scoring import MonteCarloConfig

from oracles import float_label_auroc_window_scores, full_range_sens_window_scores, same_stream_window_means

FIELDS = ("pos_suffix", "neg_suffix", "pos_prefix", "neg_prefix", "window_pos", "window_neg")


def _assert_counts_match_float_labels(labels):
    for d in range(1, labels.size + 1):
        got = running_counts(labels, d)
        want = running_counts(labels.astype(float), d)
        for field in FIELDS:
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == np.int32, (d, field)
            assert a.astype(float).tobytes() == b.tobytes(), (d, field)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 500), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@example(1, 0.5, 0)
@example(500, 0.5, 0)
def test_bool_label_counts_are_the_bytes_of_float_label_counts(n, rate, seed):
    _assert_counts_match_float_labels(np.random.default_rng(seed).random(n) < rate)


@pytest.mark.parametrize("n", [1, 2, 37, 500])
@pytest.mark.parametrize("value", [False, True])
def test_single_class_label_counts_are_the_bytes_of_float_label_counts(n, value):
    _assert_counts_match_float_labels(np.full(n, value))


@st.composite
def _sampled_instances(draw):
    """Sorted probabilities, a window size, a target and a seed. Besides soft
    values, a few nonzero probabilities among zeros (or a few below one among
    ones) make samples that lose a class or hold every positive in a window."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["soft", "few_positives", "few_negatives"]))
    if kind == "soft":
        p = rng.random(n) ** rng.uniform(0.3, 4.0)
    else:
        k = int(rng.integers(0, min(n, 6) + 1))
        p = np.zeros(n)
        p[rng.choice(n, k, replace=False)] = rng.random(k)
        if kind == "few_negatives":
            p = 1.0 - p
    d = draw(st.integers(1, n - 1))
    s = draw(st.floats(0.01, 0.99))
    return np.sort(p), d, s, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_sampled_instances())
def test_sens_scores_are_bytes_of_the_float_label_reference(instance):
    p, d, s, seed = instance
    got = score_windows_sens_at_spec(SortedPredictionSet(p), s, d, MonteCarloConfig(samples=8, seed=seed)).scores
    assert got.tobytes() == full_range_sens_window_scores(p, d, s, 8, seed).tobytes()


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_sampled_instances())
def test_auroc_scores_are_bytes_of_the_float_label_reference(instance):
    p, d, _, seed = instance
    got = score_windows_auroc(SortedPredictionSet(p), d, mc=MonteCarloConfig(samples=8, seed=seed)).scores
    assert got.tobytes() == float_label_auroc_window_scores(p, d, 8, seed).tobytes()
    if p.size <= 24:
        assert got.tobytes() == same_stream_window_means(p, d, 8, seed, auroc).tobytes()


@pytest.fixture
def valid_kinds(monkeypatch):
    """Whether each sample a scorer draws has all, some or none of its windows valid."""
    kinds = []
    accumulate = scoring._monte_carlo_mean

    def recording(mc, size, draw, score):
        def scored(labels):
            values, valid = score(labels)
            kinds.append("all" if valid is True else "some" if valid.any() else "none")
            return values, valid

        return accumulate(mc, size, draw, scored)

    monkeypatch.setattr(scoring, "_monte_carlo_mean", recording)
    return kinds


@pytest.mark.parametrize("scorer", ["sens", "auroc"])
def test_all_valid_and_partly_valid_samples_share_one_mean(valid_kinds, scorer):
    # 10 positives of probability 0.3 above 30 certain negatives: some samples
    # put every positive in one 6-row window, and some draw none
    p = np.concatenate([np.zeros(30), np.full(10, 0.3)])
    preds, mc = SortedPredictionSet(p), MonteCarloConfig(samples=40, seed=1)
    if scorer == "sens":
        got = score_windows_sens_at_spec(preds, 0.8, 6, mc).scores
        want = full_range_sens_window_scores(p, 6, 0.8, 40, 1)
    else:
        got = score_windows_auroc(preds, 6, mc=mc).scores
        want = float_label_auroc_window_scores(p, 6, 40, 1)
    assert {"all", "some", "none"} <= set(valid_kinds)
    assert got.tobytes() == want.tobytes()
