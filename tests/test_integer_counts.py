"""Integer running counts of bool labels: the size rule and sums past 2**31.

Bool labels give int32 counts below 2**31 rows and int64 counts from
there. The auROC rank sums multiply labels by those counts and add the
products up; past about 150k rows that running sum no longer fits in
int32, so it is added in float, as is the product of the positives above
a window and the negatives inside it, and every score must still be the
bytes the float-label path gives.
"""

import numpy as np
import pytest

from abstainkit import SortedPredictionSet, auroc, running_counts, score_windows_auroc
from abstainkit.metrics import _count_dtype
from abstainkit.scoring import MonteCarloConfig, auroc_rank_sums

from oracles import float_label_auroc_window_scores

N = 150_000


@pytest.mark.parametrize("n, dtype", [(1, np.int32), (2**31 - 1, np.int32), (2**31, np.int64), (2**40, np.int64)])
def test_count_dtype_holds_every_count_up_to_n(n, dtype):
    assert _count_dtype(n) is dtype
    assert np.iinfo(dtype).max >= n


@pytest.fixture(scope="module")
def half_positive():
    labels = np.zeros(N, dtype=bool)
    labels[np.random.default_rng(3).choice(N, N // 2, replace=False)] = True
    # the full rank sum, and so the running sum's last entry, passes 2**31
    assert int(np.sum(labels * np.cumsum(~labels, dtype=np.int64))) > 2**31
    return labels


@pytest.mark.parametrize("d", [1, N // 10, 3 * N // 10])
def test_rank_sums_past_2_31_are_the_bytes_of_float_labels(half_positive, d):
    assert running_counts(half_positive, d).neg_prefix.dtype == np.int32
    got, want = auroc_rank_sums(half_positive, d), auroc_rank_sums(half_positive.astype(float), d)
    for field in ("post_sums", "remaining_neg", "remaining_pos"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("d", [3 * N // 10, N // 2])
def test_rank_sums_of_separated_labels_are_the_bytes_of_float_labels(d):
    # every negative below every positive: the positives above the first window times the negatives inside it,
    # (N - d) / 2 * d / 2 at d = 3N/10 and (N / 2) ** 2 at d = N/2, pass 2**31
    labels = np.arange(N) >= N // 2
    assert int(labels[d:].sum()) * d > 2**31
    got, want = auroc_rank_sums(labels, d), auroc_rank_sums(labels.astype(float), d)
    for field in ("post_sums", "remaining_neg", "remaining_pos"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes(), field


def test_exact_auroc_past_2_31_is_the_float_label_value(half_positive):
    counts = running_counts(half_positive.astype(float), window=1)
    rank_sum = float(np.sum(half_positive * counts.neg_prefix[:-1]))
    want = rank_sum / (counts.total_neg * counts.total_pos)
    got = auroc(SortedPredictionSet(np.linspace(0.0, 1.0, N), half_positive.astype(int)))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_sampled_auroc_past_2_31_is_the_bytes_of_float_labels():
    p = np.full(N, 0.5)
    got = score_windows_auroc(SortedPredictionSet(p), N // 10, mc=MonteCarloConfig(samples=2, seed=4)).scores
    assert got.tobytes() == float_label_auroc_window_scores(p, N // 10, 2, 4).tobytes()
