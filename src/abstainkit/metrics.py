"""Exact post-hoc metrics on calibrated predictions plus the shared count types.

Everything here is a pure function of immutable inputs: values may be shared
freely across threads. Counts are carried as float64 arrays whose entries are
exact integers (safe below 2**53), so ratio computations are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    InvalidConfig,
    NoNegatives,
    NoPositives,
    check_labels,
    check_specificity,
)

__all__ = [
    "SortedPredictionSet",
    "ProbabilityMatrix",
    "PenaltyWeightMatrix",
    "SuffixCounts",
    "KappaAggregates",
    "running_counts",
    "specificity_threshold_index",
    "sensitivity_at_specificity",
    "auroc",
    "weighted_kappa",
    "kappa_aggregates",
]


@dataclass(frozen=True)
class SortedPredictionSet:
    """Binary predictions sorted ascending, optionally with ground-truth labels.

    probs[i] <= probs[i+1] is enforced; ties keep their given order, and every
    rank-based quantity downstream treats that order as the ranking.
    """

    probs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1:
            raise DimensionMismatch("probs must be a 1-D vector")
        if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):  # NaN fails too
            raise InvalidConfig("probs must lie in [0, 1]")
        if np.any(np.diff(probs) < 0):
            raise InvalidConfig("probs must be sorted ascending; use from_unsorted()")
        object.__setattr__(self, "probs", probs)
        if self.labels is not None:
            object.__setattr__(self, "labels", check_labels(self.labels, 2, probs.size))

    @classmethod
    def from_unsorted(cls, probs, labels=None) -> "SortedPredictionSet":
        """Stable-sort probs ascending and carry labels along."""
        probs = np.asarray(probs, dtype=float)
        order = np.argsort(probs, kind="stable")
        # labels that do not align go on unsorted, for the constructor to reject
        if labels is not None and np.shape(labels) == probs.shape:
            labels = np.asarray(labels)[order]
        return cls(probs[order], labels)

    @property
    def n(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ProbabilityMatrix:
    """N x C calibrated class probabilities; every row lives on the simplex."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise DimensionMismatch("entries must be an N x C matrix")
        if entries.size and not (entries.min() >= 0.0 and entries.max() <= 1.0):  # NaN fails too
            raise InvalidConfig("entries must lie in [0, 1]")
        row_sums = entries.sum(axis=1)
        if entries.size and np.abs(row_sums - 1.0).max() > 1e-9:
            raise InvalidConfig("rows must sum to 1 within 1e-9")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def class_count(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def from_binary(cls, positive_probs) -> "ProbabilityMatrix":
        """Lift a vector of positive-class probabilities to a 2-column matrix."""
        p = np.asarray(positive_probs, dtype=float)
        return cls(np.column_stack([1.0 - p, p]))


@dataclass(frozen=True)
class PenaltyWeightMatrix:
    """C x C nonnegative penalties: weights[i, j] is the cost of predicting
    class j for an example whose true class is i."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise DimensionMismatch("weights must be square")
        if weights.size and not weights.min() >= 0:  # NaN fails too
            raise InvalidConfig("weights must be nonnegative")
        object.__setattr__(self, "weights", weights)

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def quadratic(cls, class_count: int) -> "PenaltyWeightMatrix":
        """The (i - j)^2 penalty used for ordinal rating agreement."""
        idx = np.arange(class_count)
        return cls((idx[:, None] - idx[None, :]).astype(float) ** 2)


@dataclass(frozen=True)
class SuffixCounts:
    """Running positive/negative counts over a sorted prediction vector.

    All six arrays are derived from cumulative sums:

    - ``pos_suffix[i]`` / ``neg_suffix[i]``: mass at indices >= i (length N+1)
    - ``pos_prefix[i]`` / ``neg_prefix[i]``: mass at indices < i (length N+1)
    - ``window_pos[i]`` / ``window_neg[i]``: mass inside [i, i+d) (length N+1-d)

    "Mass" is a 0/1 count when built from labels and an expected count when
    built from probabilities. Counts of labels are exact integers, so for bool
    labels the negative arrays are derived from the positive ones
    (``neg_prefix[i] = i - pos_prefix[i]``, ``window_neg = d - window_pos``)
    with the bits a second cumulative sum would give. Expected counts keep a
    second cumulative sum, of ``1 - p``: ``i - cumsum(p)`` rounds differently,
    and the deterministic scores would move with it.
    """

    pos_suffix: np.ndarray
    neg_suffix: np.ndarray
    pos_prefix: np.ndarray
    neg_prefix: np.ndarray
    window_pos: np.ndarray
    window_neg: np.ndarray

    @property
    def total_pos(self) -> float:
        return float(self.pos_suffix[0])

    @property
    def total_neg(self) -> float:
        return float(self.neg_suffix[0])


def running_counts(values, window: int) -> SuffixCounts:
    """Build :class:`SuffixCounts` from labels (0/1) or probabilities.

    ``window`` is the abstention window size d with 1 <= d <= N. Labels given
    as a bool array take one cumulative sum, of the positives; any other
    input is read as float mass and takes two, of ``p`` and of ``1 - p``.
    Both give the same bits for 0/1 labels.
    """
    values = np.asarray(values)
    labels = values.dtype == bool
    n = values.size
    if not 1 <= window <= n:
        raise InvalidConfig(f"window must satisfy 1 <= d <= {n}, got {window}")
    pos_prefix = np.empty(n + 1)
    pos_prefix[0] = 0.0
    if labels:
        np.cumsum(values, dtype=float, out=pos_prefix[1:])
        neg_prefix = np.arange(n + 1.0) - pos_prefix
    else:
        values = values.astype(float, copy=False)
        np.cumsum(values, out=pos_prefix[1:])
        neg_prefix = np.empty(n + 1)
        neg_prefix[0] = 0.0
        np.cumsum(1.0 - values, out=neg_prefix[1:])
    pos_suffix = pos_prefix[-1] - pos_prefix
    neg_suffix = neg_prefix[-1] - neg_prefix
    window_pos = pos_suffix[: n + 1 - window] - pos_suffix[window:]
    return SuffixCounts(
        pos_suffix=pos_suffix,
        neg_suffix=neg_suffix,
        pos_prefix=pos_prefix,
        neg_prefix=neg_prefix,
        window_pos=window_pos,
        window_neg=window - window_pos if labels else neg_suffix[: n + 1 - window] - neg_suffix[window:],
    )


def specificity_threshold_index(neg_suffix, denom, target_specificity, removed_above=0.0):
    """Smallest index i with ``1 - (neg_suffix[i] - removed_above)/denom >= s``.

    ``denom`` is the total negative count after any abstention and
    ``removed_above`` the number of abstained negatives that sat at or above
    index i. Both may be vectors (broadcast together), in which case a vector
    of indices is returned. The comparison is evaluated in exactly this
    floating-point form everywhere in the package so that threshold decisions
    agree bit-for-bit across the fast paths and the definitional ones.
    """
    neg_suffix = np.asarray(neg_suffix, dtype=float)
    denom = np.asarray(denom, dtype=float)
    removed_above = np.asarray(removed_above, dtype=float)
    if np.any(denom <= 0):
        raise NoNegatives("no negatives remain; specificity threshold undefined")
    shape = np.broadcast_shapes(denom.shape, removed_above.shape)
    # flat views (a copy only where a matrix is broadcast), so a scalar is not repeated
    denom = np.broadcast_to(denom, shape).reshape(-1)
    removed_above = np.broadcast_to(removed_above, shape).reshape(-1)
    n = neg_suffix.size - 1

    def holds(i, k=slice(None)):
        return 1.0 - (neg_suffix[i] - removed_above[k]) / denom[k] >= target_specificity

    # The predicate depends on i only through neg_suffix[i] and is monotone in
    # it, so the answer is the first index of a run of equal values. Up to
    # rounding it holds where neg_suffix[i] <= removed_above + (1 - s) * denom:
    # one search in the ascending -neg_suffix finds that crossing, then the
    # exact predicate, checked at every crossing at once, moves the few indices
    # it rejects by whole runs until each is the smallest index where it holds
    # (or N where it never does, as a scan of [0, N) gives).
    # The clamps keep both loops finite should neg_suffix not be sorted.
    ascending = -neg_suffix
    idx = np.minimum(np.searchsorted(ascending, -(removed_above + (1.0 - target_specificity) * denom)), n)
    k = np.flatnonzero((idx < n) & ~holds(idx))
    while k.size:  # up: where the predicate fails at idx, skip idx's run
        idx[k] = np.minimum(np.maximum(np.searchsorted(ascending, ascending[idx[k]], "right"), idx[k] + 1), n)
        k = k[idx[k] < n]
        k = k[~holds(idx[k], k)]
    k = np.flatnonzero((idx > 0) & holds(idx - 1))
    while k.size:  # down: where it holds just below idx, go to that run's start
        idx[k] = np.minimum(np.searchsorted(ascending, ascending[idx[k] - 1], "left"), idx[k] - 1)
        k = k[idx[k] > 0]
        k = k[holds(idx[k] - 1, k)]
    return idx.reshape(shape) if shape else int(idx[0])


def _label_counts(preds: SortedPredictionSet) -> SuffixCounts:
    """The labels' running counts; both classes must be present."""
    labels = preds.labels
    if labels is None:
        raise InvalidConfig("this operation needs ground-truth labels")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise NoPositives("at least one positive example is required")
    if n_pos == labels.size:
        raise NoNegatives("at least one negative example is required")
    return running_counts(labels == 1, window=1)


def sensitivity_at_specificity(preds: SortedPredictionSet, target_specificity: float) -> float:
    """Fraction of positives ranked at or above the specificity threshold.

    The threshold index is the smallest i whose below-i negatives make up at
    least ``target_specificity`` of all negatives; no interpolation between
    candidate thresholds is performed.
    """
    check_specificity(target_specificity)
    counts = _label_counts(preds)
    t_star = specificity_threshold_index(counts.neg_suffix, counts.total_neg, target_specificity)
    return float(counts.pos_suffix[t_star] / counts.total_pos)


def auroc(preds: SortedPredictionSet) -> float:
    """Area under the ROC curve via the rank-sum identity.

    Equals the probability that a randomly chosen positive is ranked above a
    randomly chosen negative; tied probabilities are ranked by their position
    in the ascending sort.
    """
    counts = _label_counts(preds)
    rank_sum = float(np.sum(preds.labels * counts.neg_prefix[:-1]))
    return rank_sum / (counts.total_neg * counts.total_pos)


def weighted_kappa(pred_labels, true_labels, weights: PenaltyWeightMatrix) -> float:
    """Chance-corrected penalty agreement between two label vectors.

    Returns ``1 - observed_penalty / expected_penalty`` where the expectation
    keeps the predicted class proportions fixed but pairs them with true
    classes at random. 1 means perfect agreement; values below 0 are possible.
    """
    c = weights.class_count
    pred = check_labels(pred_labels, c)
    true = check_labels(true_labels, c, pred.size)
    n = pred.size
    if n < 2:
        raise DegenerateDenominator("need at least 2 examples")
    w = weights.weights
    observed = float(w[true, pred].sum())
    true_counts = np.bincount(true, minlength=c).astype(float)
    pred_counts = np.bincount(pred, minlength=c).astype(float)
    expected = float(w @ pred_counts @ (true_counts / n))
    if expected == 0.0:
        raise DegenerateDenominator("expected penalty is zero; kappa undefined")
    return 1.0 - observed / expected


@dataclass(frozen=True)
class KappaAggregates:
    """Shared sums used to evaluate kappa after removing one example.

    With ``N`` examples, true-class mass ``t`` (exact counts or expected
    mass), predicted-class counts ``q`` and penalties ``w``:

    - ``denom_base``: sum_ij w[i,j] * t[i] * q[j] / (N-1)
    - ``denom_row_adjust[i]``: sum_j w[i,j] * q[j] / (N-1)
    - ``denom_col_adjust[j]``: sum_i w[i,j] * t[i] / (N-1)

    so the chance penalty after dropping an example with true class k and
    predicted class f is ``denom_base - denom_row_adjust[k] -
    denom_col_adjust[f] + w[k, f]/(N-1)``.
    """

    denom_base: float
    denom_row_adjust: np.ndarray
    denom_col_adjust: np.ndarray


def kappa_aggregates(weights: PenaltyWeightMatrix, true_counts, pred) -> KappaAggregates:
    """Assemble :class:`KappaAggregates` for hard or expected true counts."""
    w = weights.weights
    true_counts = np.asarray(true_counts, dtype=float)
    pred = np.asarray(pred, dtype=np.int64)
    n = pred.size
    if n < 2:
        raise DegenerateDenominator("need at least 2 examples")
    pred_counts = np.bincount(pred, minlength=weights.class_count).astype(float)
    scale = 1.0 / (n - 1)
    return KappaAggregates(
        denom_base=float((w @ pred_counts) @ true_counts * scale),
        denom_row_adjust=(w @ pred_counts) * scale,
        denom_col_adjust=(w.T @ true_counts) * scale,
    )
