"""Exact post-hoc metrics on calibrated predictions plus the shared count types.

Everything here is a pure function of immutable inputs: values may be shared
freely across threads. Counts of bool labels are carried as integer arrays
(int32 below 2**31 rows) and expected counts as float64 arrays; an exact
integer converts to the same float, so ratio computations are
bit-reproducible.
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
    as_array,
    check_counts,
    check_labels,
    check_probabilities,
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
        probs = as_array(self.probs, "probs", 1)
        check_probabilities(probs)
        if np.any(np.diff(probs) < 0):
            raise InvalidConfig("probs must be sorted ascending; use from_unsorted()")
        object.__setattr__(self, "probs", probs)
        if self.labels is not None:
            object.__setattr__(self, "labels", check_labels(self.labels, 2, probs.size))

    @classmethod
    def from_unsorted(cls, probs, labels=None) -> "SortedPredictionSet":
        """Stable-sort probs ascending and carry labels along."""
        probs = as_array(probs, "probs", 1)
        order = np.argsort(probs, kind="stable")
        # labels that do not align go on unsorted, for the constructor to reject
        if labels is not None:
            labels = as_array(labels, "labels", dtype=None)
            if labels.shape == probs.shape:
                labels = labels[order]
        return cls(probs[order], labels)

    @property
    def n(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ProbabilityMatrix:
    """N x C calibrated class probabilities; every row lives on the simplex
    (:func:`~abstainkit.errors.check_probabilities`)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = as_array(self.entries, "entries", 2)
        check_probabilities(entries)
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
        p = as_array(positive_probs, "positive_probs")
        return cls(np.column_stack([1.0 - p, p]))


@dataclass(frozen=True)
class PenaltyWeightMatrix:
    """C x C nonnegative penalties: weights[i, j] is the cost of predicting
    class j for an example whose true class is i."""

    weights: np.ndarray

    def __post_init__(self):
        weights = as_array(self.weights, "weights")
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
    built from probabilities. Bool labels give integer arrays, int32 below
    2**31 rows and int64 from there, and their negative arrays are derived
    from the positive ones (``neg_prefix[i] = i - pos_prefix[i]``,
    ``window_neg = d - window_pos``). Converted to float, they are the bits a
    float64 two-cumsum build gives, so consumers convert only where float
    arithmetic happens. Probabilities give float64 arrays and keep a second
    cumulative sum, of ``1 - p``: ``i - cumsum(p)`` rounds differently, and
    the deterministic scores would move with it.
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


def _count_dtype(n: int):
    """The integer dtype of label counts over ``n`` rows: int32 holds every count up to 2**31 - 1."""
    return np.int32 if n < 2**31 else np.int64


def running_counts(values, window: int) -> SuffixCounts:
    """Build :class:`SuffixCounts` from labels (0/1) or probabilities.

    ``window`` is the abstention window size d with 1 <= d <= N. Labels given
    as a bool array take one cumulative sum, of the positives, and give
    integer counts (int32 below 2**31 rows, int64 from there); any other
    input is read as float mass, which must lie in [0, 1]
    (:func:`~abstainkit.errors.check_probabilities`), takes two, of ``p``
    and of ``1 - p``, and gives float64 counts. Both give the same values
    for 0/1 labels.
    """
    values = as_array(values, "values", 1, dtype=None)
    labels = values.dtype == bool
    n = values.size
    check_counts(window=(window, None))
    if not 1 <= window <= n:
        raise InvalidConfig(f"window must satisfy 1 <= d <= {n}, got {window}")
    window = int(window)
    dtype = _count_dtype(n) if labels else float
    pos_prefix = np.empty(n + 1, dtype=dtype)
    pos_prefix[0] = 0
    if labels:
        np.cumsum(values, dtype=dtype, out=pos_prefix[1:])
        neg_prefix = np.arange(n + 1, dtype=dtype) - pos_prefix
    else:
        values = values.astype(float, copy=False)
        check_probabilities(values)
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
    """Smallest index i in [0, N) with ``1 - (neg_suffix[i] - removed_above)/denom >= s``, else N.

    ``neg_suffix`` is the non-increasing suffix count of the negatives among
    0/1 labels (N + 1 entries), ``denom`` the total negative count after any
    abstention and ``removed_above`` the whole number of abstained negatives
    that sat at or above index i. ``denom`` and ``removed_above`` may be
    arrays (broadcast together), in which case an intp array of indices of
    their shape is returned; otherwise an int. The comparison is evaluated in
    exactly this floating-point form everywhere in the package so that
    threshold decisions agree bit-for-bit across the fast paths and the
    definitional ones.

    The predicate depends on i only through the level
    ``neg_suffix[i] - removed_above`` and falls as it rises, so on whole
    counts it holds up to one largest whole level, found from the rounded
    crossing ``(1 - s) * denom`` by one exact check each way; one search then
    gives the first index at or below it. Counts that are not whole, where
    that level may not decide the index, are InvalidConfig, as is a
    ``denom`` or ``removed_above`` that is not finite. Integer counts are
    searched with integer keys, so they are never copied to float.
    """
    neg_suffix = np.asarray(neg_suffix)
    if neg_suffix.dtype.kind != "i":
        neg_suffix = neg_suffix.astype(float, copy=False)
    denom = np.asarray(denom, dtype=float)
    removed_above = np.asarray(removed_above, dtype=float)
    if not (np.isfinite(denom).all() and np.isfinite(removed_above).all()):
        raise InvalidConfig("denom and removed_above must be finite")
    if np.any(denom <= 0):
        raise NoNegatives("no negatives remain; specificity threshold undefined")

    def holds(level):
        return 1.0 - level / denom >= target_specificity

    level = np.floor((1.0 - target_specificity) * denom)
    level -= ~holds(level)
    level += holds(level + 1.0)
    key = level + removed_above
    if neg_suffix.dtype.kind == "i":
        # a whole level, clipped to the counts' range (NaN to below it, as a float search puts it), is exact
        key = np.fmin(np.fmax(key, neg_suffix[-1] - 1), neg_suffix[0]).astype(neg_suffix.dtype)
    idx = np.minimum(np.searchsorted(-neg_suffix, -key), neg_suffix.size - 1)
    # the predicate holds at idx; it must fail just below it, else the levels were not whole
    if np.any(removed_above != np.floor(removed_above)) or np.any(
        (idx > 0) & holds(neg_suffix[idx - 1] - removed_above)
    ):
        raise InvalidConfig("specificity thresholds need whole-number counts")
    return idx if idx.ndim else int(idx)


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


def kappa_aggregates(weights: PenaltyWeightMatrix, true_counts, pred_counts) -> KappaAggregates:
    """Assemble :class:`KappaAggregates` from per-class true mass (hard or expected) and predicted counts.

    Both are C-vectors, else DimensionMismatch; ``N`` is the sum of
    ``pred_counts``, and below 2 it is DegenerateDenominator.
    """
    w = weights.weights
    true_counts = as_array(true_counts, "true_counts", 1)
    pred_counts = as_array(pred_counts, "pred_counts", 1)
    if not true_counts.size == pred_counts.size == weights.class_count:
        raise DimensionMismatch(f"{true_counts.size} true and {pred_counts.size} predicted counts "
                                f"for {weights.class_count} classes")
    n = pred_counts.sum()
    if n < 2:
        raise DegenerateDenominator("need at least 2 examples")
    scale = 1.0 / (n - 1)
    return KappaAggregates(
        denom_base=float((w @ pred_counts) @ true_counts * scale),
        denom_row_adjust=(w @ pred_counts) * scale,
        denom_col_adjust=(w.T @ true_counts) * scale,
    )
