"""Abstention scoring: budgeted window and marginal scorers plus baselines.

The window scorers estimate, for every contiguous interval [i, i+d) of the
ascending-sorted predictions, the value a binary metric would take if that
interval were abstained on. The marginal scorer does the analogous thing per
example for weighted kappa. Estimates treat the calibrated probabilities as
the distribution of the unknown labels: a scorer given a
:class:`MonteCarloConfig` samples label vectors from them, and one given
none (``mc=None``) substitutes expected counts directly into the same
running-sum formulas.

Monte-Carlo streams are keyed by (seed, sample index) through
``numpy.random.SeedSequence.spawn``, so scores depend only on the config and
never on scheduling. One label vector is shared by all windows within a
sample; windows whose complement lost an entire class skip that sample and
are normalized by their own valid-sample count.

Sampled labels are bool arrays, for which :func:`running_counts` takes one
cumulative sum and gives integer counts (int32 below 2**31 rows), the
negative ones derived exactly; the kernels convert them to float only where
float arithmetic happens, and an exact integer converts to the float a
float count would hold. The expected-count forms keep float64 counts and a
second cumulative sum, of ``1 - p``, whose rounding their scores carry.
Every sample takes the same masked add, so an entry's sum and valid-sample
count see only the samples where it was valid.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .calibration import PriorEstimate
from .errors import (
    MAX_SIZE,
    AbstainkitError,
    BudgetMismatch,
    BudgetTooLarge,
    DegenerateDenominator,
    DegenerateExpectedCounts,
    DimensionMismatch,
    InvalidConfig,
    MissingPriors,
    WindowTooLarge,
    as_array,
    check_counts,
    check_labels,
    check_specificity,
)
from .metrics import (
    PenaltyWeightMatrix,
    ProbabilityMatrix,
    SortedPredictionSet,
    kappa_aggregates,
    running_counts,
    specificity_threshold_index,
)

__all__ = [
    "MonteCarloConfig",
    "WindowScoreVector",
    "MarginalScoreVector",
    "AurocSums",
    "SMOOTH_WINDOW",
    "SMOOTH_POLYORDER",
    "score_windows_sens_at_spec",
    "auroc_rank_sums",
    "score_windows_auroc",
    "score_examples_kappa",
    "smooth_savitzky_golay",
    "baseline_scores",
    "fumera_threshold_search",
    "select_abstentions",
]

# Post-hoc smoothing applied to Monte-Carlo window scores.
SMOOTH_WINDOW = 11
SMOOTH_POLYORDER = 1

_DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sample count, stream seed and whether to smooth the averaged scores."""

    samples: int
    seed: int = 0
    smooth: bool = False

    def __post_init__(self):
        check_counts(samples=(self.samples, 1, MAX_SIZE), seed=(self.seed, 0))


@dataclass(frozen=True)
class WindowScoreVector:
    """scores[i] estimates the metric if indices [i, i+window_size) are abstained."""

    scores: np.ndarray
    window_size: int

    def __post_init__(self):
        object.__setattr__(self, "scores", as_array(self.scores, "scores", 1))

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class MarginalScoreVector:
    """scores[x] estimates the metric after abstaining on example x alone."""

    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores", as_array(self.scores, "scores", 1))

    def __len__(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class AurocSums:
    """Post-abstention rank sums and remaining class mass per window.

    Dividing ``post_sums[i]`` by ``remaining_neg[i] * remaining_pos[i]``
    gives the auROC after abstaining on the window starting at i.
    """

    post_sums: np.ndarray
    remaining_neg: np.ndarray
    remaining_pos: np.ndarray


def _window_count(d: int, n: int) -> int:
    check_counts(budget=(d, None))
    if not 1 <= d < n:
        raise BudgetTooLarge(f"abstention count must satisfy 1 <= d < {n}, got {d}")
    return int(d)


def _monte_carlo_mean(mc: MonteCarloConfig, size: int, draw, score) -> np.ndarray:
    """Average ``score(draw(rng))`` over one stream per sample.

    ``score`` returns ``(values, valid)``, ``valid`` a bool mask or ``True``
    when every entry is valid. Each entry is the mean of its values over the
    samples where it was valid, and NaN if it never was; values outside the
    mask never reach the sums. ``mc`` must be a :class:`MonteCarloConfig`,
    else TypeError.
    """
    if not isinstance(mc, MonteCarloConfig):
        raise TypeError(f"mc must be a MonteCarloConfig, got {mc!r}")
    sums = np.zeros(size)
    valid_counts = np.zeros(size)
    for seq in np.random.SeedSequence(mc.seed).spawn(mc.samples):
        values, valid = score(draw(np.random.default_rng(seq)))
        np.add(sums, values, out=sums, where=valid)
        valid_counts += valid
    return np.divide(sums, valid_counts, out=np.full_like(sums, np.nan), where=valid_counts > 0)


def _sampled_window_scores(preds: SortedPredictionSet, d: int, mc: MonteCarloConfig, score) -> WindowScoreVector:
    """``score`` averaged over label vectors drawn from ``preds.probs``, smoothed if ``mc.smooth``."""
    n = preds.n
    scores = _monte_carlo_mean(mc, n + 1 - d, lambda rng: rng.random(n) < preds.probs, score)
    if mc.smooth:
        if not np.isfinite(scores).all():
            raise DegenerateExpectedCounts("cannot smooth scores: some windows never had a valid sample")
        scores = smooth_savitzky_golay(scores)
    return WindowScoreVector(scores=scores, window_size=d)


def _sens_window_sample(labels, d: int, target_specificity: float, ends):
    """One-sample window sensitivities as (values, valid) for bool labels.

    A window is valid when its complement keeps both classes, so a sample
    missing a class entirely has no valid window; ``valid`` is True when
    every window is. ``ends[i]`` is the end ``i + d`` of window i.
    """
    counts = running_counts(labels, d)
    n_pos, n_neg = counts.total_pos, counts.total_neg
    w_pos, w_neg = counts.window_pos, counts.window_neg
    # Every window is valid when the largest window_pos, d - lo, and the
    # largest window_neg, hi, both leave some of their class outside.
    lo, hi = int(w_neg.min()), int(w_neg.max())
    valid = True if d - lo < n_pos and hi < n_neg else (w_pos < n_pos) & (w_neg < n_neg)
    # Windows remove `removed` negatives, capped so that at least one remains
    # (windows at the cap are invalid). Thresholds are searched only for the
    # counts j in [lo, hi] some window removes: after j abstained negatives
    # below (left) or above (right) it, so right[j] <= the unabstained
    # threshold <= left[j]. Each threshold depends only on its own j, so
    # searching fewer counts changes none of them. `removed` holds each
    # window's count less lo.
    cap = int(min(d, n_neg - 1))
    lo, hi = min(lo, cap), min(hi, cap)
    removed = np.subtract(np.minimum(w_neg, cap), lo, out=np.empty(w_neg.size, dtype=np.intp))
    j = np.arange(lo, hi + 1)
    # one search for both: nothing removed above the threshold (left), j (right)
    left, right = specificity_threshold_index(
        counts.neg_suffix, n_neg - j, target_specificity, removed_above=np.stack((np.zeros_like(j), j))
    )
    # The adjusted threshold either sits at or below the window start (all
    # removed negatives were above it) or is pushed past the window end. The
    # windows where it sits at or below the start come last: from one window
    # to the next the removed count moves by at most one; right[j] does not
    # rise as j grows, and where j falls by one the window dropped the
    # negative at its start, so right[j - 1] is at most the next start. One
    # bisection over the windows therefore finds the first of them.
    m = w_pos.size
    first = bisect.bisect_left(range(m), True, key=lambda i: right[removed[i]] <= i)
    numer = np.empty(m)
    numer[:first] = counts.pos_suffix.take(np.maximum(left.take(removed[:first]), ends[:first]))
    numer[first:] = counts.pos_suffix.take(right.take(removed[first:])) - w_pos[first:]
    with np.errstate(divide="ignore", invalid="ignore"):  # a window holding every positive is invalid
        return numer / (n_pos - w_pos), valid


def score_windows_sens_at_spec(
    preds: SortedPredictionSet,
    target_specificity: float,
    budget: int,
    mc: MonteCarloConfig,
) -> WindowScoreVector:
    """Estimate post-abstention sensitivity at a target specificity per window.

    For each Monte-Carlo sample a label vector is drawn from the calibrated
    probabilities, suffix counts and shifted specificity thresholds are formed
    by running sums, and every window's surviving-positive fraction above its
    adjusted threshold is accumulated. Runs in O(N) per sample.
    """
    check_specificity(target_specificity)
    n = preds.n
    d = _window_count(budget, n)
    ends = np.arange(d, n + 1)
    return _sampled_window_scores(preds, d, mc, lambda labels: _sens_window_sample(labels, d, target_specificity, ends))


def auroc_rank_sums(values, window: int) -> AurocSums:
    """Post-abstention rank sums and remaining class mass for sorted label mass.

    ``post_sums[i]`` is the full rank sum minus the window's own rank sum
    minus (remaining positives above the window) * (negatives inside it),
    which equals the rank sum recomputed without the window exactly.
    ``values`` may be 0/1 labels or probabilities standing in for them;
    bool labels take :func:`running_counts`' one-cumsum form and its
    integer counts.
    """
    values = np.asarray(values)
    counts = running_counts(values, window)
    n = values.size
    cum = np.empty(n + 1)
    cum[0] = 0.0
    # in float: the running sum of bool labels' int32 products passes 2**31 near 150k rows
    np.cumsum(values * counts.neg_prefix[:-1], dtype=float, out=cum[1:])
    window_rank = cum[window:] - cum[: n + 1 - window]
    # in float: the int32 product of the positives above a window and the negatives inside it passes 2**31
    above_times_inside = np.multiply(counts.pos_suffix[window:], counts.window_neg, dtype=float)
    return AurocSums(
        post_sums=float(cum[-1]) - window_rank - above_times_inside,
        remaining_neg=counts.total_neg - counts.window_neg,
        remaining_pos=counts.total_pos - counts.window_pos,
    )


def score_windows_auroc(
    preds: SortedPredictionSet,
    budget: int,
    mc: MonteCarloConfig | None = None,
) -> WindowScoreVector:
    """Estimate post-abstention auROC per window.

    With ``mc`` it draws label vectors and averages the windowed rank-sum
    estimate over samples (smoothing if ``mc.smooth``); without it, it runs
    the identical formulas once with each probability substituted for its
    label, in O(N) total, with no sampling and no smoothing.
    """
    n = preds.n
    d = _window_count(budget, n)
    if mc is None:
        sums = auroc_rank_sums(preds.probs, d)
        rem_neg, rem_pos = sums.remaining_neg, sums.remaining_pos
        if rem_pos.min() <= _DEGENERATE_EPS or rem_neg.min() <= _DEGENERATE_EPS:
            raise DegenerateExpectedCounts(
                "expected positive/negative mass left after abstention is ~0"
            )
        return WindowScoreVector(sums.post_sums / (rem_neg * rem_pos), d)

    def score(labels):
        sums = auroc_rank_sums(labels, d)
        denom = sums.remaining_neg * sums.remaining_pos
        with np.errstate(divide="ignore", invalid="ignore"):  # a window leaving one class is invalid
            return sums.post_sums / denom, True if denom.min() > 0 else denom > 0

    return _sampled_window_scores(preds, d, mc, score)


def score_examples_kappa(
    probs: ProbabilityMatrix,
    weights: PenaltyWeightMatrix,
    mc: MonteCarloConfig | None = None,
) -> MarginalScoreVector:
    """Estimate weighted kappa after abstaining on each single example.

    Predicted labels are the per-row argmax of ``probs`` throughout. With
    ``mc`` it samples true-label vectors from the rows and averages the
    leave-one-out kappa; without it, it substitutes each row's class
    probabilities for its label indicator, running in O(NC). Kappa needs 2
    rows, so fewer than 3 is DegenerateDenominator.
    """
    p = probs.entries
    n, n_classes = p.shape
    if n < 3:
        raise DegenerateDenominator(f"need at least 2 examples left after abstaining on one, got {n}")
    if weights.class_count != n_classes:
        raise DimensionMismatch("weights dimension must equal the class count")
    w = weights.weights
    pred = p.argmax(axis=1)
    pred_counts = np.bincount(pred, minlength=n_classes)
    scale = 1.0 / (n - 1)

    if mc is None:
        w_by_pred = w[:, pred].T  # [x, i] -> penalty if x's true class were i
        agg = kappa_aggregates(weights, p.sum(axis=0), pred_counts)
        terms = _left_out_kappa(agg, agg.denom_col_adjust[pred][:, None], agg.denom_row_adjust[None, :],
                                w_by_pred, float((p * w_by_pred).sum()), scale)
        return MarginalScoreVector((p * terms).sum(axis=1))

    bounds = np.ascontiguousarray(p.cumsum(axis=1)[:, :-1].T)
    flat_w = w.ravel()  # w[i, j] at i * C + j: a flat take is cheaper than a 2-D fancy index

    def draw(rng):
        return _draw_classes(rng.random(n), bounds)

    def score(sampled):
        true_counts = np.bincount(sampled, minlength=n_classes).astype(float)
        penalties = flat_w.take(sampled * n_classes + pred)
        agg = kappa_aggregates(weights, true_counts, pred_counts)
        kappa = _left_out_kappa(agg, agg.denom_row_adjust[sampled], agg.denom_col_adjust[pred],
                                penalties, float(penalties.sum()), scale)
        return kappa, True  # every example is valid

    return MarginalScoreVector(_monte_carlo_mean(mc, n, draw, score))


def _left_out_kappa(agg, first, second, penalty, penalty_sum: float, scale: float):
    """Weighted kappa after leaving out an example whose own penalty is ``penalty``.

    ``first`` and ``second`` are the example's two chance adjustments from
    ``agg``, a :class:`~abstainkit.metrics.KappaAggregates`, subtracted in the
    order given (the order fixes the bits); ``penalty_sum`` is the penalty of
    all N examples. A chance penalty of ~0 is DegenerateDenominator.
    """
    denom = agg.denom_base - first - second + penalty * scale
    if np.abs(denom).min() < _DEGENERATE_EPS:
        raise DegenerateDenominator("leave-one-out chance penalty is ~0")
    return 1.0 - (penalty_sum - penalty) / denom


def _draw_classes(u, bounds) -> np.ndarray:
    """Per row x, the first class c whose cumulative probability exceeds u[x].

    ``bounds[c]`` holds every row's cumulative probability up to class c, for
    c < C - 1 only: a row whose draw passes every bound takes the last
    class, even where rounding leaves its full cumsum just below u[x].
    Cumsums are non-decreasing, so the class is the count of bounds <= u[x].
    """
    sampled = np.zeros(u.size, dtype=np.int64)
    for bound in bounds:
        sampled += u >= bound
    return sampled


def _center_fit_weights(half: int, polyorder: int) -> np.ndarray:
    """Weights whose dot with a centered window gives the LS poly fit there."""
    x = np.arange(-half, half + 1, dtype=float)
    design = x[:, None] ** np.arange(polyorder + 1)[None, :]
    return np.linalg.pinv(design)[0]


def smooth_savitzky_golay(values) -> np.ndarray:
    """Least-squares local polynomial smoothing with shrinking edge windows.

    Each interior point is replaced by the value at the center of an order
    :data:`SMOOTH_POLYORDER` polynomial fit over its :data:`SMOOTH_WINDOW`
    neighbors. Near the edges the window shrinks symmetrically to the largest
    centered one that fits (the polynomial order drops with it when fewer
    points than coefficients remain), so no values outside the input ever
    influence the result. Fewer values than the window is WindowTooLarge.
    """
    v = as_array(values, "values", 1)
    n = v.size
    if SMOOTH_WINDOW > n:
        raise WindowTooLarge(f"window {SMOOTH_WINDOW} exceeds input length {n}")
    half = SMOOTH_WINDOW // 2
    out = np.empty(n)
    # Center-row weights are symmetric, so convolution needs no kernel flip.
    out[half : n - half] = np.convolve(v, _center_fit_weights(half, SMOOTH_POLYORDER), mode="valid")
    for i in range(half):
        weights = _center_fit_weights(i, min(SMOOTH_POLYORDER, 2 * i))
        out[i] = weights @ v[: 2 * i + 1]
        out[n - 1 - i] = weights @ v[n - 1 - 2 * i :]
    return out


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


def _js_divergence_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    mid = 0.5 * (p + q)

    def half_kl(a):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(a > 0, a * (np.log(a) - np.log(mid)), 0.0)
        return terms.sum(axis=1)

    return 0.5 * (half_kl(p) + half_kl(q))


def baseline_scores(probs: ProbabilityMatrix, priors=None, method: str = "max_class_prob") -> np.ndarray:
    """Abstention priorities for the reference rules; higher = abstain first.

    - ``max_class_prob``: least-confident argmax first
    - ``entropy``: highest predictive entropy first
    - ``js_divergence``: rows closest (Jensen-Shannon) to the class priors first
    """
    p = probs.entries
    if method == "max_class_prob":
        return -p.max(axis=1)
    if method == "entropy":
        return _entropy_rows(p)
    if method == "js_divergence":
        if priors is None:
            raise MissingPriors("js_divergence needs class priors")
        prior_row = PriorEstimate(getattr(priors, "priors", priors)).priors
        if prior_row.size != p.shape[1]:
            raise DimensionMismatch(f"{prior_row.size} priors for {p.shape[1]} classes")
        return -_js_divergence_rows(p, np.broadcast_to(prior_row, p.shape))
    raise InvalidConfig(f"unknown baseline method {method!r}")


def fumera_threshold_search(
    val_probs: ProbabilityMatrix,
    val_labels,
    metric,
    budget: int,
    grid=51,
):
    """Per-class abstention thresholds by exhaustive validation-set search.

    An example is abstained when the probability of its argmax class falls
    below that class's threshold. Among all threshold tuples on the grid whose
    abstained count stays within ``budget``, the one maximizing
    ``metric(retained_probs, retained_labels)`` is returned; ties prefer fewer
    abstentions, then the lexicographically smallest tuple. Tuples whose
    retained set leaves the metric undefined (it raises an AbstainkitError)
    are skipped; any other exception propagates. If nothing is feasible the
    all-zero tuple (abstain nothing) is returned. ``val_labels`` follow
    :func:`~abstainkit.errors.check_labels`.

    Within a class the abstained rows are the ones with the smallest top-class
    probabilities, so the per-class abstained counts identify the set. The
    search therefore walks the distinct abstained sets, each class's counts
    taken at the first grid index that gives them, and calls ``metric`` once
    per distinct feasible set: at most the product over classes of each
    class's distinct counts, never more than ``grid ** class_count``.
    ``metric`` must be a pure function of the retained rows. Keep the grid
    coarse beyond a few classes.
    """
    p = val_probs.entries
    n, n_classes = p.shape
    labels = check_labels(val_labels, n_classes, n)
    check_counts(budget=(budget, None))
    if np.isscalar(grid):
        check_counts(grid=(grid, 2, MAX_SIZE))
        grid = np.linspace(0.0, 1.0, grid)
    grid_values = as_array(grid, "grid", 1)
    if grid_values.size < 2:
        raise InvalidConfig("grid needs at least 2 points per class")
    if not np.isfinite(grid_values).all():
        raise InvalidConfig("grid values must be finite")

    top_class = p.argmax(axis=1)
    top_prob = p[np.arange(n), top_class]
    # choices[c]: one (count, g) per distinct count of class-c rows with
    # top_prob < grid_values[g], at the first g giving it, in index order; the
    # first indices of a set make its lexicographically first tuple, the one
    # the tie rule would pick among the tuples sharing the set
    choices = []
    for c in range(n_classes):
        counts = np.searchsorted(np.sort(top_prob[top_class == c]), grid_values, side="left")
        first = np.sort(np.unique(counts, return_index=True)[1])
        choices.append(list(zip(counts[first].tolist(), first.tolist())))
    best_score = best_count = best_index = None
    for choice in itertools.product(*choices):
        count = sum(k for k, _ in choice)
        if count > budget:
            continue
        index = [g for _, g in choice]
        keep = ~(top_prob < grid_values[index][top_class])  # the rows `_fumera_abstained` keeps, without its argmax
        try:
            score = float(metric(p[keep], labels[keep]))
        except AbstainkitError:
            continue
        if best_index is None or score > best_score or (score == best_score and count < best_count):
            best_score, best_count, best_index = score, count, index
    if best_index is None:
        return np.zeros(n_classes)
    return grid_values[best_index]


def _fumera_abstained(p: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Fumera's rule as a row mask: abstain where the top-class probability is below that class's threshold."""
    top = p.argmax(axis=1)
    return p[np.arange(p.shape[0]), top] < thresholds[top]


def select_abstentions(scores, count: int) -> np.ndarray:
    """Turn a score vector into the set of ``count`` abstained indices.

    Window scores: the best-scoring window [i*, i*+count), earliest on ties.
    Marginal/top-k scores: the count highest-scoring indices, lower index on ties.
    Returned indices are sorted ascending.
    """
    check_counts(count=(count, None))
    if isinstance(scores, WindowScoreVector):
        if count != scores.window_size:
            raise BudgetMismatch(f"budget is {count} but scores use window {scores.window_size}")
        if np.isnan(scores.scores).all():
            raise DegenerateExpectedCounts("no window had a valid sample")
        start = int(np.nanargmax(scores.scores))
        return np.arange(start, start + scores.window_size)
    if isinstance(scores, MarginalScoreVector):
        n = len(scores)
        if not 0 <= count <= n:
            raise BudgetMismatch(f"cannot abstain on {count} of {n} examples")
        order = np.lexsort((np.arange(n), -scores.scores))
        return np.sort(order[:count])
    raise TypeError("scores must be a WindowScoreVector or MarginalScoreVector")
