"""Independent reference implementations used to cross-check the fast paths.

Everything here favors obviousness over speed: double loops, per-window
recomputation from scratch, full enumeration. Tests freeze expected values
computed by these functions or compare against them directly.
"""

import csv
import itertools

import numpy as np

from abstainkit import SortedPredictionSet, auroc, sensitivity_at_specificity, weighted_kappa
from abstainkit.errors import DegenerateDenominator, NoNegatives, NoPositives, SchemaError
from abstainkit.metrics import kappa_aggregates, running_counts, specificity_threshold_index
from abstainkit.scoring import auroc_rank_sums


def pairwise_auroc(probs, labels):
    """auROC as the fraction of (positive, negative) pairs ranked correctly,
    using the ascending-sort index as the rank."""
    labels = np.asarray(labels)
    n = labels.size
    wins = 0
    pairs = 0
    for i in range(n):
        for j in range(n):
            if labels[i] == 1 and labels[j] == 0:
                pairs += 1
                if i > j:
                    wins += 1
    return wins / pairs


def metric_without_window(probs, labels, start, width, metric, **kw):
    """Recompute a metric after deleting the window [start, start+width)."""
    keep = np.concatenate([np.arange(start), np.arange(start + width, probs.size)])
    return metric(SortedPredictionSet(probs[keep], labels[keep]), **kw)


def scan_sensitivity(probs, labels, target_specificity):
    """Sensitivity at specificity by scanning every candidate threshold index."""
    labels = np.asarray(labels)
    n = labels.size
    n_neg = int((labels == 0).sum())
    n_pos = int((labels == 1).sum())
    for t in range(n + 1):
        neg_at_or_above = int((labels[t:] == 0).sum())
        if 1.0 - neg_at_or_above / n_neg >= target_specificity:
            return int((labels[t:] == 1).sum()) / n_pos
    raise AssertionError("threshold must exist for target < 1")


def naive_auroc_window_scores(p, width):
    """Deterministic windowed auROC by per-window double loops over expected mass."""
    p = np.asarray(p, dtype=float)
    n = p.size
    out = np.empty(n + 1 - width)
    for start in range(n + 1 - width):
        keep = np.concatenate([np.arange(start), np.arange(start + width, n)])
        q = p[keep]
        total = 0.0
        for a in range(q.size):
            below = 0.0
            for b in range(a):
                below += 1.0 - q[b]
            total += q[a] * below
        n_pos = q.sum()
        n_neg = q.size - n_pos
        out[start] = total / (n_neg * n_pos)
    return out


def naive_post_rank_sums(values, width):
    """Definitional post-abstention rank sums: zero out the window, recount."""
    v = np.asarray(values, dtype=float)
    n = v.size
    out = np.empty(n + 1 - width)
    for start in range(n + 1 - width):
        total = 0.0
        for i in range(n):
            if start <= i < start + width:
                continue
            below = 0.0
            for j in range(i):
                if start <= j < start + width:
                    continue
                below += 1.0 - v[j]
            total += v[i] * below
        out[start] = total
    return out


def naive_mc_sens_windows(p, width, target_specificity, samples, rng):
    """Resample labels per window from scratch and average the recomputed metric."""
    p = np.asarray(p, dtype=float)
    n = p.size
    means = np.empty(n + 1 - width)
    errs = np.empty(n + 1 - width)
    for start in range(n + 1 - width):
        keep = np.concatenate([np.arange(start), np.arange(start + width, n)])
        q = p[keep]
        draws = rng.random((samples, q.size)) < q
        values = np.full(samples, np.nan)
        for m in range(samples):
            y = draws[m].astype(int)
            if 0 < y.sum() < y.size:
                values[m] = sensitivity_at_specificity(
                    SortedPredictionSet(q, y), target_specificity
                )
        means[start] = np.nanmean(values)
        errs[start] = np.nanstd(values) / np.sqrt(np.isfinite(values).sum())
    return means, errs


def sample_streams(seed, samples):
    """The scorers' per-sample generators: one ``SeedSequence.spawn`` stream each."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(samples)]


def same_stream_window_means(p, width, samples, seed, metric, **kw):
    """Monte-Carlo window scores by remove-and-recompute on the scorers' draws.

    Sample m draws 0/1 labels from stream m as ``u < p``. Each window averages,
    in sample order, the metric of the labels it retains over the samples
    where that metric is defined (both classes retained); NaN if never.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    sums = np.zeros(n + 1 - width)
    counts = np.zeros(n + 1 - width)
    for rng in sample_streams(seed, samples):
        labels = (rng.random(n) < p).astype(int)
        for start in range(n + 1 - width):
            try:
                value = metric_without_window(p, labels, start, width, metric, **kw)
            except (NoPositives, NoNegatives):
                continue
            sums[start] += value
            counts[start] += 1.0
    means = np.full(n + 1 - width, np.nan)
    means[counts > 0] = sums[counts > 0] / counts[counts > 0]
    return means


def same_stream_kappa_means(P, weights, samples, seed):
    """Monte-Carlo leave-one-out kappa by recomputation on the scorer's draws.

    Row x of sample m takes the first class whose cumulative probability
    exceeds the stream's m-th uniform draw x (the last class if none does).
    """
    P = np.asarray(P, dtype=float)
    n, c = P.shape
    pred = P.argmax(axis=1)
    total = np.zeros(n)
    for rng in sample_streams(seed, samples):
        draws = rng.random(n)
        true = np.empty(n, dtype=np.int64)
        for x in range(n):
            cum = np.cumsum(P[x])
            k = 0
            while k < c - 1 and draws[x] >= cum[k]:
                k += 1
            true[x] = k
        for x in range(n):
            total[x] += kappa_without_example(pred, true, weights, x)
    return total / samples


def masked_monte_carlo_mean(samples, seed, size, draw, score):
    """The scorers' accumulate loop with boolean-mask updates: each entry is
    the mean of ``score(draw(rng))`` values over the samples where it was valid."""
    sums = np.zeros(size)
    valid_counts = np.zeros(size)
    for rng in sample_streams(seed, samples):
        values, valid = score(draw(rng))
        sums[valid] += values[valid]
        valid_counts[valid] += 1.0
    return np.divide(sums, valid_counts, out=np.full_like(sums, np.nan), where=valid_counts > 0)


def full_range_sens_window_sample(labels, d, target_specificity):
    """One-sample window sensitivities with thresholds for every removed count.

    Left and right thresholds are searched for each j = 0..max_removed, not
    only for the counts the windows remove, then gathered per window.
    """
    counts = running_counts(labels, d)
    n_pos, n_neg = counts.total_pos, counts.total_neg
    w_pos, w_neg = counts.window_pos, counts.window_neg
    valid = (w_pos < n_pos) & (w_neg < n_neg)
    if not valid.any():
        return np.zeros(w_pos.size), valid
    max_removed = int(min(d, n_neg - 1))
    j = np.arange(max_removed + 1, dtype=float)
    left = specificity_threshold_index(counts.neg_suffix, n_neg - j, target_specificity)
    right = specificity_threshold_index(counts.neg_suffix, n_neg - j, target_specificity, removed_above=j)
    removed = np.minimum(w_neg.astype(np.int64), max_removed)
    t_right, t_left = right[removed], left[removed]
    starts = np.arange(w_pos.size)
    t_new = np.where(t_right <= starts, t_right, np.maximum(t_left, starts + d))
    numer = counts.pos_suffix[t_new] - (t_new <= starts) * w_pos
    denom = np.where(valid, n_pos - w_pos, 1.0)
    return np.where(valid, numer / denom, 0.0), valid


def full_range_sens_window_scores(p, d, target_specificity, samples, seed):
    """Unsmoothed MC sens-at-spec window scores from the full-range sample."""
    p = np.asarray(p, dtype=float)
    return masked_monte_carlo_mean(
        samples, seed, p.size + 1 - d,
        lambda rng: (rng.random(p.size) < p).astype(float),
        lambda labels: full_range_sens_window_sample(labels, d, target_specificity),
    )


def float_label_auroc_window_scores(p, d, samples, seed):
    """Unsmoothed MC auROC window scores from 0.0/1.0 float labels.

    The labels take ``running_counts``' two-cumsum path, and every sample is
    masked by its valid windows, whether or not all of them are valid.
    """
    p = np.asarray(p, dtype=float)

    def score(labels):
        sums = auroc_rank_sums(labels, d)
        denom = sums.remaining_neg * sums.remaining_pos
        valid = denom > 0
        return np.divide(sums.post_sums, denom, out=np.zeros(denom.size), where=valid), valid

    return masked_monte_carlo_mean(
        samples, seed, p.size + 1 - d, lambda rng: (rng.random(p.size) < p).astype(float), score
    )


def clamped_class_draw(u, cum):
    """Per row, the count of cumulative probabilities <= u over all C
    columns, clamped to the last class."""
    return np.minimum((u[:, None] >= cum).sum(axis=1), cum.shape[1] - 1)


def clamped_kappa_scores(P, weights, samples, seed):
    """MC leave-one-out kappa scores drawing labels with ``clamped_class_draw``."""
    P = np.asarray(P, dtype=float)
    n, c = P.shape
    w = weights.weights
    pred = P.argmax(axis=1)
    scale = 1.0 / (n - 1)
    cum = P.cumsum(axis=1)

    def score(sampled):
        true_counts = np.bincount(sampled, minlength=c).astype(float)
        penalties = w[sampled, pred]
        agg = kappa_aggregates(weights, true_counts, pred)
        denom = (
            agg.denom_base
            - agg.denom_row_adjust[sampled]
            - agg.denom_col_adjust[pred]
            + penalties * scale
        )
        if np.abs(denom).min() < 1e-12:
            raise DegenerateDenominator("leave-one-out chance penalty is ~0")
        return 1.0 - (float(penalties.sum()) - penalties) / denom, np.ones(n, dtype=bool)

    return masked_monte_carlo_mean(samples, seed, n, lambda rng: clamped_class_draw(rng.random(n), cum), score)


def naive_kappa_marginals(P, w):
    """Deterministic leave-one-out kappa estimates via explicit loops."""
    P = np.asarray(P, dtype=float)
    n, c = P.shape
    f = P.argmax(axis=1)
    pred_counts = np.bincount(f, minlength=c).astype(float)
    exp_true = P.sum(axis=0)
    a_hat = sum(w[i, f[x]] * P[x, i] for x in range(n) for i in range(c))
    b1 = sum(w[i, j] * exp_true[i] / (n - 1) * pred_counts[j] for i in range(c) for j in range(c))
    b2 = [sum(w[i, j] * pred_counts[j] for j in range(c)) / (n - 1) for i in range(c)]
    b3 = [sum(w[j, i] * exp_true[j] for j in range(c)) / (n - 1) for i in range(c)]
    out = np.empty(n)
    for x in range(n):
        out[x] = sum(
            P[x, i]
            * (1.0 - (a_hat - w[i, f[x]]) / (b1 - b2[i] - b3[f[x]] + w[i, f[x]] / (n - 1)))
            for i in range(c)
        )
    return out


def kappa_without_example(pred, true, weights, x):
    """weighted_kappa recomputed from scratch with example x removed."""
    keep = np.delete(np.arange(len(pred)), x)
    return weighted_kappa(np.asarray(pred)[keep], np.asarray(true)[keep], weights)


def direct_js_divergence(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = 0.5 * (p + q)

    def kl(a, b):
        total = 0.0
        for ai, bi in zip(a, b):
            if ai > 0:
                total += ai * (np.log(ai) - np.log(bi))
        return total

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def fit_line_center(window_values):
    """Least-squares line over a window, evaluated at the window center."""
    x = np.arange(len(window_values), dtype=float)
    slope, intercept = np.polyfit(x, np.asarray(window_values, dtype=float), 1)
    return slope * (len(window_values) - 1) / 2.0 + intercept


def enumerate_wilcoxon(differences):
    """One-sided signed-rank p by enumerating all 2**n sign assignments."""
    from scipy.stats import rankdata

    diffs = np.asarray(differences, dtype=float)
    diffs = diffs[diffs != 0]
    n = diffs.size
    ranks = rankdata(np.abs(diffs), method="average")
    observed = ranks[diffs > 0].sum()
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        if ranks[np.array(signs, dtype=bool)].sum() >= observed - 1e-12:
            count += 1
    return count / 2.0**n


def definitional_correlations(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def pearson(x, y):
        xm, ym = x - x.mean(), y - y.mean()
        return float((xm * ym).sum() / np.sqrt((xm**2).sum() * (ym**2).sum()))

    def average_ranks(x):
        order = np.argsort(x, kind="stable")
        ranks = np.empty(x.size)
        ranks[order] = np.arange(1, x.size + 1)
        for value in np.unique(x):
            mask = x == value
            ranks[mask] = ranks[mask].mean()
        return ranks

    return pearson(average_ranks(a), average_ranks(b)), pearson(a, b)


def exhaustive_threshold_search(probs, labels, metric, max_abstained, grid):
    """Reference per-class threshold search; mirrors the tie-break rules."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    n, c = probs.shape
    top = probs.argmax(axis=1)
    top_p = probs[np.arange(n), top]
    best = None
    for tup in itertools.product(grid, repeat=c):
        abstain = top_p < np.asarray(tup)[top]
        count = int(abstain.sum())
        if count > max_abstained:
            continue
        keep = ~abstain
        try:
            score = float(metric(probs[keep], labels[keep]))
        except Exception:
            continue
        key = (score, -count)
        if best is None or key > best[0]:
            best = (key, tup)
    return np.zeros(c) if best is None else np.asarray(best[1], dtype=float)


def brute_force_auroc_after_drop(probs, labels, drop):
    keep = np.setdiff1d(np.arange(len(probs)), drop)
    return auroc(SortedPredictionSet(np.asarray(probs)[keep], np.asarray(labels)[keep]))


def read_value_csv(path, binary_column, class_prefix):
    """Prediction / raw-score CSV reader: `csv.reader` rows and `float()` per cell.

    Returns ``(ids, labels_or_None, values)`` like ``files.read_value_csv``
    and raises SchemaError on the same inputs.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    if header[:2] != ["id", "label"]:
        raise SchemaError(f"{path}: header must start with id,label")
    value_cols = header[2:]
    if value_cols == [binary_column]:
        binary = True
    elif value_cols and value_cols == [f"{class_prefix}_{c}" for c in range(len(value_cols))]:
        binary = False
    else:
        raise SchemaError(f"{path}: bad value columns")
    ids, labels, values = [], [], []
    for row in rows:
        if len(row) != len(header):
            raise SchemaError(f"{path}: row has {len(row)} cells, expected {len(header)}")
        ids.append(row[0])
        labels.append(row[1])
        try:
            values.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise SchemaError(f"{path}: value cell is not a number: {exc}") from None
    have_labels = any(cell != "" for cell in labels)
    if have_labels and not all(cell != "" for cell in labels):
        raise SchemaError(f"{path}: labels must be all present or all empty")
    try:
        label_arr = np.array([int(v) for v in labels], dtype=np.int64) if have_labels else None
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: label cell is not a 64-bit integer: {exc}") from None
    value_arr = np.asarray(values, dtype=float)
    class_count = 2 if binary else value_arr.shape[1]
    if label_arr is not None and not (label_arr.min() >= 0 and label_arr.max() < class_count):
        raise SchemaError(f"{path}: labels must lie in [0, {class_count})")
    return ids, label_arr, value_arr[:, 0] if binary else value_arr


def row_major_label_shift_em(probs, train, tol=1e-6, max_iter=1000):
    """Label-shift EM on the row-major N x C matrix, as first written: returns
    ``(adapted, test_priors, iterations, converged)``."""
    priors = train.copy()
    adapted = probs
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        weighted = probs * (priors / train)
        row_sums = weighted.sum(axis=1, keepdims=True)
        if np.any(row_sums <= 0):
            raise ValueError("a row lost all probability mass during adaptation")
        adapted = weighted / row_sums
        new_priors = adapted.mean(axis=0)
        delta = float(np.abs(new_priors - priors).max())
        priors = new_priors
        if delta < tol:
            converged = True
            break
    return adapted, priors / priors.sum(), iterations, converged


def row_major_temp_nll(logits, labels, scale, offset):
    """NLL of softmax((logits + offset) * scale) and its gradient (scale,
    offset) from the row-major N x C logits, as first written."""
    z = (logits + offset) * scale
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(labels.size), labels]
    nll = float(np.mean(log_norm - picked))
    expz = np.exp(shifted)
    q = expz / expz.sum(axis=1, keepdims=True)
    q[np.arange(labels.size), labels] -= 1.0
    grad_scale = float(np.mean(np.sum(q * (logits + offset), axis=1)))
    grad_offset = scale * q.mean(axis=0)
    return nll, grad_scale, grad_offset


def reader_probability_rule(values):
    """The prediction reader's probability rule, as first written: the first
    bad row (counted from 1) and ``"range"`` or ``"sum"`` for what it broke,
    or None when every row is valid.

    A row is outside when any value is not in [0, 1] (NaN included); a row
    of a matrix is off when its sum is more than 1e-9 from 1. An outside row
    is reported as outside even where its sum is off too.
    """
    table = values.reshape(values.shape[0], -1)
    outside = ~((table >= 0.0) & (table <= 1.0)).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf and -inf in one row
        off_one = np.abs(table.sum(axis=1) - 1.0) > 1e-9 if values.ndim == 2 else False
    bad = np.flatnonzero(outside | off_one)
    if not bad.size:
        return None
    row = int(bad[0])
    return row + 1, "range" if outside[row] else "sum"
