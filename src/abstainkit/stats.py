"""Statistical comparison of abstention methods across paired runs.

numpy only: ranks come from `_average_ranks`, and the p-values from exact
subset counts or the normal approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, TooFewPairs, ZeroVariance, as_array

__all__ = [
    "rank_correlations",
    "wilcoxon_signed_rank_one_sided",
    "ComparisonResult",
    "compare_methods",
]

EXACT_WILCOXON_MAX_N = 20
SIGNIFICANCE_LEVEL = 0.05


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        raise ZeroVariance("correlation is undefined for a constant vector")
    return float(da @ db) / denom


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, each run of tied values given its mean rank.

    The same values as ``scipy.stats.rankdata(x, method="average")``, all
    NaN when ``x`` holds a NaN. Every rank is an integer or a half, so it is
    exact.
    """
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    # a tie run starts where the sorted value differs from the one before it; the last run stops at the end
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    bounds = np.append(starts, x.size)
    # the run at sorted positions start..stop-1 holds the ranks start+1..stop
    run_ranks = (bounds[:-1] + bounds[1:] + 1) / 2.0
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(run_ranks, np.diff(bounds))
    return ranks


def rank_correlations(a, b) -> tuple[float, float]:
    """(spearman, pearson) between two aligned vectors.

    Spearman is Pearson applied to average ranks, so ties get their mean rank.
    A NaN or an infinity in either vector is InvalidConfig.
    """
    a = as_array(a, "a")
    b = as_array(b, "b")
    if a.shape != b.shape or a.ndim != 1 or a.size < 3:
        raise DimensionMismatch("need two aligned vectors of length >= 3")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidConfig("a and b must be finite")
    pearson = _pearson(a, b)
    spearman = _pearson(_average_ranks(a), _average_ranks(b))
    return spearman, pearson


def _exact_upper_tail(doubled_ranks: np.ndarray, doubled_stat: int, n: int) -> float:
    """P(W+ >= stat) under random signs, by counting rank subsets.

    Ranks are doubled so that average ranks from ties become integers; the
    subset-sum table then counts, for every achievable W+, how many of the
    2**n sign assignments produce it. Counts stay below 2**53 for n <= 20 so
    float64 arithmetic is exact.
    """
    total = int(doubled_ranks.sum())
    table = np.zeros(total + 1)
    table[0] = 1.0
    for rank in doubled_ranks:
        shifted = np.zeros_like(table)
        shifted[rank:] = table[: total + 1 - rank]
        table += shifted
    return float(table[doubled_stat:].sum()) / 2.0**n


def wilcoxon_signed_rank_one_sided(differences) -> float:
    """One-sided signed-rank p-value for the alternative "differences > 0".

    Zero differences are dropped and tied magnitudes share their average
    rank. With at most 20 nonzero pairs the p-value is exact (equivalent to
    enumerating all sign assignments); beyond that a normal approximation
    with tie correction and continuity correction is used.
    """
    diffs = as_array(differences, "differences", 1)
    if np.isnan(diffs).any():
        raise InvalidConfig("differences must not be NaN")
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n < 5:
        raise TooFewPairs(f"need at least 5 nonzero differences, got {n}")
    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    if n <= EXACT_WILCOXON_MAX_N:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        doubled_stat = int(round(2.0 * w_plus))
        return _exact_upper_tail(doubled, doubled_stat, n)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    variance -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    z = (w_plus - mean - 0.5) / math.sqrt(variance)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class ComparisonResult:
    """Pairwise one-sided signed-rank comparison over per-seed metric values.

    ``p_values[i, j]`` tests whether method i beats method j on paired runs;
    the diagonal is fixed at 1. ``significant[i, j]`` flags p < 0.05.
    """

    method_names: tuple
    p_values: np.ndarray
    significant: np.ndarray


def compare_methods(values_by_method: dict) -> ComparisonResult:
    """Build the p-value matrix from per-method vectors of paired metric values."""
    names = tuple(values_by_method)
    columns = [as_array(values_by_method[name], f"values_by_method[{name!r}]") for name in names]
    if len({col.shape for col in columns}) != 1 or columns[0].ndim != 1:
        raise DimensionMismatch("all methods need a vector of the same number of paired runs")
    k = len(names)
    p_values = np.ones((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                p_values[i, j] = wilcoxon_signed_rank_one_sided(columns[i] - columns[j])
    return ComparisonResult(
        method_names=names,
        p_values=p_values,
        significant=p_values < SIGNIFICANCE_LEVEL,
    )
