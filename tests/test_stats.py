"""Rank correlations and the one-sided signed-rank test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from abstainkit import compare_methods, rank_correlations, wilcoxon_signed_rank_one_sided
from abstainkit.errors import TooFewPairs, ZeroVariance
from abstainkit.stats import _average_ranks

from oracles import definitional_correlations, enumerate_wilcoxon


# few distinct values, so that ties are common; 0.0 and -0.0 compare equal and tie
_LATTICE = [-np.inf, -2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf]


# no NaN: both callers refuse it before ranking
@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(_LATTICE), max_size=50))
def test_average_ranks_match_scipy_rankdata(values):
    x = np.array(values, dtype=float)
    assert _average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()


class TestRankCorrelations:
    def test_affine_relation(self):
        a = np.array([0.2, 1.5, -0.3, 4.0, 2.2])
        spearman, pearson = rank_correlations(a, 2.0 * a + 1.0)
        assert spearman == pytest.approx(1.0, abs=1e-12)
        assert pearson == pytest.approx(1.0, abs=1e-12)

    def test_reversed_order(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        spearman, _ = rank_correlations(a, a[::-1])
        assert spearman == pytest.approx(-1.0, abs=1e-12)

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 30)
        b = 0.5 * a + rng.normal(0, 1, 30)
        got = rank_correlations(a, b)
        want_spearman, want_pearson = definitional_correlations(a, b)
        assert got[0] == pytest.approx(want_spearman, abs=1e-12)
        assert got[1] == pytest.approx(want_pearson, abs=1e-12)

    def test_ties_get_average_ranks(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([0.0, 0.0, 1.0, 2.0])
        got = rank_correlations(a, b)
        want = definitional_correlations(a, b)
        assert got[0] == pytest.approx(want[0], abs=1e-12)

    def test_errors(self):
        with pytest.raises(ZeroVariance):
            rank_correlations(np.ones(5), np.arange(5.0))
        with pytest.raises(ValueError):
            rank_correlations(np.arange(2.0), np.arange(2.0))


class TestWilcoxonOneSided:
    def test_all_positive_n10(self):
        p = wilcoxon_signed_rank_one_sided(np.arange(1.0, 11.0))
        assert p == pytest.approx(1.0 / 1024.0, abs=1e-15)

    def test_matches_full_enumeration_up_to_12(self):
        rng = np.random.default_rng(1)
        for n in (5, 8, 11, 12):
            for _ in range(4):
                diffs = rng.normal(0.3, 1.0, n)
                diffs = diffs[diffs != 0]
                if diffs.size < 5:
                    continue
                got = wilcoxon_signed_rank_one_sided(diffs)
                want = enumerate_wilcoxon(diffs)
                assert got == pytest.approx(want, abs=1e-12)

    def test_enumeration_with_tied_magnitudes(self):
        diffs = np.array([1.0, -1.0, 2.0, 2.0, -3.0, 4.0, 4.0, 5.0])
        got = wilcoxon_signed_rank_one_sided(diffs)
        want = enumerate_wilcoxon(diffs)
        assert got == pytest.approx(want, abs=1e-12)

    def test_symmetric_differences_give_half_ish(self):
        diffs = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0])
        p = wilcoxon_signed_rank_one_sided(diffs)
        assert p == pytest.approx(enumerate_wilcoxon(diffs), abs=1e-12)
        assert 0.4 <= p <= 0.7

    def test_zero_differences_dropped(self):
        diffs = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0])
        got = wilcoxon_signed_rank_one_sided(diffs)
        want = wilcoxon_signed_rank_one_sided(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert got == want == pytest.approx(1.0 / 32.0, abs=1e-15)

    def test_large_n_approximation_close_to_permutation_estimate(self):
        rng = np.random.default_rng(2)
        diffs = rng.normal(0.25, 1.0, 30)
        got = wilcoxon_signed_rank_one_sided(diffs)
        # permutation estimate of P(W+ >= observed) under random signs
        ranks = rankdata(np.abs(diffs), method="average")
        observed = ranks[diffs > 0].sum()
        draws = rng.random((1_000_000, 30)) < 0.5
        stats = draws @ ranks
        estimate = float((stats >= observed - 1e-9).mean())
        assert got == pytest.approx(estimate, abs=0.01)

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            wilcoxon_signed_rank_one_sided(np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0]))


class TestCompareMethods:
    def test_matrix_shape_and_diagonal(self):
        rng = np.random.default_rng(3)
        base = rng.normal(0.5, 0.05, 12)
        values = {"strong": base + 0.2, "weak": base, "middling": base + 0.1}
        result = compare_methods(values)
        assert result.p_values.shape == (3, 3)
        assert np.all(result.p_values >= 0.0) and np.all(result.p_values <= 1.0)
        np.testing.assert_array_equal(np.diag(result.p_values), np.ones(3))

    def test_dominant_method_is_significant(self):
        rng = np.random.default_rng(4)
        base = rng.normal(0.5, 0.05, 12)
        result = compare_methods({"strong": base + 0.2, "weak": base})
        i = result.method_names.index("strong")
        j = result.method_names.index("weak")
        assert result.significant[i, j]
        assert not result.significant[j, i]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same number"):
            compare_methods({"a": np.ones(5), "b": np.ones(6)})
