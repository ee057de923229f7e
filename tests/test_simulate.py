"""Synthetic generators: calibration-by-construction and determinism."""

import warnings

import numpy as np
import pytest

from abstainkit import (
    BinarySimConfig,
    MulticlassSimConfig,
    resample_with_shift,
    sample_random_binary_config,
    simulate_binary,
    simulate_multiclass,
)
from abstainkit.errors import DimensionMismatch, EmptyClass, InvalidConfig
from abstainkit.simulate import multiclass_posterior


class TestBinarySimulation:
    def test_indistinguishable_classes_posterior_is_exactly_prior(self):
        cfg = BinarySimConfig(
            positive_prior=0.37, mu_pos=1.0, mu_neg=1.0, sigma_pos=2.0, sigma_neg=2.0, n=500, seed=0
        )
        posteriors, _, _ = simulate_binary(cfg)
        assert np.array_equal(posteriors, np.full(500, 0.37))

    def test_symmetric_config_crosses_half_at_zero(self):
        cfg = BinarySimConfig(
            positive_prior=0.5, mu_pos=1.0, mu_neg=-1.0, sigma_pos=1.0, sigma_neg=1.0, n=10, seed=0
        )
        from abstainkit.simulate import binary_posterior

        assert binary_posterior(np.array([0.0]), cfg)[0] == pytest.approx(0.5, abs=1e-12)

    def test_positive_fraction_concentrates(self):
        cfg = BinarySimConfig(
            positive_prior=0.1, mu_pos=2.0, mu_neg=-1.0, sigma_pos=1.0, sigma_neg=2.0,
            n=10000, seed=0,
        )
        _, labels, _ = simulate_binary(cfg)
        bound = 3.0 * np.sqrt(0.1 * 0.9 / 10000)
        assert abs(labels.mean() - 0.1) <= bound

    def test_posteriors_are_calibrated_by_construction(self):
        cfg = BinarySimConfig(
            positive_prior=0.3, mu_pos=1.5, mu_neg=-0.5, sigma_pos=1.0, sigma_neg=1.5,
            n=40000, seed=1,
        )
        posteriors, labels, _ = simulate_binary(cfg)
        edges = np.quantile(posteriors, np.linspace(0, 1, 11))
        for lo, hi in zip(edges, edges[1:]):
            mask = (posteriors >= lo) & (posteriors < hi)
            if mask.sum() < 100:
                continue
            expected = posteriors[mask].mean()
            observed = labels[mask].mean()
            spread = 3.0 * np.sqrt(expected * (1 - expected) / mask.sum())
            assert abs(observed - expected) <= spread + 1e-9

    def test_determinism(self):
        cfg = BinarySimConfig(
            positive_prior=0.2, mu_pos=1.0, mu_neg=0.0, sigma_pos=1.0, sigma_neg=1.0, n=100, seed=3
        )
        first = simulate_binary(cfg)
        second = simulate_binary(cfg)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            BinarySimConfig(positive_prior=0.0, mu_pos=1, mu_neg=0, sigma_pos=1, sigma_neg=1, n=10, seed=0)
        with pytest.raises(InvalidConfig):
            BinarySimConfig(positive_prior=0.5, mu_pos=1, mu_neg=0, sigma_pos=0, sigma_neg=1, n=10, seed=0)
        with pytest.raises(InvalidConfig):
            BinarySimConfig(positive_prior=0.5, mu_pos=1, mu_neg=0, sigma_pos=1, sigma_neg=1, n=0, seed=0)

    @pytest.mark.parametrize("n, seed", [(10.5, 0), (10.0, 0), ("10", 0), (10, 1.5), (True, 0), (10, False)])
    def test_size_and_seed_must_be_integers(self, n, seed):
        binary = dict(positive_prior=0.5, mu_pos=1, mu_neg=0, sigma_pos=1, sigma_neg=1)
        multiclass = dict(priors=(0.5, 0.5), means=(0.0, 1.0), sigmas=(1.0, 1.0))
        for config, fields in ((BinarySimConfig, binary), (MulticlassSimConfig, multiclass)):
            with pytest.raises(InvalidConfig, match="n and seed must be integers"):
                config(n=n, seed=seed, **fields)
            assert config(n=np.int64(10), seed=np.int64(3), **fields).n == 10

    @pytest.mark.parametrize("value, error", [(float("nan"), InvalidConfig), (float("inf"), InvalidConfig),
                                              ("1", TypeError), (None, TypeError), (True, TypeError)])
    def test_float_fields_must_be_finite_numbers(self, value, error):
        binary = dict(positive_prior=0.5, mu_pos=1.0, mu_neg=0.0, sigma_pos=1.0, sigma_neg=1.0, n=10, seed=0)
        for name in ("positive_prior", "mu_pos", "mu_neg", "sigma_pos", "sigma_neg"):
            with pytest.raises(error, match=name):
                BinarySimConfig(**{**binary, name: value})
        multiclass = dict(priors=(0.5, 0.5), means=(0.0, 1.0), sigmas=(1.0, 1.0), n=10, seed=0)
        for name in ("priors", "means", "sigmas"):
            with pytest.raises(error, match=name):
                MulticlassSimConfig(**{**multiclass, name: (multiclass[name][0], value)})


class TestMulticlassSimulation:
    def test_identical_components_give_prior_rows(self):
        cfg = MulticlassSimConfig(
            priors=(0.5, 0.3, 0.2), means=(1.0, 1.0, 1.0), sigmas=(2.0, 2.0, 2.0), n=200, seed=0
        )
        posteriors, _ = simulate_multiclass(cfg)
        np.testing.assert_allclose(posteriors.entries, np.tile([0.5, 0.3, 0.2], (200, 1)), atol=1e-12)

    def test_rows_sum_to_one_and_counts_concentrate(self):
        priors = (0.4, 0.3, 0.2, 0.1)
        cfg = MulticlassSimConfig(
            priors=priors, means=(-8.0, -3.0, 3.0, 4.0), sigmas=(4.0, 3.0, 3.0, 2.0),
            n=10000, seed=1,
        )
        posteriors, labels = simulate_multiclass(cfg)
        np.testing.assert_allclose(posteriors.entries.sum(axis=1), 1.0, atol=1e-12)
        counts = np.bincount(labels, minlength=4) / 10000
        for p, c in zip(priors, counts):
            assert abs(c - p) <= 3.0 * np.sqrt(p * (1 - p) / 10000)

    def test_two_class_reduction_matches_binary_posterior(self):
        cfg = BinarySimConfig(
            positive_prior=0.2, mu_pos=2.0, mu_neg=-1.0, sigma_pos=1.0, sigma_neg=2.0, n=200, seed=9
        )
        posteriors, _, values = simulate_binary(cfg)
        rows = multiclass_posterior(values, MulticlassSimConfig((0.8, 0.2), (-1.0, 2.0), (2.0, 1.0), n=1, seed=0))
        np.testing.assert_allclose(rows.entries[:, 1], posteriors, atol=1e-12)

    def test_far_tail_values_stay_normalized(self):
        cfg = MulticlassSimConfig((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0), n=1, seed=0)
        rows = multiclass_posterior(np.array([-1e6, 1e6]), cfg)
        assert np.isfinite(rows.entries).all()
        np.testing.assert_allclose(rows.entries.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_prior_class_gets_probability_zero_without_a_warning(self):
        cfg = MulticlassSimConfig((0.5, 0.0, 0.5), (-1.0, 0.0, 1.0), (1.0, 1.0, 1.0), n=300, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            posteriors, labels = simulate_multiclass(cfg)
        assert np.array_equal(posteriors.entries[:, 1], np.zeros(300))
        assert not (labels == 1).any()


class TestRandomConfigDraws:
    def test_ranges(self):
        for seed in range(200):
            cfg = sample_random_binary_config(seed)
            assert 0.1 <= cfg.positive_prior < 0.9
            assert 0.0 <= cfg.mu_pos < 5.0
            assert cfg.mu_pos - 5.0 <= cfg.mu_neg < cfg.mu_pos
            assert 1.0 <= cfg.sigma_pos < 5.0
            assert 1.0 <= cfg.sigma_neg < 5.0
            assert cfg.n == 1000

    def test_same_seed_same_config(self):
        assert sample_random_binary_config(17) == sample_random_binary_config(17)

    def test_prior_mean_concentrates(self):
        priors = [sample_random_binary_config(seed).positive_prior for seed in range(10000)]
        assert abs(np.mean(priors) - 0.5) < 0.02


class TestResampleWithShift:
    def test_matching_priors_hit_floor_counts(self):
        labels = np.repeat([0, 1], [60, 40])
        probs = np.linspace(0, 1, 100)
        _, out_labels, _ = resample_with_shift(probs, labels, [0.6, 0.4], 50, seed=0)
        assert (out_labels == 0).sum() == 30
        assert (out_labels == 1).sum() == 20

    def test_one_to_two_ratio_exact_counts(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(5000) < 0.5).astype(int)
        probs = rng.uniform(0, 1, 5000)
        _, out_labels, _ = resample_with_shift(probs, labels, [2 / 3, 1 / 3], 9000, seed=1)
        assert (out_labels == 1).sum() == 3000
        assert (out_labels == 0).sum() == 6000

    def test_zero_prior_class_absent(self):
        labels = np.array([0, 0, 1, 1])
        probs = np.array([0.1, 0.2, 0.8, 0.9])
        _, out_labels, _ = resample_with_shift(probs, labels, [1.0, 0.0], 10, seed=2)
        assert (out_labels == 1).sum() == 0

    def test_missing_source_class(self):
        labels = np.zeros(5, dtype=int)
        with pytest.raises(EmptyClass):
            resample_with_shift(np.linspace(0, 1, 5), labels, [0.5, 0.5], 4, seed=3)

    def test_indices_align_posteriors_and_labels(self):
        rng = np.random.default_rng(4)
        labels = (rng.random(200) < 0.3).astype(int)
        probs = rng.uniform(0, 1, 200)
        out_probs, out_labels, idx = resample_with_shift(probs, labels, [0.5, 0.5], 100, seed=5)
        np.testing.assert_array_equal(out_probs, probs[idx])
        np.testing.assert_array_equal(out_labels, labels[idx])

    def test_largest_remainder_total_is_exact(self):
        labels = np.repeat([0, 1, 2], 50)
        probs = np.linspace(0, 1, 150)
        matrix = np.column_stack([1 - probs, probs / 2, probs / 2])
        out_probs, out_labels, _ = resample_with_shift(
            matrix, labels, [1 / 3, 1 / 3, 1 / 3], 100, seed=6
        )
        assert out_labels.size == 100
        assert out_probs.shape == (100, 3)

    @pytest.mark.parametrize("target, error", [
        ([float("nan"), float("nan")], InvalidConfig), ([[0.5, 0.5]], DimensionMismatch), (0.5, DimensionMismatch),
        ([], InvalidConfig), ([0.6, 0.6], InvalidConfig), ([1.5, -0.5], InvalidConfig),
    ], ids=["nan", "matrix", "scalar", "empty", "sum", "negative"])
    def test_target_priors_must_be_a_distribution(self, target, error):
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(error, match="priors must be"):
            resample_with_shift(np.array([0.1, 0.2, 0.8, 0.9]), labels, target, 4, seed=7)
