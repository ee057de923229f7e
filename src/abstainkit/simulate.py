"""Synthetic prediction generators whose posteriors are calibrated by construction.

Class-conditional values are Gaussian, so the posterior given an observed
value is available in closed form. Densities are combined in log space and
normalized against the dominant term, which keeps far-tail observations from
producing 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import PriorEstimate, _softmax
from .errors import MAX_SIZE, EmptyClass, InvalidConfig, as_array, check_counts, check_labels, check_numbers
from .metrics import ProbabilityMatrix
from .scoring import _draw_classes

__all__ = [
    "BinarySimConfig",
    "MulticlassSimConfig",
    "binary_posterior",
    "multiclass_posterior",
    "simulate_binary",
    "simulate_multiclass",
    "sample_random_binary_config",
    "resample_with_shift",
]


@dataclass(frozen=True)
class BinarySimConfig:
    """Two-Gaussian mixture: label ~ Bernoulli(positive_prior), value ~ N(mu, sigma)."""

    positive_prior: float
    mu_pos: float
    mu_neg: float
    sigma_pos: float
    sigma_neg: float
    n: int
    seed: int

    def __post_init__(self):
        floats = ("positive_prior", "mu_pos", "mu_neg", "sigma_pos", "sigma_neg")
        check_numbers(**{name: getattr(self, name) for name in floats})
        for name in floats:  # a list passes the number rule but is no scalar: float() rejects it
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.positive_prior < 1.0:
            raise InvalidConfig("positive_prior must be in (0, 1)")
        if self.sigma_pos <= 0 or self.sigma_neg <= 0:
            raise InvalidConfig("sigmas must be positive")
        check_counts(n=(self.n, 1, MAX_SIZE), seed=(self.seed, 0))


@dataclass(frozen=True)
class MulticlassSimConfig:
    """C-Gaussian mixture: label ~ Categorical(priors), value ~ N(means[y], sigmas[y])."""

    priors: tuple
    means: tuple
    sigmas: tuple
    n: int
    seed: int

    def __post_init__(self):
        check_numbers(priors=self.priors, means=self.means, sigmas=self.sigmas)
        priors = np.asarray(self.priors, dtype=float)
        means = np.asarray(self.means, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        if priors.ndim != 1 or priors.size < 2:
            raise InvalidConfig("need at least 2 classes")
        if means.shape != priors.shape or sigmas.shape != priors.shape:
            raise InvalidConfig("priors, means and sigmas must have equal length")
        PriorEstimate(priors)
        if sigmas.min() <= 0:
            raise InvalidConfig("sigmas must be positive")
        check_counts(n=(self.n, 1, MAX_SIZE), seed=(self.seed, 0))
        object.__setattr__(self, "priors", tuple(float(p) for p in priors))
        object.__setattr__(self, "means", tuple(float(m) for m in means))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in sigmas))


def _normal_logpdf(x, mu, sigma):
    z = (np.asarray(x, dtype=float) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * np.log(2.0 * np.pi)


def binary_posterior(values, cfg: BinarySimConfig) -> np.ndarray:
    """P(positive | value) under the config's generating distribution.

    Written as q / (q + (1-q) * exp(log_neg - log_pos)); when both class
    densities agree exactly the ratio is 1 and the result is exactly q.
    """
    q = cfg.positive_prior
    log_ratio = _normal_logpdf(values, cfg.mu_neg, cfg.sigma_neg) - _normal_logpdf(
        values, cfg.mu_pos, cfg.sigma_pos
    )
    with np.errstate(over="ignore"):
        return q / (q + (1.0 - q) * np.exp(log_ratio))


def multiclass_posterior(values, priors, means, sigmas) -> ProbabilityMatrix:
    """Row x of the result is P(class | values[x]), normalized in log space."""
    priors = np.asarray(priors, dtype=float)
    values = np.asarray(values, dtype=float)
    log_w = np.log(priors)[None, :] + _normal_logpdf(
        values[:, None], np.asarray(means, dtype=float)[None, :], np.asarray(sigmas, dtype=float)[None, :]
    )
    return ProbabilityMatrix(_softmax(log_w))


def simulate_binary(cfg: BinarySimConfig):
    """Draw labels, raw values and analytically calibrated posteriors.

    Returns ``(posteriors, labels, raw_values)``, all length ``cfg.n``;
    identical seeds give identical outputs.
    """
    rng = np.random.default_rng(cfg.seed)
    labels = (rng.random(cfg.n) < cfg.positive_prior).astype(np.int64)
    mu = np.where(labels == 1, cfg.mu_pos, cfg.mu_neg)
    sigma = np.where(labels == 1, cfg.sigma_pos, cfg.sigma_neg)
    values = rng.normal(mu, sigma)
    return binary_posterior(values, cfg), labels, values


def simulate_multiclass(cfg: MulticlassSimConfig):
    """Draw labels and calibrated posterior rows; returns ``(posteriors, labels)``."""
    rng = np.random.default_rng(cfg.seed)
    priors = np.asarray(cfg.priors)
    labels = _draw_classes(rng.random(cfg.n), np.cumsum(priors)[:-1])
    means = np.asarray(cfg.means)
    sigmas = np.asarray(cfg.sigmas)
    values = rng.normal(means[labels], sigmas[labels])
    return multiclass_posterior(values, priors, cfg.means, cfg.sigmas), labels


def sample_random_binary_config(seed: int) -> BinarySimConfig:
    """Draw a random binary config for the scorer-correlation protocol.

    Parameter ranges: prior in [0.1, 0.9), mu_pos in [0, 5),
    mu_neg in [mu_pos - 5, mu_pos), sigmas in [1, 5); n is fixed at 1000.
    The same seed also drives the data draw, so each config carries a fresh
    dataset.
    """
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 0.9)
    mu_pos = rng.uniform(0.0, 5.0)
    mu_neg = rng.uniform(mu_pos - 5.0, mu_pos)
    sigma_pos = rng.uniform(1.0, 5.0)
    sigma_neg = rng.uniform(1.0, 5.0)
    return BinarySimConfig(
        positive_prior=q,
        mu_pos=mu_pos,
        mu_neg=mu_neg,
        sigma_pos=sigma_pos,
        sigma_neg=sigma_neg,
        n=1000,
        seed=seed,
    )


def resample_with_shift(posteriors, labels, target_priors, m: int, seed: int):
    """Draw ``m`` examples (with replacement) at the target class proportions.

    Per-class counts are ``floor(m * prior)`` topped up by largest remainder
    (ties going to the lower class index) so they always sum to ``m``. Returns
    ``(posteriors_subset, labels_subset, indices)`` with the subset ordered by
    class; indices point into the source arrays.
    """
    posteriors = as_array(getattr(posteriors, "entries", posteriors), "posteriors")
    target = PriorEstimate(getattr(target_priors, "priors", target_priors)).priors
    labels = check_labels(labels, target.size, len(posteriors))
    check_counts(m=(m, 0, MAX_SIZE), seed=(seed, 0))
    exact = m * target
    counts = np.floor(exact).astype(np.int64)
    shortfall = m - int(counts.sum())
    if shortfall:
        by_remainder = np.lexsort((np.arange(target.size), -(exact - counts)))
        counts[by_remainder[:shortfall]] += 1
    rng = np.random.default_rng(seed)
    chosen = []
    for cls, count in enumerate(counts):
        if count == 0:
            continue
        pool = np.flatnonzero(labels == cls)
        if pool.size == 0:
            raise EmptyClass(f"target prior > 0 for class {cls} but no source examples")
        chosen.append(rng.choice(pool, size=count, replace=True))
    indices = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
    return posteriors[indices], labels[indices], indices
