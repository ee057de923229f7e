"""Marginal kappa scorer: leave-one-out estimates per example."""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from abstainkit import PenaltyWeightMatrix, ProbabilityMatrix, score_examples_kappa
from abstainkit.errors import DegenerateDenominator
from abstainkit.scoring import MonteCarloConfig, _draw_classes

from oracles import (
    clamped_class_draw,
    clamped_kappa_scores,
    kappa_without_example,
    naive_kappa_marginals,
    same_stream_kappa_means,
)


def _random_simplex_rows(rng, n, c):
    z = rng.normal(0, 2, (n, c))
    p = np.exp(z - z.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


class TestDeterministicKappaScorer:
    def test_one_hot_agreement_scores_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 15)
        probs = ProbabilityMatrix(np.eye(3)[labels])
        scores = score_examples_kappa(probs, PenaltyWeightMatrix.quadratic(3)).scores
        np.testing.assert_array_equal(scores, np.ones(15))

    def test_one_hot_equals_remove_and_recompute(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, 12)
        probs = ProbabilityMatrix(np.eye(3)[labels])
        weights = PenaltyWeightMatrix.quadratic(3)
        scores = score_examples_kappa(probs, weights).scores
        pred = probs.entries.argmax(axis=1)
        for x in range(12):
            want = kappa_without_example(pred, labels, weights, x)
            assert scores[x] == pytest.approx(want, abs=1e-10)

    def test_matches_naive_loop_evaluation(self):
        rng = np.random.default_rng(2)
        for c in (3, 5):
            probs = ProbabilityMatrix(_random_simplex_rows(rng, 30, c))
            weights = PenaltyWeightMatrix.quadratic(c)
            got = score_examples_kappa(probs, weights).scores
            want = naive_kappa_marginals(probs.entries, weights.weights)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_scores_bounded_above_by_one(self):
        rng = np.random.default_rng(3)
        probs = ProbabilityMatrix(_random_simplex_rows(rng, 200, 4))
        scores = score_examples_kappa(probs, PenaltyWeightMatrix.quadratic(4)).scores
        assert scores.max() <= 1.0 + 1e-12

    def test_degenerate_denominator(self):
        # every row certain of class 0 with zero-diagonal penalties: the
        # leave-one-out chance penalty vanishes
        probs = ProbabilityMatrix(np.eye(2)[np.zeros(5, dtype=int)])
        with pytest.raises(DegenerateDenominator):
            score_examples_kappa(probs, PenaltyWeightMatrix.quadratic(2))


class TestMonteCarloKappaScorer:
    def test_converges_to_deterministic(self):
        rng = np.random.default_rng(4)
        probs = ProbabilityMatrix(_random_simplex_rows(rng, 400, 4))
        weights = PenaltyWeightMatrix.quadratic(4)
        det = score_examples_kappa(probs, weights).scores
        gaps = []
        for m in (16, 256):
            mc = score_examples_kappa(
                probs, weights, mc=MonteCarloConfig(samples=m, seed=100 + m)
            ).scores
            gaps.append(np.abs(mc - det).mean())
        assert gaps[1] < gaps[0]

    def test_one_hot_rows_always_score_one(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 4, 20)
        probs = ProbabilityMatrix(np.eye(4)[labels])
        mc = score_examples_kappa(
            probs, PenaltyWeightMatrix.quadratic(4),
            mc=MonteCarloConfig(samples=5, seed=0),
        ).scores
        np.testing.assert_array_equal(mc, np.ones(20))

    def test_seed_determinism_bitwise(self):
        rng = np.random.default_rng(6)
        probs = ProbabilityMatrix(_random_simplex_rows(rng, 50, 3))
        weights = PenaltyWeightMatrix.quadratic(3)
        cfg = MonteCarloConfig(samples=30, seed=7)
        a = score_examples_kappa(probs, weights, mc=cfg).scores
        b = score_examples_kappa(probs, weights, mc=cfg).scores
        np.testing.assert_array_equal(a, b)

    def test_dimension_checks(self):
        probs = ProbabilityMatrix(np.full((4, 2), 0.5))
        with pytest.raises(ValueError, match="dimension"):
            score_examples_kappa(probs, PenaltyWeightMatrix.quadratic(3))
        one_row = ProbabilityMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="at least 2"):
            score_examples_kappa(one_row, PenaltyWeightMatrix.quadratic(2))

    def test_two_rows_leave_too_few_for_kappa(self):
        # abstaining on one of 2 rows leaves a single row, where kappa is undefined
        probs = ProbabilityMatrix(np.array([[0.3, 0.7], [0.6, 0.4]]))
        for mc in (None, MonteCarloConfig(samples=4, seed=0)):
            for rows in (probs, ProbabilityMatrix(probs.entries[:1])):
                with pytest.raises(DegenerateDenominator, match="at least 2"):
                    score_examples_kappa(rows, PenaltyWeightMatrix.quadratic(2), mc=mc)


@st.composite
def _simplex_instances(draw):
    n = draw(st.integers(3, 10))
    c = draw(st.integers(2, 4))
    mass = draw(st.lists(st.floats(0.01, 1.0), min_size=n * c, max_size=n * c))
    rows = np.array(mass).reshape(n, c)
    return rows / rows.sum(axis=1, keepdims=True), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None)
@given(_simplex_instances())
def test_monte_carlo_equals_same_stream_recompute_mean(instance):
    # each MC score is the mean over the drawn label vectors of the kappa
    # recomputed without that example
    p, seed = instance
    probs = ProbabilityMatrix(p)
    weights = PenaltyWeightMatrix.quadratic(p.shape[1])
    mc = MonteCarloConfig(samples=5, seed=seed)
    try:
        got = score_examples_kappa(probs, weights, mc=mc).scores
    except DegenerateDenominator:
        reject()
    want = same_stream_kappa_means(p, weights, 5, seed)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@st.composite
def _lattice_simplex_rows(draw):
    """Rows k/steps summing to 1 (steps 1 gives one-hot rows), so entries and
    argmax candidates tie."""
    n = draw(st.integers(3, 10))
    c = draw(st.integers(2, 4))
    steps = draw(st.sampled_from([1, 4, 10]))
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, steps), min_size=c - 1, max_size=c - 1)))
        rows.append(np.diff([0, *cuts, steps]) / steps)
    return np.array(rows)


@settings(derandomize=True, deadline=None)
@given(_lattice_simplex_rows())
def test_deterministic_equals_naive_loop_evaluation(p):
    weights = PenaltyWeightMatrix.quadratic(p.shape[1])
    try:
        got = score_examples_kappa(ProbabilityMatrix(p), weights).scores
    except DegenerateDenominator:
        reject()
    np.testing.assert_allclose(got, naive_kappa_marginals(p, weights.weights), rtol=0, atol=1e-10)


@st.composite
def _edge_simplex_rows(draw):
    """Rows with zero-probability columns: tenths k/10, whose cumsum may end
    just below 1 (0.2, 0.7, 0.1 ends at 0.9999999999999999), or normalized
    soft mass with some columns zeroed."""
    n = draw(st.integers(2, 10))
    c = draw(st.integers(2, 5))
    rows = []
    for _ in range(n):
        if draw(st.booleans()):
            cuts = sorted(draw(st.lists(st.integers(0, 10), min_size=c - 1, max_size=c - 1)))
            rows.append(np.diff([0, *cuts, 10]) / 10)
        else:
            mass = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=c, max_size=c)))
            mass[draw(st.integers(0, c - 1))] += 0.5  # never an all-zero row
            rows.append(mass / mass.sum())
    return np.array(rows)


@settings(derandomize=True, deadline=None)
@given(_edge_simplex_rows(), st.integers(0, 2**32 - 1))
def test_monte_carlo_scores_are_bytes_of_the_clamped_draw_reference(p, seed):
    # C - 1 column passes over the cumsum against the N x C comparison and its clamp
    weights = PenaltyWeightMatrix.quadratic(p.shape[1])
    mc = MonteCarloConfig(samples=6, seed=seed)
    try:
        want = clamped_kappa_scores(p, weights, 6, seed)
    except DegenerateDenominator:
        with pytest.raises(DegenerateDenominator):
            score_examples_kappa(ProbabilityMatrix(p), weights, mc=mc)
        return
    got = score_examples_kappa(ProbabilityMatrix(p), weights, mc=mc).scores
    assert got.tobytes() == want.tobytes()


@settings(derandomize=True, deadline=None)
@given(_edge_simplex_rows())
@example(np.array([[0.2, 0.7, 0.1], [0.0, 1.0, 0.0]]))  # the first cumsum ends below 1
def test_class_draw_equals_the_clamped_draw_at_every_bound(p):
    # uniforms on, just below and just above every cumulative bound, and at
    # the ends of [0, 1): a draw past a cumsum that ends below 1 takes the last class
    cum = p.cumsum(axis=1)
    bounds = np.ascontiguousarray(cum[:, :-1].T)
    top = np.nextafter(1.0, 0.0)
    ends = np.tile([0.0, top], (p.shape[0], 1))
    candidates = np.concatenate([np.nextafter(cum, -np.inf), cum, np.nextafter(cum, np.inf), ends], axis=1)
    for u in np.clip(candidates, 0.0, top).T:
        u = np.ascontiguousarray(u)
        np.testing.assert_array_equal(_draw_classes(u, bounds), clamped_class_draw(u, cum))
