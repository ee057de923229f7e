"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Each test is deterministic (fixed seeds) and carries its own runtime budget
implicitly through the sizes below; the whole module runs in about a minute.
"""

import csv

import numpy as np
import pytest

from abstainkit import (
    BinarySimConfig,
    MarginalScoreVector,
    PenaltyWeightMatrix,
    PriorEstimate,
    ProbabilityMatrix,
    SortedPredictionSet,
    adapt_label_shift_em,
    auroc,
    baseline_scores,
    fit_calibrator,
    rank_correlations,
    resample_with_shift,
    sample_random_binary_config,
    score_examples_kappa,
    score_windows_auroc,
    score_windows_sens_at_spec,
    select_abstentions,
    sensitivity_at_specificity,
    simulate_binary,
    weighted_kappa,
    wilcoxon_signed_rank_one_sided,
)
from abstainkit.experiments import ExperimentSpec, run_experiment
from abstainkit.scoring import MonteCarloConfig

from oracles import (
    definitional_correlations,
    enumerate_wilcoxon,
    kappa_without_example,
    metric_without_window,
    naive_auroc_window_scores,
    naive_kappa_marginals,
)


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[acceptance {number}] {status}: {detail}")
    assert passed, detail


def _abstain_sets(probs_sorted, seed, d, target_specificity, priors):
    """The three competing selections on one sorted binary dataset."""
    preds = SortedPredictionSet(probs_sorted)
    mc = MonteCarloConfig(samples=100, seed=seed, smooth=True)
    sens = select_abstentions(score_windows_sens_at_spec(preds, target_specificity, d, mc), d)
    roc = select_abstentions(score_windows_auroc(preds, d), d)
    priorities = baseline_scores(
        ProbabilityMatrix.from_binary(probs_sorted), priors=priors,
        method="js_divergence",
    )
    js = select_abstentions(MarginalScoreVector(priorities), d)
    return {"sens": sens, "roc": roc, "js": js}


def test_criterion_1_metric_specific_selection_ordering():
    """Abstaining 30% on the imbalanced binary simulation: the sensitivity
    scorer must win on sensitivity@90%spec and the deterministic auROC scorer
    on auROC, against each other and the divergence-from-priors rule, in at
    least 18 of 20 seeds."""
    sens_wins = 0
    roc_wins = 0
    for seed in range(20):
        cfg = BinarySimConfig(
            positive_prior=0.1, mu_pos=2.0, mu_neg=-1.0, sigma_pos=1.0, sigma_neg=2.0,
            n=10000, seed=seed,
        )
        probs, labels, _ = simulate_binary(cfg)
        order = np.argsort(probs, kind="stable")
        p, y = probs[order], labels[order]
        sets = _abstain_sets(p, seed, d=3000, target_specificity=0.9,
                             priors=np.array([0.9, 0.1]))
        post_sens, post_roc = {}, {}
        for name, chosen in sets.items():
            keep = np.setdiff1d(np.arange(p.size), chosen)
            retained = SortedPredictionSet(p[keep], y[keep])
            post_sens[name] = sensitivity_at_specificity(retained, 0.9)
            post_roc[name] = auroc(retained)
        if post_sens["sens"] > max(post_sens["roc"], post_sens["js"]):
            sens_wins += 1
        if post_roc["roc"] >= max(post_roc["sens"], post_roc["js"]):
            roc_wins += 1
    _report(
        1,
        sens_wins >= 18 and roc_wins >= 18,
        f"sens scorer best on sens@90% in {sens_wins}/20 seeds, "
        f"auROC scorer best on auROC in {roc_wins}/20 seeds (need >= 18)",
    )


def test_criterion_2_auroc_scorer_correlation():
    """Over 100 random binary configs (n=1000, window 100), the smoothed
    1000-sample Monte-Carlo auROC scores and the deterministic scores must
    stay rank-consistent: min Spearman > 0.95, median Spearman > 0.99 and
    min Pearson > 0.99."""
    spearmans = np.empty(100)
    pearsons = np.empty(100)
    for seed in range(100):
        cfg = sample_random_binary_config(seed)
        probs, _, _ = simulate_binary(cfg)
        preds = SortedPredictionSet.from_unsorted(probs)
        sampled = score_windows_auroc(
            preds, 100,
            mc=MonteCarloConfig(samples=1000, seed=seed, smooth=True),
        )
        exact = score_windows_auroc(preds, 100)
        spearmans[seed], pearsons[seed] = rank_correlations(sampled.scores, exact.scores)
    _report(
        2,
        spearmans.min() > 0.95 and np.median(spearmans) > 0.99 and pearsons.min() > 0.99,
        f"min Spearman {spearmans.min():.4f} (> 0.95), "
        f"median Spearman {np.median(spearmans):.4f} (> 0.99), "
        f"min Pearson {pearsons.min():.5f} (> 0.99)",
    )


def test_criterion_3_kappa_scorer_convergence():
    """On the four-class simulation (N=10000), the gap between sampled and
    deterministic kappa marginals must shrink strictly across the sample
    ladder with a log-log slope of -0.5 within 0.15."""
    ladder = (8, 32, 128, 512, 2048)
    spec = ExperimentSpec.from_dict({
        "task": "kappa_convergence",
        "methods": ["kappa_marginal_det"],
        "budgets": [0.2],
        "seeds": [0],
        "metric": {"name": "weighted_kappa"},
        "sim": {"repeats": 16},
        "output": "/tmp/abstainkit-acceptance-kappa",
    })
    paths = run_experiment(spec)
    with open(paths["results"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    diffs = np.array([float(r["mean_abs_diff"]) for r in rows])
    assert [int(r["mc_samples"]) for r in rows] == list(ladder)
    slope = np.polyfit(np.log(ladder), np.log(diffs), 1)[0]
    _report(
        3,
        bool(np.all(np.diff(diffs) < 0)) and abs(slope + 0.5) <= 0.15,
        f"gaps {np.array2string(diffs, precision=2)} strictly decreasing, "
        f"log-log slope {slope:.3f} within -0.5 +/- 0.15",
    )


def test_criterion_4_oracle_equivalence():
    """With 0/1 probabilities all three scorers must equal brute-force
    remove-and-recompute exactly (50 instances); with soft probabilities the
    deterministic scorers must match naive definitional evaluation within
    1e-10 (50 instances)."""
    rng = np.random.default_rng(2024)
    hard_exact = True
    for _ in range(50):
        n = int(rng.integers(20, 61))
        k = int(rng.integers(4, n - 4))
        d = int(rng.integers(1, min(k, n - k)))
        p = np.concatenate([np.zeros(k), np.ones(n - k)])
        labels = p.astype(int)
        preds = SortedPredictionSet(p)
        s = float(rng.uniform(0.05, 0.95))
        mc = MonteCarloConfig(samples=1, seed=0, smooth=False)
        sens_scores = score_windows_sens_at_spec(preds, s, d, mc).scores
        roc_scores = score_windows_auroc(preds, d).scores
        for i in range(n + 1 - d):
            want_sens = metric_without_window(
                p, labels, i, d, sensitivity_at_specificity, target_specificity=s
            )
            want_roc = metric_without_window(p, labels, i, d, auroc)
            hard_exact &= sens_scores[i] == want_sens and roc_scores[i] == want_roc
        classes = rng.integers(0, 3, max(n, 4))
        one_hot = ProbabilityMatrix(np.eye(3)[classes])
        weights = PenaltyWeightMatrix.quadratic(3)
        kappa_scores = score_examples_kappa(one_hot, weights).scores
        for x in range(classes.size):
            want = kappa_without_example(classes, classes, weights, x)
            hard_exact &= kappa_scores[x] == want

    soft_max_err = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            n = int(rng.integers(20, 41))
            d = int(rng.integers(2, n // 3))
            p = np.sort(rng.uniform(0.02, 0.98, n))
            got = score_windows_auroc(SortedPredictionSet(p), d).scores
            want = naive_auroc_window_scores(p, d)
        else:
            n, c = int(rng.integers(10, 31)), int(rng.integers(2, 6))
            z = rng.normal(0, 2, (n, c))
            rows = np.exp(z - z.max(axis=1, keepdims=True))
            rows /= rows.sum(axis=1, keepdims=True)
            got = score_examples_kappa(
                ProbabilityMatrix(rows), PenaltyWeightMatrix.quadratic(c)
            ).scores
            want = naive_kappa_marginals(rows, PenaltyWeightMatrix.quadratic(c).weights)
        soft_max_err = max(soft_max_err, float(np.abs(got - want).max()))
    _report(
        4,
        hard_exact and soft_max_err <= 1e-10,
        f"hard 0/1 instances exact: {hard_exact}; "
        f"soft deterministic max |err| {soft_max_err:.2e} (<= 1e-10)",
    )


def test_criterion_5_label_shift_recovery():
    """Resampling a balanced simulation to a 1:2 positive:negative test set:
    EM must recover the positive prior within 0.02 in >= 19/20 seeds, and
    selecting with adapted probabilities must match or beat the unadapted
    selection on sensitivity@99%spec in >= 15/20 seeds."""
    recovered = 0
    adapted_wins = 0
    for seed in range(20):
        cfg = BinarySimConfig(
            positive_prior=0.5, mu_pos=1.0, mu_neg=-1.0, sigma_pos=1.0, sigma_neg=1.0,
            n=30000, seed=seed,
        )
        probs, labels, _ = simulate_binary(cfg)
        shifted_probs, shifted_labels, _ = resample_with_shift(
            probs, labels, [2.0 / 3.0, 1.0 / 3.0], 10000, seed=seed + 1000
        )
        result = adapt_label_shift_em(
            ProbabilityMatrix.from_binary(shifted_probs),
            PriorEstimate(np.array([0.5, 0.5])),
        )
        if abs(result.test_priors.priors[1] - 1.0 / 3.0) <= 0.02:
            recovered += 1
        post = {}
        for tag, version in (("raw", shifted_probs), ("adapted", result.adapted_probs.entries[:, 1])):
            order = np.argsort(version, kind="stable")
            scores = score_windows_sens_at_spec(
                SortedPredictionSet(version[order]), 0.99, 3000,
                MonteCarloConfig(samples=100, seed=seed, smooth=True),
            )
            chosen = select_abstentions(scores, 3000)
            keep = np.setdiff1d(np.arange(10000), order[chosen])
            retained = SortedPredictionSet.from_unsorted(shifted_probs[keep], shifted_labels[keep])
            post[tag] = sensitivity_at_specificity(retained, 0.99)
        if post["adapted"] >= post["raw"]:
            adapted_wins += 1
    _report(
        5,
        recovered >= 19 and adapted_wins >= 15,
        f"prior within 0.02 in {recovered}/20 seeds (need >= 19); "
        f"adapted selection >= unadapted in {adapted_wins}/20 seeds (need >= 15)",
    )


def test_criterion_6_calibration_suite():
    """Temperature recovery within 5% of 2.5, identity-score recovery for the
    sigmoid calibrator (slope 1 +/- 0.1, intercept 0 +/- 0.1), and argmax
    invariance of plain temperature scaling on 1000 random rows."""
    rng = np.random.default_rng(606)
    reference = rng.normal(0.0, 3.0, (10000, 4))
    ref_probs = np.exp(reference - reference.max(axis=1, keepdims=True))
    ref_probs /= ref_probs.sum(axis=1, keepdims=True)
    labels = (rng.random(10000)[:, None] >= ref_probs.cumsum(axis=1)).sum(axis=1).clip(0, 3)
    temp_cal = fit_calibrator("temperature", reference * 2.5, labels)
    temp_ok = abs(temp_cal.temperature - 2.5) <= 0.05 * 2.5

    scores = rng.normal(0.0, 2.0, 10000)
    binary = (rng.random(10000) < 1.0 / (1.0 + np.exp(-scores))).astype(int)
    platt_cal = fit_calibrator("platt", scores, binary)
    platt_ok = abs(platt_cal.scale - 1.0) <= 0.1 and abs(platt_cal.offset[0]) <= 0.1

    logits = rng.normal(0, 3, (1000, 5))
    from abstainkit import Calibrator, apply_calibrator

    argmax_ok = True
    for temperature in (0.3, 2.5, 40.0):
        cal = Calibrator(kind="temperature", scale=1.0 / temperature, offset=np.zeros(5))
        rows = apply_calibrator(cal, logits).entries
        argmax_ok &= bool(np.all(rows.argmax(axis=1) == logits.argmax(axis=1)))
    _report(
        6,
        temp_ok and platt_ok and argmax_ok,
        f"temperature {temp_cal.temperature:.3f} (2.5 +/- 5%), "
        f"sigmoid fit slope {platt_cal.scale:.3f} intercept {platt_cal.offset[0]:.3f} "
        f"(within 0.1), argmax invariance {argmax_ok}",
    )


def test_criterion_7_statistics_suite():
    """Exact signed-rank p-values must equal full sign enumeration for
    n <= 12 (including the all-positive n=10 case, p = 1/1024), and both
    correlations must match definitional oracles within 1e-12."""
    rng = np.random.default_rng(707)
    enumeration_ok = True
    for n in (5, 7, 9, 11, 12):
        for _ in range(3):
            diffs = rng.normal(0.4, 1.0, n)
            diffs = diffs[diffs != 0]
            if diffs.size < 5:
                continue
            got = wilcoxon_signed_rank_one_sided(diffs)
            enumeration_ok &= abs(got - enumerate_wilcoxon(diffs)) <= 1e-12
    all_positive = wilcoxon_signed_rank_one_sided(np.arange(1.0, 11.0))
    extreme_ok = all_positive == pytest.approx(1.0 / 1024.0, abs=1e-15)

    a = rng.normal(0, 1, 30)
    b = 0.3 * a + rng.normal(0, 1, 30)
    got_s, got_p = rank_correlations(a, b)
    want_s, want_p = definitional_correlations(a, b)
    corr_ok = abs(got_s - want_s) <= 1e-12 and abs(got_p - want_p) <= 1e-12
    _report(
        7,
        enumeration_ok and extreme_ok and corr_ok,
        f"exact p equals enumeration up to n=12: {enumeration_ok}; "
        f"all-positive n=10 p = {all_positive:.6g} (= 1/1024); "
        f"correlation oracles within 1e-12: {corr_ok}",
    )


def test_sanity_weighted_kappa_reference_instance():
    """Frozen reference: quadratic weights, mixed six-example instance."""
    pred = np.array([0, 1, 2, 3, 4, 0])
    true = np.array([0, 2, 2, 4, 4, 1])
    value = weighted_kappa(pred, true, PenaltyWeightMatrix.quadratic(5))
    assert value == pytest.approx(1.0 - 18.0 / 166.0, abs=1e-12)
