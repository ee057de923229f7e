"""Benchmark workloads: seeded inputs, the CLI invocations of one pass, output checks.

Each workload is a chain of `abstainkit` CLI invocations run one after another,
as a CLI user runs them. The inputs are generated here from the seed, with
posteriors from `abstainkit.simulate` and this module's own stdlib CSV writer
(so a change to the package's writer moves a pass, never set-up). The program
sees only the files.

Every invocation's outputs are checked against invariants at any seed and, at
the default seed, against the digests pinned in `digests.json`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from abstainkit.simulate import BinarySimConfig, MulticlassSimConfig, resample_with_shift, simulate_binary, simulate_multiclass

DEFAULT_SEED = 0
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# The `figure1` simulated classifier: prior 0.1, N(2, 1) positives, N(-1, 2) negatives.
BINARY_SIM = dict(positive_prior=0.1, mu_pos=2.0, mu_neg=-1.0, sigma_pos=1.0, sigma_neg=2.0)
FIGURE1_METHODS = ("sens_window", "auroc_window_det", "auroc_window_mc", "js_divergence", "fumera")
FIGURE1_BUDGET = 0.3
ABSTAIN_BUDGET = 0.3

# Four-class setup of the kappa convergence study; logits are miscalibrated by
# LOGIT_SCALE * log p + LOGIT_BIAS, and the test set is shifted to TEST_PRIORS.
MULTICLASS_SIM = dict(priors=(0.4, 0.3, 0.2, 0.1), means=(-8.0, -3.0, 3.0, 4.0), sigmas=(4.0, 3.0, 3.0, 2.0))
LOGIT_SCALE = 0.6
LOGIT_BIAS = (0.5, -0.3, 0.2, -0.4)
TEST_PRIORS = (0.1, 0.2, 0.3, 0.4)
KAPPA_BUDGET = 0.2
KAPPA_SAMPLES = 512  # a rung of experiments.KAPPA_SAMPLE_LADDER


class CheckFailed(Exception):
    """An invocation's output broke an invariant or a pinned digest."""


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments (paths relative to the work directory),
    the output files whose bytes are pinned, and its invariant check."""

    name: str
    args: tuple
    outputs: tuple
    check: object  # (work_dir, stdout_text) -> None, raises CheckFailed
    pin_stdout: bool = False


@dataclass(frozen=True)
class Workload:
    """A named input generator and the invocation chain run on its files.

    ``rows`` is the default input size; tests run the same chain smaller.
    """

    name: str
    rows: int
    generate: object  # (seed, work_dir, rows) -> None
    chain: object  # (rows) -> list of Invocation


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _finite_in(value, lo, hi, what):
    _require(isinstance(value, (int, float)) and math.isfinite(value), f"{what} is not finite: {value!r}")
    _require(lo <= value <= hi, f"{what} {value!r} outside [{lo}, {hi}]")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path}: {exc}") from None


def _last_json_line(stdout):
    lines = stdout.strip().splitlines()
    _require(lines, "no output on stdout")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _data_lines(path, header):
    """Number of data rows of a CSV whose first line must equal ``header``."""
    try:
        with open(path, newline="") as fh:
            first = fh.readline().rstrip("\r\n")
            count = sum(1 for _ in fh)
    except OSError as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    _require(first == ",".join(header), f"{path}: header {first!r}")
    return count


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------

def _check_abstain(path, n, budget, metric):
    def check(work, stdout):
        payload = _load_json(os.path.join(work, path))
        indices = payload.get("indices")
        _require(isinstance(indices, list), "abstain JSON has no index list")
        expected = math.floor(budget * n)
        _require(payload.get("abstained") == len(indices) == expected,
                 f"abstained {payload.get('abstained')} / {len(indices)} indices, expected {expected}")
        _require(all(isinstance(i, int) for i in indices), "indices are not integers")
        _require(all(a < b for a, b in zip(indices, indices[1:])), "indices are not unique and sorted")
        _require(not indices or (indices[0] >= 0 and indices[-1] < n), "index out of range")
        _metric_value(payload.get("estimated_metric"), metric, "estimated_metric")
    return check


def _metric_value(value, metric, what):
    if metric == "weighted_kappa":
        _finite_in(value, -math.inf, 1.0, what)
    else:
        _finite_in(value, 0.0, 1.0, what)


def _check_evaluate(n, budget, metric):
    def check(work, stdout):
        payload = _last_json_line(stdout)
        dropped = math.floor(budget * n)
        _require(payload.get("metric") == metric, f"metric {payload.get('metric')!r}")
        _require(payload.get("abstained") == dropped and payload.get("n") == n - dropped,
                 f"evaluate saw n={payload.get('n')} abstained={payload.get('abstained')}")
        _metric_value(payload.get("value"), metric, "evaluated value")
    return check


# ---------------------------------------------------------------------------
# binary_grid, part 1: `experiment` on the figure1 task, Fumera search included
# ---------------------------------------------------------------------------

def _figure1_generate(seed, work, rows):
    spec = {
        "task": "figure1",
        "methods": list(FIGURE1_METHODS),
        "budgets": [FIGURE1_BUDGET],
        "seeds": [seed],
        "metric": {"name": "sens_at_spec", "target_specificity": 0.9},
        "mc_samples": 100,
        "smooth": True,
        "sim": {"n": rows},
    }
    with open(os.path.join(work, "spec.json"), "w") as fh:
        json.dump(spec, fh)


def _figure1_chain(rows):
    def check(work, stdout):
        path = os.path.join(work, "out", "figure1", "results.csv")
        try:
            with open(path, newline="") as fh:
                table = list(csv.DictReader(fh))
        except OSError as exc:
            raise CheckFailed(f"{path}: {exc}") from None
        _require(sorted(r.get("method") or "" for r in table) == sorted(FIGURE1_METHODS), "methods differ")
        cap = math.floor(FIGURE1_BUDGET * rows)
        for row in table:
            try:
                abstained, n = int(row["abstained"]), int(row["n"])
                base, post = float(row["base"]), float(row["post"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckFailed(f"results.csv row {row}: {exc}") from None
            _require(n == rows, f"n={n}")
            if row["method"] == "fumera":
                _require(0 <= abstained <= cap, f"fumera abstained {abstained} > {cap}")
            else:
                _require(abstained == cap, f"{row['method']} abstained {abstained}, expected {cap}")
            _finite_in(base, 0.0, 1.0, "base")
            _finite_in(post, 0.0, 1.0, "post")

    args = ("experiment", "--spec", "spec.json", "--output", "out/figure1")
    return [Invocation("experiment", args, ("out/figure1/results.csv",), check)]


# ---------------------------------------------------------------------------
# binary_grid, part 2: `abstain --method sens_window` then `evaluate` on a binary CSV
# ---------------------------------------------------------------------------

def _abstain_generate(seed, work, rows):
    probs, labels, _ = simulate_binary(BinarySimConfig(n=rows, seed=seed, **BINARY_SIM))
    write_csv(
        os.path.join(work, "data.csv"),
        ["id", "label", "prob"],
        ([i, y, repr(p)] for i, (y, p) in enumerate(zip(labels.tolist(), probs.tolist()))),
    )


def _abstain_chain(rows):
    budget = str(ABSTAIN_BUDGET)
    return [
        Invocation(
            "abstain",
            ("abstain", "--input", "data.csv", "--method", "sens_window", "--budget", budget,
             "--output", "out/abstain.json"),
            ("out/abstain.json",),
            _check_abstain("out/abstain.json", rows, ABSTAIN_BUDGET, "sens_at_spec"),
        ),
        Invocation(
            "evaluate",
            ("evaluate", "--input", "data.csv", "--abstain-file", "out/abstain.json"),
            (),
            _check_evaluate(rows, ABSTAIN_BUDGET, "sens_at_spec"),
            pin_stdout=True,
        ),
    ]


FIGURE1_ROWS = 10_000  # N of the figure1 task; the CSV has the workload's rows


def _binary_generate(seed, work, rows):
    _figure1_generate(seed, work, min(FIGURE1_ROWS, rows))
    _abstain_generate(seed, work, rows)


def _binary_chain(rows):
    return _figure1_chain(min(FIGURE1_ROWS, rows)) + _abstain_chain(rows)


# ---------------------------------------------------------------------------
# multiclass_shift: calibrate -> apply -> adapt (EM) -> kappa abstain -> evaluate
# ---------------------------------------------------------------------------

def _raw_scores(seed, rows):
    cfg = MulticlassSimConfig(seed=seed, n=rows, **MULTICLASS_SIM)
    probs, labels = simulate_multiclass(cfg)
    logits = LOGIT_SCALE * np.log(np.maximum(probs.entries, 1e-300)) + np.asarray(LOGIT_BIAS)
    return logits, labels


def _multiclass_generate(seed, work, rows):
    val_seed, pool_seed, shift_seed = (int(s) for s in np.random.default_rng(seed).integers(0, 2**31, 3))
    header = ["id", "label"] + [f"z_{c}" for c in range(len(LOGIT_BIAS))]
    val_logits, val_labels = _raw_scores(val_seed, rows)
    pool_logits, pool_labels = _raw_scores(pool_seed, rows)
    test_logits, test_labels, _ = resample_with_shift(pool_logits, pool_labels, TEST_PRIORS, rows, seed=shift_seed)
    for name, logits, labels in (("val_scores.csv", val_logits, val_labels),
                                 ("test_scores.csv", test_logits, test_labels)):
        write_csv(
            os.path.join(work, name),
            header,
            ([i, y] + [repr(v) for v in z] for i, (y, z) in enumerate(zip(labels.tolist(), logits.tolist()))),
        )


def _multiclass_chain(rows):
    classes = len(LOGIT_BIAS)
    prob_header = ["id", "label"] + [f"p_{c}" for c in range(classes)]
    train_priors = ",".join(repr(p) for p in MULTICLASS_SIM["priors"])

    def check_calibrator(work, stdout):
        payload = _load_json(os.path.join(work, "out", "calibrator.json"))
        _require(payload.get("kind") == "bias_corrected_temperature", f"kind {payload.get('kind')!r}")
        _finite_in(payload.get("scale"), 1e-6, 1e6, "scale")
        offset = payload.get("offset")
        _require(isinstance(offset, list) and len(offset) == classes, "offset length")
        for value in offset:
            _finite_in(value, -math.inf, math.inf, "offset")

    def check_rows(path):
        def check(work, stdout):
            count = _data_lines(os.path.join(work, path), prob_header)
            _require(count == rows, f"{path}: {count} rows, expected {rows}")
        return check

    def check_adapt(work, stdout):
        check_rows("out/adapted.csv")(work, stdout)
        payload = _last_json_line(stdout)
        _require(payload.get("converged") is True, "EM did not converge")
        _require(isinstance(payload.get("iterations"), int) and payload["iterations"] >= 1, "iterations")
        priors = payload.get("test_priors")
        _require(isinstance(priors, list) and len(priors) == classes, "test_priors length")
        for value in priors:
            _finite_in(value, 0.0, 1.0, "test prior")

    return [
        Invocation(
            "calibrate",
            ("calibrate", "--input", "val_scores.csv", "--kind", "bias_corrected_temperature",
             "--output", "out/calibrator.json"),
            ("out/calibrator.json",),
            check_calibrator,
        ),
        Invocation(
            "apply-calibrator",
            ("apply-calibrator", "--input", "test_scores.csv", "--calibrator", "out/calibrator.json",
             "--output", "out/calibrated.csv"),
            ("out/calibrated.csv",),
            check_rows("out/calibrated.csv"),
        ),
        Invocation(
            "adapt",
            ("adapt", "--input", "out/calibrated.csv", "--train-priors", train_priors,
             "--output", "out/adapted.csv"),
            ("out/adapted.csv",),
            check_adapt,
            pin_stdout=True,
        ),
        Invocation(
            "abstain",
            ("abstain", "--input", "out/adapted.csv", "--method", "kappa_marginal_mc",
             "--metric", "weighted_kappa", "--budget", str(KAPPA_BUDGET),
             "--mc-samples", str(KAPPA_SAMPLES), "--output", "out/abstain.json"),
            ("out/abstain.json",),
            _check_abstain("out/abstain.json", rows, KAPPA_BUDGET, "weighted_kappa"),
        ),
        Invocation(
            "evaluate",
            ("evaluate", "--input", "out/adapted.csv", "--metric", "weighted_kappa",
             "--abstain-file", "out/abstain.json"),
            (),
            _check_evaluate(rows, KAPPA_BUDGET, "weighted_kappa"),
            pin_stdout=True,
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        # One run of CLI commands on binary data: the figure1 grid, where the Fumera search
        # dominates, then abstain + evaluate on a CSV, where the sens-at-spec MC
        # kernel and the CSV reader dominate. No calibration, EM or kappa.
        Workload("binary_grid", 150_000, _binary_generate, _binary_chain),
        # Five imports, raw-score parsing, CSV writes, calibrator fit, EM and kappa MC;
        # no Fumera search and no window scorers.
        Workload("multiclass_shift", 30_000, _multiclass_generate, _multiclass_chain),
    )
}


# ---------------------------------------------------------------------------
# Output digests
# ---------------------------------------------------------------------------

def output_digests(invocation: Invocation, work, stdout) -> dict:
    """sha256 of each pinned output file (and of stdout when pinned)."""
    out = {}
    for rel in invocation.outputs:
        try:
            with open(os.path.join(work, rel), "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            out[rel] = None
    if invocation.pin_stdout:
        out["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return out


def check_invocation(invocation: Invocation, work, stdout, pinned=None) -> dict:
    """Run the invariant check and compare digests with ``pinned`` when given.

    Returns the digests; raises CheckFailed on any violation.
    """
    invocation.check(work, stdout)
    digests = output_digests(invocation, work, stdout)
    if pinned is not None:
        for key, expected in pinned.items():
            _require(digests.get(key) == expected, f"{invocation.name}: digest of {key} differs from the pinned one")
    return digests


def load_pinned(workload: str):
    """Pinned digests of a workload at DEFAULT_SEED, or None if none are recorded."""
    try:
        with open(DIGESTS_PATH) as fh:
            return json.load(fh).get(workload)
    except FileNotFoundError:
        return None
