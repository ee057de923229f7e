"""Small experiment specs whose `results.csv` and manifest `spec` digests are pinned.

Usage, from the root of a checkout: PYTHONPATH=src python3 tests/pin_digests.py

Runs every spec of SPECS in a scratch directory and writes the sha256 of each
`results.csv` and of each manifest's `spec` object, with the numpy version,
to `results_digests.json` beside this file; `test_results_digests.py` checks
them. `results.csv` is promised to be byte-identical across reruns and across
performance changes, so re-pin only for a change that is meant to alter it,
and list each moved digest with the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from abstainkit.experiments import ExperimentSpec, run_experiment
from abstainkit.files import write_predictions
from abstainkit.simulate import MulticlassSimConfig, simulate_multiclass

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results_digests.json")
KAPPA_INPUT = "kappa4.csv"

# Paths are relative to the run directory, so the manifest `spec` is the same wherever it runs.
SPECS = {
    "figure1": {
        "task": "figure1",
        "methods": [
            "sens_window", "auroc_window_det", "auroc_window_mc", "js_divergence",
            "max_class_prob", "entropy", {"name": "fumera", "params": {"grid": 21}},
        ],
        "budgets": [0.1, 0.3],
        "seeds": [0, 1],
        "metric": {"name": "sens_at_spec", "target_specificity": 0.9},
        "mc_samples": 8,
        "sim": {"n": 2000},
        "output": "figure1",
    },
    "custom": {
        "task": "custom",
        "methods": ["kappa_marginal_det", "kappa_marginal_mc"],
        "budgets": [0.1, 0.3],
        "seeds": [0, 1],
        "metric": {"name": "weighted_kappa"},
        "mc_samples": 8,
        "input": KAPPA_INPUT,
        "output": "custom",
    },
    # the resampled test set is always 10,000 rows, whatever `n`
    "label_shift": {
        "task": "label_shift",
        "methods": ["sens_window", "js_divergence", "max_class_prob"],
        "budgets": [0.1, 0.3],
        "seeds": [0, 1],
        "metric": {"name": "sens_at_spec", "target_specificity": 0.9},
        "mc_samples": 8,
        "sim": {"n": 2000},
        "output": "label_shift",
    },
    "kappa_convergence": {
        "task": "kappa_convergence",
        "seeds": [0, 1],
        "sim": {"n": 200},
        "output": "kappa_convergence",
    },
    "auroc_correlation": {
        "task": "auroc_correlation",
        "seeds": [0, 1, 2],
        "mc_samples": 8,
        "sim": {"abstain_count": 50},
        "output": "auroc_correlation",
    },
}


def _write_kappa_input(path) -> None:
    """A labelled 4-class prediction file: 2000 rows of a fixed simulated mixture."""
    cfg = MulticlassSimConfig(
        priors=(0.4, 0.3, 0.2, 0.1), means=(-8.0, -3.0, 3.0, 4.0), sigmas=(4.0, 3.0, 3.0, 2.0), n=2000, seed=7
    )
    probs, labels = simulate_multiclass(cfg)
    write_predictions(path, probs.entries, labels)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(work_dir) -> dict:
    """Run every spec inside ``work_dir``; the digests of its outputs, by spec name."""
    previous = os.getcwd()
    os.chdir(work_dir)
    try:
        _write_kappa_input(KAPPA_INPUT)
        out = {}
        for name, payload in SPECS.items():
            paths = run_experiment(ExperimentSpec.from_dict(payload))
            with open(paths["results"], "rb") as fh:
                results = fh.read()
            with open(paths["manifest"]) as fh:
                spec = json.load(fh)["spec"]
            out[name] = {
                "results.csv": _sha256(results),
                "spec": _sha256(json.dumps(spec, sort_keys=True).encode()),
            }
        return out
    finally:
        os.chdir(previous)


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        pinned = {"numpy": np.__version__, "specs": digests(work)}
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
