"""Metric-specific abstention for calibrated classifiers.

Given calibrated class-probability predictions and a bounded abstention
budget, this package decides which examples to decline predicting on so as
to maximize sensitivity at a target specificity, area under the ROC curve,
or weighted Cohen's kappa — with probability calibration and label-shift
adaptation built in.

``import abstainkit`` loads no submodule, and so no numpy: each public name
is imported from the submodule that defines it on first use. The
``abstainkit`` CLI runs OpenBLAS with one thread unless
``OPENBLAS_NUM_THREADS`` is set.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it, in the order of __all__.
_EXPORTS = {
    "AbstainkitError": "errors",
    "SortedPredictionSet": "metrics",
    "ProbabilityMatrix": "metrics",
    "PenaltyWeightMatrix": "metrics",
    "SuffixCounts": "metrics",
    "running_counts": "metrics",
    "sensitivity_at_specificity": "metrics",
    "auroc": "metrics",
    "weighted_kappa": "metrics",
    "Calibrator": "calibration",
    "PriorEstimate": "calibration",
    "LabelShiftResult": "calibration",
    "fit_calibrator": "calibration",
    "apply_calibrator": "calibration",
    "adapt_label_shift_em": "calibration",
    "MonteCarloConfig": "scoring",
    "WindowScoreVector": "scoring",
    "MarginalScoreVector": "scoring",
    "score_windows_sens_at_spec": "scoring",
    "score_windows_auroc": "scoring",
    "score_examples_kappa": "scoring",
    "smooth_savitzky_golay": "scoring",
    "baseline_scores": "scoring",
    "fumera_threshold_search": "scoring",
    "select_abstentions": "scoring",
    "BinarySimConfig": "simulate",
    "MulticlassSimConfig": "simulate",
    "simulate_binary": "simulate",
    "simulate_multiclass": "simulate",
    "sample_random_binary_config": "simulate",
    "resample_with_shift": "simulate",
    "rank_correlations": "stats",
    "wilcoxon_signed_rank_one_sided": "stats",
    "compare_methods": "stats",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
