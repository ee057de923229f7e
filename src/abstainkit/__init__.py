"""Metric-specific abstention for calibrated classifiers.

Given calibrated class-probability predictions and a bounded abstention
budget, this package decides which examples to decline predicting on so as
to maximize sensitivity at a target specificity, area under the ROC curve,
or weighted Cohen's kappa — with probability calibration and label-shift
adaptation built in.
"""

__version__ = "0.1.0"

from .calibration import (
    Calibrator,
    LabelShiftResult,
    PriorEstimate,
    adapt_label_shift_em,
    apply_calibrator,
    fit_calibrator,
)
from .errors import AbstainkitError
from .metrics import (
    PenaltyWeightMatrix,
    ProbabilityMatrix,
    SortedPredictionSet,
    SuffixCounts,
    auroc,
    running_counts,
    sensitivity_at_specificity,
    weighted_kappa,
)
from .scoring import (
    MarginalScoreVector,
    MonteCarloConfig,
    WindowScoreVector,
    baseline_scores,
    fumera_threshold_search,
    score_examples_kappa,
    score_windows_auroc,
    score_windows_sens_at_spec,
    select_abstentions,
    smooth_savitzky_golay,
)
from .simulate import (
    BinarySimConfig,
    MulticlassSimConfig,
    resample_with_shift,
    sample_random_binary_config,
    simulate_binary,
    simulate_multiclass,
)
from .stats import compare_methods, rank_correlations, wilcoxon_signed_rank_one_sided

__all__ = [
    "__version__",
    "AbstainkitError",
    "SortedPredictionSet",
    "ProbabilityMatrix",
    "PenaltyWeightMatrix",
    "SuffixCounts",
    "running_counts",
    "sensitivity_at_specificity",
    "auroc",
    "weighted_kappa",
    "Calibrator",
    "PriorEstimate",
    "LabelShiftResult",
    "fit_calibrator",
    "apply_calibrator",
    "adapt_label_shift_em",
    "MonteCarloConfig",
    "WindowScoreVector",
    "MarginalScoreVector",
    "score_windows_sens_at_spec",
    "score_windows_auroc",
    "score_examples_kappa",
    "smooth_savitzky_golay",
    "baseline_scores",
    "fumera_threshold_search",
    "select_abstentions",
    "BinarySimConfig",
    "MulticlassSimConfig",
    "simulate_binary",
    "simulate_multiclass",
    "sample_random_binary_config",
    "resample_with_shift",
    "rank_correlations",
    "wilcoxon_signed_rank_one_sided",
    "compare_methods",
]
