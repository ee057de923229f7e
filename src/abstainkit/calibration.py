"""Probability calibration and label-shift adaptation.

Calibrators map raw scores or logits to calibrated probabilities:

- ``platt``: sigmoid(scale * score + offset) for a binary score
- ``temperature``: softmax(logits * scale) with scale = 1/T
- ``bias_corrected_temperature``: softmax((logits + offset) * scale) with a
  per-class additive offset fit jointly with the temperature

Fits minimize the negative log-likelihood with a deterministic start
(scale=1, offset=0) refined by bounded quasi-Newton steps; the ``temperature``
kind also starts from the best scale on a fixed log-spaced grid, so a bad
start cannot leave the fit in a poor local basin (``bias_corrected_temperature``
starts only from scale=1, offset=0). Identical inputs always give identical fits.

Label-shift adaptation reweights calibrated test-set posteriors by iterating
expectation/maximization over the unknown test priors.
"""

from __future__ import annotations

# scipy.optimize is imported inside `_fit`, its one caller: its import takes 0.2-0.3 s (`-X importtime`, 2 vCPUs),
# and only the calibrator fits need it.

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLabels,
    DidNotConverge,
    DimensionMismatch,
    InvalidConfig,
    NonpositiveTrainPrior,
    TooFewExamples,
    as_array,
    check_counts,
    check_labels,
    check_numbers,
)
from .metrics import ProbabilityMatrix

__all__ = [
    "Calibrator",
    "PriorEstimate",
    "LabelShiftResult",
    "fit_calibrator",
    "apply_calibrator",
    "adapt_label_shift_em",
]

CALIBRATOR_KINDS = ("platt", "temperature", "bias_corrected_temperature")

_GRAD_TOL = 1e-5
_MAX_ITER = 500


@dataclass(frozen=True)
class PriorEstimate:
    """Per-class prior probabilities (training, target or EM-estimated).

    The one check that priors are a distribution: a vector of at least one
    nonnegative entry summing to 1 within 1e-9, else InvalidConfig.
    """

    priors: np.ndarray

    def __post_init__(self):
        priors = as_array(self.priors, "priors")
        if priors.ndim != 1:
            raise InvalidConfig("priors must be a vector")
        if not (priors.size and priors.min() >= 0 and abs(priors.sum() - 1.0) <= 1e-9):  # NaN fails too
            raise InvalidConfig("priors must be nonnegative and sum to 1 within 1e-9")
        object.__setattr__(self, "priors", priors)

    @classmethod
    def from_labels(cls, labels, class_count: int) -> "PriorEstimate":
        counts = np.bincount(check_labels(labels, class_count), minlength=class_count)
        return cls(counts / max(counts.sum(), 1))  # no labels: all-zero priors, which the check rejects


@dataclass(frozen=True)
class Calibrator:
    """Fitted calibration parameters; immutable and safe to share."""

    kind: str
    scale: float
    offset: np.ndarray

    def __post_init__(self):
        if self.kind not in CALIBRATOR_KINDS:
            raise InvalidConfig(f"unknown calibrator kind {self.kind!r}")
        check_numbers(scale=self.scale, offset=self.offset)
        object.__setattr__(self, "scale", float(self.scale))  # a list passes the number rule but is no scalar
        if self.kind != "platt" and self.scale <= 0:
            raise InvalidConfig("temperature kinds require scale > 0")
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float).reshape(-1))
        if self.kind == "platt" and self.offset.size != 1:  # the wrong shape, so the wrong type
            raise TypeError(f"a platt calibrator takes one offset, got {self.offset.size}")

    @property
    def temperature(self) -> float:
        """T such that logits are divided by T (temperature kinds only)."""
        if self.kind == "platt":
            raise InvalidConfig("platt calibrators have no temperature")
        return 1.0 / self.scale

    def to_dict(self) -> dict:
        return {"kind": self.kind, "scale": self.scale, "offset": self.offset.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "Calibrator":
        return cls(**payload)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    return expz / expz.sum(axis=1, keepdims=True)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)); where exp overflows to inf the result is exactly 0.0, so no warning is raised."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _platt_nll(params, scores, labels):
    a, b = params
    z = a * scores + b
    nll = float(np.mean(np.logaddexp(0.0, z) - labels * z))
    resid = _sigmoid(z) - labels
    return nll, np.array([np.mean(resid * scores), np.mean(resid)])


def _row_sums(cols):
    """The row sums of the N x C matrix whose class-major copy is ``cols``,
    bit-equal to its ``sum(axis=1)``.

    Below 8 classes numpy adds each row left to right onto 0.0, so the class
    rows are added in order; from 8 it sums in 8 pairwise lanes, which only
    the row-major layout reproduces.
    """
    if cols.shape[0] >= 8:
        return np.ascontiguousarray(cols.T).sum(axis=1)
    total = np.zeros(cols.shape[1])
    for row in cols:
        total += row
    return total


def _class_means(cols):
    """The class means of the N x C matrix whose class-major copy is ``cols``,
    bit-equal to its ``mean(axis=0)``: numpy adds the rows in order onto 0.0,
    as a running sum does (``+ 0.0`` turns an all-``-0.0`` class into 0.0)."""
    return (np.cumsum(cols, axis=1)[:, -1] + 0.0) / cols.shape[1]


def _temp_nll(cols, labels, scale, offset):
    """NLL of softmax((logits + offset) * scale) and its gradient; ``cols`` is
    the C x N class-major copy of the logits.

    One C x N buffer becomes in turn z, z minus its row maxima, their exp and
    the softmax minus the label indicator: each step is elementwise, so the
    values are those of fresh arrays, and a fit holds fewer N x C arrays at
    once.
    """
    z = cols + offset[:, None]
    z *= scale
    z -= z.max(axis=0)
    rows = np.arange(labels.size)
    picked = z[labels, rows]
    np.exp(z, out=z)
    norm = _row_sums(z)
    nll = float(np.mean(np.log(norm) - picked))
    z /= norm
    z[labels, rows] -= 1.0
    moved = cols + offset[:, None]
    moved *= z
    grad_scale = float(np.mean(_row_sums(moved)))
    grad_offset = scale * _class_means(z)
    return nll, grad_scale, grad_offset


def _fit(objective, starts, bounds, what):
    """The parameters L-BFGS-B reaches from the start with the lowest final NLL.

    A fit that stops without success and with a gradient norm above the
    tolerance is DidNotConverge, named by ``what``.
    """
    from scipy.optimize import minimize

    best = None
    for start in starts:
        res = minimize(objective, x0=np.asarray(start, dtype=float), jac=True, method="L-BFGS-B",
                       bounds=bounds, options={"maxiter": _MAX_ITER})
        if best is None or res.fun < best.fun:
            best = res
    if not best.success and np.linalg.norm(best.jac) > _GRAD_TOL:
        raise DidNotConverge(f"{what} fit stopped with gradient norm {np.linalg.norm(best.jac):.2e}")
    return best.x


def _raw_scores(kind: str, raw_scores) -> np.ndarray:
    """The one raw-score rule: an N-vector for ``platt``, an N x C logit matrix
    for the temperature kinds (else DimensionMismatch), every value finite
    (else InvalidConfig)."""
    scores = as_array(raw_scores, "raw_scores")
    if scores.ndim != (1 if kind == "platt" else 2):
        raise DimensionMismatch("platt expects a 1-D score vector, temperature kinds an N x C logit matrix")
    if not np.isfinite(scores).all():
        raise InvalidConfig("raw scores must be finite")
    return scores


def fit_calibrator(kind: str, raw_scores, labels) -> Calibrator:
    """Fit calibration parameters by maximum likelihood.

    ``raw_scores`` follow :func:`_raw_scores`; ``labels`` are class indices
    (:func:`~abstainkit.errors.check_labels`).
    """
    if kind not in CALIBRATOR_KINDS:
        raise InvalidConfig(f"unknown calibrator kind {kind!r}")
    scores = _raw_scores(kind, raw_scores)
    n_classes = 2 if kind == "platt" else scores.shape[1]
    labels = check_labels(labels, n_classes, scores.shape[0])
    if labels.size < 10:
        raise TooFewExamples("need at least 10 examples to fit a calibrator")
    if np.unique(labels).size < max(n_classes, 2):
        raise DegenerateLabels("labels must hold every class, and at least two")

    if kind == "platt":
        y = labels.astype(float)
        x = _fit(lambda p: _platt_nll(p, scores, y), [[1.0, 0.0]], None, "platt")
        return Calibrator(kind="platt", scale=float(x[0]), offset=[float(x[1])])

    cols = np.ascontiguousarray(scores.T)  # class-major: every NLL pass reads whole class rows
    if kind == "temperature":
        zeros = np.zeros(n_classes)

        def objective(params):
            nll, grad_scale, _ = _temp_nll(cols, labels, params[0], zeros)
            return nll, np.array([grad_scale])

        grid = np.logspace(-3.0, 3.0, 61)
        starts = [[1.0], [float(grid[np.argmin([objective([s])[0] for s in grid])])]]
        x = _fit(objective, starts, [(1e-6, 1e6)], "temperature")
        return Calibrator(kind="temperature", scale=float(x[0]), offset=zeros)

    def objective(params):
        nll, grad_scale, grad_offset = _temp_nll(cols, labels, params[0], params[1:])
        return nll, np.concatenate([[grad_scale], grad_offset])

    x0 = np.concatenate([[1.0], np.zeros(n_classes)])
    x = _fit(objective, [x0], [(1e-6, 1e6)] + [(None, None)] * n_classes, "bias-corrected")
    return Calibrator(kind="bias_corrected_temperature", scale=float(x[0]), offset=x[1:])


def apply_calibrator(cal: Calibrator, raw_scores):
    """Map raw scores through a fitted calibrator.

    ``raw_scores`` follow :func:`_raw_scores`, as for the fit. Returns a
    probability vector for ``platt`` and a
    :class:`~abstainkit.metrics.ProbabilityMatrix` for the temperature kinds.
    """
    scores = _raw_scores(cal.kind, raw_scores)
    if cal.kind == "platt":
        return _sigmoid(cal.scale * scores + cal.offset[0])
    if scores.shape[1] != cal.offset.size:
        raise DimensionMismatch(f"expected an N x {cal.offset.size} logit matrix, got shape {scores.shape}")
    return ProbabilityMatrix(_softmax((scores + cal.offset) * cal.scale))


@dataclass(frozen=True)
class LabelShiftResult:
    adapted_probs: ProbabilityMatrix
    test_priors: PriorEstimate
    iterations: int
    converged: bool


def adapt_label_shift_em(
    test_probs: ProbabilityMatrix,
    train_priors: PriorEstimate,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> LabelShiftResult:
    """Adapt calibrated posteriors to an unknown shift in class priors.

    Alternates reweighting each row by the current prior ratio (E-step) with
    re-estimating the priors as the mean reweighted row (M-step) until the
    max-abs prior change drops below ``tol``. Hitting ``max_iter`` is not an
    error; the result is returned with ``converged=False``. ``tol`` must be
    finite and above 0 and ``max_iter`` an integer of at least 0, else
    InvalidConfig.
    """
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise InvalidConfig(f"tol must be finite and > 0, got {tol}")
    check_counts(max_iter=(max_iter, 0))
    train = train_priors.priors
    if np.any(train <= 0):
        raise NonpositiveTrainPrior("train priors must be strictly positive")
    probs = test_probs.entries
    if probs.shape[1] != train.size:
        raise DimensionMismatch("test_probs and train_priors disagree on class count")
    if probs.shape[0] == 0:
        raise InvalidConfig("need at least one row to adapt")

    cols = np.ascontiguousarray(probs.T)  # class-major: every pass reads whole class rows
    priors = train.copy()
    adapted = cols
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        weighted = cols * (priors / train)[:, None]
        row_sums = _row_sums(weighted)
        # kept: no legal input is known to empty a row, and no proof rules one out
        if np.any(row_sums <= 0):
            raise InvalidConfig("a row lost all probability mass during adaptation")
        adapted = weighted / row_sums
        new_priors = _class_means(adapted)
        delta = float(np.abs(new_priors - priors).max())
        priors = new_priors
        if delta < tol:
            converged = True
            break
    return LabelShiftResult(
        adapted_probs=ProbabilityMatrix(np.ascontiguousarray(adapted.T)),
        test_priors=PriorEstimate(priors / priors.sum()),
        iterations=iterations,
        converged=converged,
    )
