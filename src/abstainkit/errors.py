"""Exception types shared across the package.

Every failure mode that callers are expected to handle has a named class,
and the package's own checks raise no plain ``ValueError``: a bad value is
:class:`InvalidConfig` and a bad shape or alignment :class:`DimensionMismatch`
unless a narrower class names it. Pipelines should catch
:class:`AbstainkitError` at the boundary and let anything else propagate as a
bug. The input rules live here beside :class:`InvalidConfig`, each written
once: :func:`check_counts` and :func:`check_numbers` for config fields,
:func:`check_labels` for class-index vectors and :func:`check_specificity` for
a target specificity.
"""

import numbers
import sys

import numpy as np


class AbstainkitError(Exception):
    """Base class for all errors raised by this package."""


class NoPositives(AbstainkitError, ValueError):
    """A binary metric was requested but no positive examples are present."""


class NoNegatives(AbstainkitError, ValueError):
    """A binary metric was requested but no negative examples are present."""


class InvalidSpecificity(AbstainkitError, ValueError):
    """Target specificity must lie strictly between 0 and 1."""


class DegenerateDenominator(AbstainkitError, ValueError):
    """The chance-agreement denominator of kappa vanished; kappa is undefined."""


class DidNotConverge(AbstainkitError, RuntimeError):
    """An iterative fit hit its iteration cap with a large gradient norm."""


class DegenerateLabels(AbstainkitError, ValueError):
    """Calibration labels miss a class, or hold only one, and cannot be fit."""


class TooFewExamples(AbstainkitError, ValueError):
    """A calibrator fit was given fewer than 10 labelled examples."""


class DimensionMismatch(AbstainkitError, ValueError):
    """An input has the wrong shape or does not align with another input it is paired with."""


class NonpositiveTrainPrior(AbstainkitError, ValueError):
    """Label-shift adaptation requires strictly positive training priors."""


class BudgetTooLarge(AbstainkitError, ValueError):
    """An abstention budget outside its valid range."""


class BudgetMismatch(AbstainkitError, ValueError):
    """Budget count disagrees with the score vector it is applied to."""


class DegenerateExpectedCounts(AbstainkitError, ValueError):
    """Class mass left after abstention is ~0: expected, or in every Monte-Carlo sample of some window."""


class WindowTooLarge(AbstainkitError, ValueError):
    """Smoothing window exceeds the length of the input vector."""


class EvenWindow(AbstainkitError, ValueError):
    """Smoothing window length must be odd."""


class MissingPriors(AbstainkitError, ValueError):
    """The requested baseline needs class priors but none were given."""


class InvalidConfig(AbstainkitError, ValueError):
    """A configuration violates its parameter constraints."""


def check_counts(**counts) -> None:
    """Each ``name=(value, minimum)`` must be an integer of at least ``minimum``, else InvalidConfig.

    An int or numpy integer counts; a bool, a float (even a whole one) or a
    string does not.
    """
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v, _ in counts.values()):
        got = ", ".join(f"{name}={v!r}" for name, (v, _) in counts.items())
        raise InvalidConfig(f"{' and '.join(counts)} must be integers, got {got}")
    for name, (value, minimum) in counts.items():
        if value < minimum:
            raise InvalidConfig(f"{name} must be >= {minimum}, got {value}")


def check_numbers(**values) -> None:
    """Each value must be a finite real number, or a list, tuple or array of them.

    A bool, a string or None where a number belongs is a TypeError (a JSON
    reader reports it as a SchemaError naming the file); NaN, +-inf or an
    integer beyond the float range is InvalidConfig.
    """
    for name, value in values.items():
        many = isinstance(value, (list, tuple, np.ndarray))
        cells = value if many else [value]
        if any(isinstance(c, bool) or not isinstance(c, numbers.Real) for c in cells):
            raise TypeError(f"{name} must be {'numbers' if many else 'a number'}, got {value!r}")
        if not all(abs(c) <= sys.float_info.max for c in cells):  # NaN fails too
            raise InvalidConfig(f"{name} must be finite, got {value!r}")


def check_labels(labels, class_count: int, rows: int | None = None) -> np.ndarray:
    """Class indices as an int64 vector: each value a whole number in [0, class_count).

    A non-vector, or one whose length is not ``rows`` where that is given, is
    DimensionMismatch; NaN, a fraction or a value out of range is
    InvalidConfig. A bool counts as the class it equals.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionMismatch(f"labels must be a vector, got shape {labels.shape}")
    if rows is not None and labels.size != rows:
        raise DimensionMismatch(f"{labels.size} labels do not align with {rows} rows")
    if not np.isin(labels, np.arange(class_count)).all():
        raise InvalidConfig(f"labels must be whole numbers in [0, {class_count})")
    return labels.astype(np.int64, copy=False)


def check_specificity(target_specificity) -> None:
    """A target specificity must lie strictly between 0 and 1 (None and NaN fail), else InvalidSpecificity."""
    if target_specificity is None or not 0.0 < target_specificity < 1.0:
        raise InvalidSpecificity(f"target specificity must be in (0, 1), got {target_specificity}")


class EmptyClass(AbstainkitError, ValueError):
    """Resampling asked for a class with no source examples."""


class ZeroVariance(AbstainkitError, ValueError):
    """Correlation is undefined for a constant input vector."""


class TooFewPairs(AbstainkitError, ValueError):
    """The signed-rank test needs at least 5 nonzero paired differences."""


class InputNotFound(AbstainkitError, FileNotFoundError):
    """An experiment input file does not exist."""


class SchemaError(AbstainkitError, ValueError):
    """An input file does not match the expected column schema."""
