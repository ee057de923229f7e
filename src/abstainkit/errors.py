"""Exception types shared across the package.

Every failure mode that callers are expected to handle has a named class,
and the package's own checks raise no plain ``ValueError``: a bad value is
:class:`InvalidConfig` and a bad shape or alignment :class:`DimensionMismatch`
unless a narrower class names it. Pipelines should catch
:class:`AbstainkitError` at the boundary and let anything else propagate as a
bug. The input rules live here beside :class:`InvalidConfig`, each written
once: :func:`as_array` for converting an array argument,
:func:`check_counts` and :func:`check_numbers` for config fields,
:func:`check_labels` for class-index vectors, :func:`check_probabilities` for
probability vectors and matrices, :func:`check_specificity` for a target
specificity and :func:`check_budget` for an abstention budget fraction.
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
    string does not. A ``minimum`` of None tests the type alone, for a count
    whose range has a narrower error class.
    """
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v, _ in counts.values()):
        got = ", ".join(f"{name}={v!r}" for name, (v, _) in counts.items())
        raise InvalidConfig(f"{' and '.join(counts)} must be integers, got {got}")
    for name, (value, minimum) in counts.items():
        if minimum is not None and value < minimum:
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


_SHAPES = {1: "a vector", 2: "a matrix"}


def as_array(value, name: str, ndim: int | None = None, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype`` (None keeps the one numpy infers).

    Ragged nesting, or a number of dimensions other than ``ndim`` where that
    is given, is DimensionMismatch naming ``name``. An ndarray of that dtype
    passes through uncopied.
    """
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's inhomogeneous-shape error
        raise DimensionMismatch(f"{name} must be {_SHAPES.get(ndim, 'an array')}, got ragged nesting") from None
    if ndim is not None and array.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {_SHAPES[ndim]}, got shape {array.shape}")
    return array if dtype is None else array.astype(dtype, copy=False)


def check_labels(labels, class_count: int, rows: int | None = None) -> np.ndarray:
    """Class indices as an int64 vector: each value a whole number in [0, class_count).

    A non-vector (:func:`as_array`), or one whose length is not ``rows`` where
    that is given, is DimensionMismatch; NaN, a fraction or a value out of
    range is InvalidConfig. A bool counts as the class it equals.
    """
    labels = as_array(labels, "labels", 1, dtype=None)
    if rows is not None and labels.size != rows:
        raise DimensionMismatch(f"{labels.size} labels do not align with {rows} rows")
    if not np.isin(labels, np.arange(class_count)).all():
        raise InvalidConfig(f"labels must be whole numbers in [0, {class_count})")
    return labels.astype(np.int64, copy=False)


def check_probabilities(values) -> None:
    """A probability vector, or an N x C matrix whose rows also sum to 1 within 1e-9, else InvalidConfig.

    Every value must lie in [0, 1] (NaN fails). Valid input costs a min, a
    max and the row sums; only a failure searches for the first bad row,
    which the message names, counted from 1.
    """
    values = as_array(values, "probabilities")
    matrix = values.ndim == 2
    if not values.size or (values.min() >= 0.0 and values.max() <= 1.0  # NaN fails too
                           and not (matrix and np.abs(values.sum(axis=1) - 1.0).max() > 1e-9)):
        return
    table = values.reshape(values.shape[0], -1)
    with np.errstate(invalid="ignore"):  # a row holding inf and -inf sums to NaN; it is outside anyway
        sums = table.sum(axis=1)
    outside = ~((table >= 0.0) & (table <= 1.0)).all(axis=1)
    row = int(np.flatnonzero(outside | (matrix & (np.abs(sums - 1.0) > 1e-9)))[0])
    if outside[row]:
        raise InvalidConfig(f"row {row + 1}: probabilities must be finite and lie in [0, 1], got {table[row].tolist()}")
    raise InvalidConfig(f"row {row + 1}: probabilities sum to {float(sums[row])}; a row must sum to 1 within 1e-9")


def check_specificity(target_specificity) -> None:
    """A target specificity must lie strictly between 0 and 1 (None and NaN fail), else InvalidSpecificity."""
    if target_specificity is None or not 0.0 < target_specificity < 1.0:
        raise InvalidSpecificity(f"target specificity must be in (0, 1), got {target_specificity}")


def check_budget(fraction) -> None:
    """An abstention budget fraction must lie in [0, 1) (NaN fails), else BudgetTooLarge."""
    if not 0.0 <= fraction < 1.0:
        raise BudgetTooLarge(f"abstention budget must lie in [0, 1), got {fraction}")


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
