"""Exception types shared across the package.

Every failure mode that callers are expected to handle has a named class;
pipelines should catch :class:`AbstainkitError` at the boundary and let
anything else propagate as a bug. The two value rules every config type
applies to its own fields, :func:`check_counts` and :func:`check_numbers`,
live here beside :class:`InvalidConfig`.
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
    """Calibration labels contain a single class and cannot be fit."""


class DimensionMismatch(AbstainkitError, ValueError):
    """Input shape is incompatible with the fitted calibrator, or priors with the class count."""


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


class MissingVariance(AbstainkitError, ValueError):
    """The external-variance baseline needs a variance vector."""


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
