"""Exception types shared across the package.

Every failure mode that callers are expected to handle has a named class;
pipelines should catch :class:`AbstainkitError` at the boundary and let
anything else propagate as a bug.
"""


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
    """Expected class mass left after abstention is numerically zero."""


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
