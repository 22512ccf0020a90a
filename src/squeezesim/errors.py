"""Exception types shared across the package, and the finiteness check."""

import math

import numpy as np


class SqueezesimError(Exception):
    """Base class for all library errors."""


class InvalidInputError(SqueezesimError, ValueError):
    """An argument violates a documented precondition (shape, norm, sign...)."""


def require_finite(**values):
    """Raise InvalidInputError naming the first value that is not finite.

    Sign and range tests let NaN through (every comparison with NaN is
    false), so boundaries call this before them.  Python and numpy scalars
    take math.isfinite, which raises OverflowError for an integer beyond
    the float range as numpy's conversion does; anything else goes through
    numpy as an array.
    """
    for name, value in values.items():
        if isinstance(value, (int, float, np.integer, np.floating)):
            finite = math.isfinite(value)
        else:
            finite = np.all(np.isfinite(np.asarray(value, dtype=float)))
        if not finite:
            raise InvalidInputError(f"{name} must be finite, got {value!r}")


class DegenerateCovarianceError(SqueezesimError):
    """A covariance entry that must be positive is zero or negative."""


class OpticallyThickError(SqueezesimError):
    """Single-pass photon absorption is not small; use the sliced thick-gas
    scenario instead of the single-segment rates."""


class NoMinimumError(SqueezesimError):
    """The variance curve has no interior minimum for these parameters."""


class ConfigError(SqueezesimError):
    """A run configuration is inconsistent or outside the validity range."""
