"""Exception types shared across the package, and the finiteness check."""

import numpy as np


class SqueezesimError(Exception):
    """Base class for all library errors."""


class InvalidInputError(SqueezesimError, ValueError):
    """An argument violates a documented precondition (shape, norm, sign...)."""


def require_finite(**values):
    """Raise InvalidInputError naming the first value that is not finite.

    Sign and range tests let NaN through (every comparison with NaN is
    false), so boundaries call this before them.
    """
    for name, value in values.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise InvalidInputError(f"{name} must be finite, got {value!r}")


class DegenerateCovarianceError(SqueezesimError):
    """A covariance entry that must be positive is zero or negative."""


class DivergenceError(SqueezesimError):
    """An integration produced a non-finite value.

    Carries the time of failure in ``time``.
    """

    def __init__(self, message, time):
        super().__init__(message)
        self.time = time


class OpticallyThickError(SqueezesimError):
    """Single-pass photon absorption is not small; use the sliced thick-gas
    scenario instead of the single-segment rates."""


class NoMinimumError(SqueezesimError):
    """The variance curve has no interior minimum for these parameters."""


class ConfigError(SqueezesimError):
    """A run configuration is inconsistent or outside the validity range."""
