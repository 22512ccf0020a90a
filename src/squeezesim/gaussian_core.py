"""Gaussian states of the atomic block and run records.

State convention: a state over canonical variables y is stored as a mean
vector and a covariance matrix gamma with gamma_ij = 2 Re<dy_i dy_j>, so a
vacuum / coherent-spin state has gamma = identity and physical variances
Var = gamma / 2.  Sampled observables report physical variances.

Variable layout: an optional classical parameter theta is a single
leading variable, then each atomic slice contributes an (x, p) pair, the
slices in the order the beam crosses them.  The layout follows from the
size of the state and whether it has theta, so a state carries no names
for its variables.  The probe segment is not part of the state: it is
renewed after every coarse-grained step (measured segments are
conditioned on, unmeasured ones traced out) and a spent segment never
interacts again, so each step starts from fresh vacuum light.  The
scenario runner folds that segment into a map of the atomic block
(scenarios.BeamSegment), and its records hold the atomic block alone.
The dense operators that carry the light pair explicitly live in the
tests (tests/oracles.py) as the runner's reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, require_finite

#: Standard deviation of the standard draw z (variance 1/2); a detection
#: deviation is chi = sqrt(bxx) * z.
CHI_STD = np.sqrt(0.5)


@dataclass(frozen=True)
class GaussianState:
    """Immutable snapshot of means and covariance: [theta] + (x, p) pairs."""

    mean: np.ndarray
    cov: np.ndarray
    has_theta: bool = False

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        dim = mean.size
        if mean.ndim != 1 or cov.shape != (dim, dim):
            raise InvalidInputError(
                f"mean/cov shapes {mean.shape}/{cov.shape} do not match"
            )
        if (dim - self.has_theta) % 2:
            raise InvalidInputError(
                f"{dim} variables are not {'theta and ' * self.has_theta}"
                "(x, p) pairs"
            )
        require_finite(mean=mean, cov=cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @cached_property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def n_pairs(self) -> int:
        return (self.dim - self.has_theta) // 2


def vacuum_state(n: int, theta: bool = False, theta_var: float = 0.5) -> GaussianState:
    """Minimum-uncertainty state of n slices: zero means, unit covariance.

    With ``theta`` a leading theta variable gets covariance entry
    2 * theta_var, so its physical prior variance is ``theta_var``.
    """
    dim = 2 * n + theta
    cov = np.eye(dim)
    if theta:
        if theta_var <= 0:
            raise InvalidInputError("theta_var must be positive")
        cov[0, 0] = 2.0 * theta_var
    return GaussianState(np.zeros(dim), cov, theta)


@dataclass
class TrajectoryRecord:
    """Per-run log: samples, covariances and the measurement stream.

    ``samples`` holds (t, means) and ``cov_samples`` the covariances (when
    recorded) at each sample point, both over the atomic block; the
    sampled observables are the run's TimeSeries.
    """

    seed: int
    samples: list = field(default_factory=list)
    measurement_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    chis: np.ndarray = field(default_factory=lambda: np.empty(0))
    outcomes: np.ndarray = field(default_factory=lambda: np.empty(0))
    cov_samples: list = field(default_factory=list)


@dataclass
class TimeSeries:
    """Sampled observables over a run; one column per observable name."""

    times: np.ndarray
    columns: dict
