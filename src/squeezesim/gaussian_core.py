"""Gaussian states of the atomic block, run records and the rotation impulse.

State convention: a state over canonical variables y is stored as a mean
vector and a covariance matrix gamma with gamma_ij = 2 Re<dy_i dy_j>, so a
vacuum / coherent-spin state has gamma = identity and physical variances
Var = gamma / 2.  Sampled observables report physical variances.

Variable layout: an optional classical parameter "theta" is a single
leading variable, and each atomic slice contributes an (x, p) pair.  The
probe segment is not part of the state: it is renewed after every
coarse-grained step (measured segments are conditioned on, unmeasured
ones traced out) and a spent segment never interacts again, so each step
starts from fresh vacuum light.  The scenario runner folds that segment
into a map of the atomic block (scenarios.BeamSegment), and its records
hold the atomic block alone.  The dense operators that carry the light
pair explicitly live in the tests (tests/oracles.py) as the runner's
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, require_finite

#: Standard deviation of the standard draw z (variance 1/2); a detection
#: deviation is chi = sqrt(bxx) * z.
CHI_STD = np.sqrt(0.5)

THETA = "theta"


def standard_labels(n_slices: int, theta: bool = False) -> tuple[str, ...]:
    """Mode labels for n atomic slices, optionally led by theta."""
    head = (THETA,) if theta else ()
    return head + tuple(f"atom:{i + 1}" for i in range(n_slices))


def _label_width(label: str) -> int:
    return 1 if label == THETA else 2


@dataclass(frozen=True)
class GaussianState:
    """Immutable snapshot of means and covariance over labeled modes."""

    labels: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if not self.labels:
            raise InvalidInputError("labels must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInputError("labels must be unique")
        if THETA in self.labels and self.labels[0] != THETA:
            raise InvalidInputError("theta must be the leading variable")
        dim = sum(_label_width(lb) for lb in self.labels)
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (dim,) or cov.shape != (dim, dim):
            raise InvalidInputError(
                f"mean/cov shapes {mean.shape}/{cov.shape} do not match "
                f"{dim} variables"
            )
        require_finite(mean=mean, cov=cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @cached_property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def has_theta(self) -> bool:
        return self.labels[0] == THETA

    @cached_property
    def n_pairs(self) -> int:
        return sum(1 for lb in self.labels if lb != THETA)


def vacuum_state(
    mode_labels: Sequence[str], theta_var: float = 0.5
) -> GaussianState:
    """Minimum-uncertainty state: zero means, unit covariance diagonal.

    A leading "theta" variable gets covariance entry 2 * theta_var so its
    physical prior variance is ``theta_var``.
    """
    labels = tuple(mode_labels)
    dim = sum(_label_width(lb) for lb in labels)
    cov = np.eye(dim)
    if labels and labels[0] == THETA:
        if theta_var <= 0:
            raise InvalidInputError("theta_var must be positive")
        cov[0, 0] = 2.0 * theta_var
    return GaussianState(labels, np.zeros(dim), cov)


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


def _impulse_inplace(cov, mean, targets, coeffs, source):
    """Shear rows ``targets`` by coeffs * row ``source`` (and columns).

    With u the coefficients on the target rows, S = 1 + u e_source^T maps
    cov to S cov S^T = cov + (u c^T + c u^T) + cov[source, source] u u^T,
    c the source column.  Each term is symmetric entry by entry, so a
    symmetric cov stays exactly symmetric.
    """
    u = np.zeros(cov.shape[0])
    u[targets] = coeffs
    cross = np.outer(u, cov[:, source])
    cov += (cross + cross.T) + cov[source, source] * np.outer(u, u)
    mean += u * mean[source]
