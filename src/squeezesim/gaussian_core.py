"""Gaussian-state engine: propagation, noise, and measurement conditioning.

State convention: a state over canonical variables y is stored as a mean
vector and a covariance matrix gamma with gamma_ij = 2 Re<dy_i dy_j>, so a
vacuum / coherent-spin state has gamma = identity and physical variances
Var = gamma / 2.  API boundaries (variance_of, squeezing_minimum, ...)
report physical variances.

Variable layout: modes are listed as labels; an atomic slice contributes an
(x, p) pair, the probe light contributes the final (x_ph, p_ph) pair, and
an optional classical parameter "theta" is a single leading variable.  The
probe segment is renewed after every coarse-grained step: measured segments
are conditioned on and reset, unmeasured segments are traced out.  Either
way a fresh vacuum segment is in place for the next step, which is exact
because spent segments never interact again.

The dense operations here (StepOperators, apply_step, measure_light_x)
carry the light pair explicitly; the tests build them from a scenario's
slice rates as the reference for the scenario runner.  The runner never
stores the light pair and splits the atomic block into the rows the probe
reads (theta and the p rows) and the x rows it does not; the two agree to
round-off (1e-12 relative in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .analytic import CollectiveVariable
from .errors import DegenerateCovarianceError, InvalidInputError
from .numerics import sym_eig_min, symmetrize

#: Standard deviation of the standard draw z (variance 1/2); a detection
#: deviation is chi = sqrt(bxx) * z.
CHI_STD = np.sqrt(0.5)

THETA = "theta"
LIGHT = "light"


def atom_labels(n: int) -> tuple[str, ...]:
    return tuple(f"atom:{i + 1}" for i in range(n))


def standard_labels(n_slices: int, theta: bool = False) -> tuple[str, ...]:
    """Mode labels for n atomic slices plus the probe, optionally with theta."""
    head = (THETA,) if theta else ()
    return head + atom_labels(n_slices) + (LIGHT,)


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
        if LIGHT in self.labels and self.labels[-1] != LIGHT:
            raise InvalidInputError("the light pair must be the final variables")
        dim = sum(_label_width(lb) for lb in self.labels)
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (dim,) or cov.shape != (dim, dim):
            raise InvalidInputError(
                f"mean/cov shapes {mean.shape}/{cov.shape} do not match "
                f"{dim} variables"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @cached_property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def has_theta(self) -> bool:
        return self.labels[0] == THETA

    @property
    def has_light(self) -> bool:
        return self.labels[-1] == LIGHT

    @cached_property
    def n_pairs(self) -> int:
        return sum(1 for lb in self.labels if lb not in (THETA, LIGHT))

    @cached_property
    def atom_slice(self) -> slice:
        start = 1 if self.has_theta else 0
        return slice(start, start + 2 * self.n_pairs)

    def atomic_cov(self) -> np.ndarray:
        """Covariance block of the atomic variables (gamma convention)."""
        return self.cov[self.atom_slice, self.atom_slice].copy()

    def variance(self, index: int) -> float:
        """Physical variance of variable ``index``."""
        return float(self.cov[index, index]) / 2.0


def vacuum_state(
    mode_labels: Sequence[str], theta_var: float = 0.5
) -> GaussianState:
    """Minimum-uncertainty state: zero means, unit covariance diagonal.

    A leading "theta" variable gets covariance entry 2 * theta_var so its
    physical prior variance is ``theta_var``.
    """
    labels = tuple(mode_labels)
    if not labels:
        raise InvalidInputError("labels must be nonempty")
    dim = sum(_label_width(lb) for lb in labels)
    cov = np.eye(dim)
    if labels[0] == THETA:
        if theta_var <= 0:
            raise InvalidInputError("theta_var must be positive")
        cov[0, 0] = 2.0 * theta_var
    return GaussianState(labels, np.zeros(dim), cov)


@dataclass(frozen=True)
class StepOperators:
    """One coarse-grained propagation step.

    s is the dense linear transform of the variables; l, m, n are the
    diagonals of the loss and noise matrices.  The covariance update is

        cov -> L S cov S^T L + atom_prefactor * M + light_prefactor * N

    and means transform with L S.  atom_prefactor carries the growth of the
    atomic noise floor as the mean spin decays (2 at full polarization);
    light_prefactor carries the photon-noise floor (1 for a fresh beam,
    larger inside an absorbing stack).
    """

    s: np.ndarray
    l: np.ndarray
    m: np.ndarray
    n: np.ndarray
    atom_prefactor: float = 2.0
    light_prefactor: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        dim = s.shape[0]
        if s.shape != (dim, dim):
            raise InvalidInputError("s must be square")
        diags = {}
        for name in ("l", "m", "n"):
            d = np.asarray(getattr(self, name), dtype=float)
            if d.shape != (dim,):
                raise InvalidInputError(f"{name} diagonal must have length {dim}")
            diags[name] = d
        if np.any(diags["l"] <= 0.0) or np.any(diags["l"] > 1.0):
            raise InvalidInputError("loss diagonal entries must lie in (0, 1]")
        for name in ("m", "n"):
            if np.any(diags[name] < 0.0) or np.any(diags[name] >= 1.0):
                raise InvalidInputError(
                    f"{name} diagonal entries must lie in [0, 1)"
                )
        if self.atom_prefactor < 2.0:
            raise InvalidInputError("atom_prefactor must be >= 2")
        if self.light_prefactor < 1.0:
            raise InvalidInputError("light_prefactor must be >= 1")
        if self.tau < 0.0:
            raise InvalidInputError("tau must be nonnegative")
        object.__setattr__(self, "s", s)
        for name, d in diags.items():
            object.__setattr__(self, name, d)

    @property
    def dim(self) -> int:
        return self.s.shape[0]

    def noise_diagonal(self) -> np.ndarray:
        return self.atom_prefactor * self.m + self.light_prefactor * self.n

    def loss_times_s(self) -> np.ndarray:
        return self.l[:, None] * self.s


@dataclass
class TrajectoryRecord:
    """Per-run log: sampled means/variances plus the measurement stream."""

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

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


# ---------------------------------------------------------------------------
# In-place kernels.  These mutate (cov, mean) directly.  Measurement and
# trace-out serve the dense reference path; the scenario runner, which never
# stores the light pair, uses only the impulse.


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


def _measure_inplace(cov, mean, chi):
    """Condition on a detection of x_ph, then load a fresh vacuum segment.

    Returns (pre_mean, outcome).  The covariance update is outcome
    independent; only the means move with chi.
    """
    dim = cov.shape[0]
    x = dim - 2
    d2 = dim - 2
    bxx = float(cov[x, x])
    if bxx <= 0.0:
        raise DegenerateCovarianceError(
            f"measured-quadrature variance must be positive, got {bxx}"
        )
    pre_mean = float(mean[x])
    g = cov[:d2, x]
    cov[:d2, :d2] -= np.outer(g, g) / bxx
    mean[:d2] += g * (chi / bxx)
    cov[d2:, :] = 0.0
    cov[:, d2:] = 0.0
    cov[x, x] = 1.0
    cov[dim - 1, dim - 1] = 1.0
    mean[d2:] = 0.0
    return pre_mean, pre_mean + chi


def _traceout_inplace(cov, mean):
    """Discard the spent segment unobserved and load a fresh one."""
    dim = cov.shape[0]
    d2 = dim - 2
    cov[d2:, :] = 0.0
    cov[:, d2:] = 0.0
    cov[d2, d2] = 1.0
    cov[dim - 1, dim - 1] = 1.0
    mean[d2:] = 0.0


# ---------------------------------------------------------------------------
# Public operations


def _require_light_last(state: GaussianState):
    if not state.has_light:
        raise InvalidInputError("state has no light pair to measure")


def apply_step(state: GaussianState, step: StepOperators) -> GaussianState:
    """One propagation step: loss-damped transform plus noise injection."""
    if step.dim != state.dim:
        raise InvalidInputError(
            f"step dimension {step.dim} does not match state dimension {state.dim}"
        )
    ls = step.loss_times_s()
    cov = ls @ state.cov @ ls.T
    cov.ravel()[:: state.dim + 1] += step.noise_diagonal()
    symmetrize(cov)
    mean = ls @ state.mean
    return GaussianState(state.labels, mean, cov)


def measure_light_x(state: GaussianState, chi: float) -> tuple[GaussianState, float]:
    """Condition the state on a polarization-rotation detection.

    The light quadrature x_ph is measured perfectly; the atomic block loses
    the variance explained by its correlations with x_ph (independent of
    the outcome), means shift proportionally to the deviation chi, and the
    spent segment is replaced by fresh vacuum.  Returns the new state and
    the outcome, the pre-detection mean of x_ph plus chi.
    """
    _require_light_last(state)
    cov = state.cov.copy()
    mean = state.mean.copy()
    _, outcome = _measure_inplace(cov, mean, chi)
    symmetrize(cov)
    return GaussianState(state.labels, mean, cov), outcome


def variance_of(state: GaussianState, v: CollectiveVariable) -> float:
    """Physical variance of a collective atomic variable."""
    c = v.coefficients
    n_vars = 2 * state.n_pairs
    if c.shape != (n_vars,):
        raise InvalidInputError(
            f"collective variable has {c.shape[0]} coefficients, "
            f"state has {n_vars} atomic variables"
        )
    block = state.cov[state.atom_slice, state.atom_slice]
    return float(c @ block @ c) / 2.0


def squeezing_minimum(state: GaussianState) -> tuple[float, CollectiveVariable]:
    """Smallest physical variance over all collective atomic directions.

    Diagonalizes the atomic covariance block; returns the variance
    (smallest eigenvalue over two) and the corresponding unit direction.
    """
    if state.n_pairs < 1:
        raise InvalidInputError("state has no atomic pairs")
    val, vec = sym_eig_min(state.atomic_cov())
    return val / 2.0, CollectiveVariable(vec, kind="eigen")
