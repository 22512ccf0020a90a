"""Closed-form results for probing-induced squeezing and angle estimation.

These functions are pure and total on their stated domains.  They serve two
purposes: standalone calculators, and independent oracles for the discrete
Gaussian engine (gaussian_core / scenarios), which must reproduce them in
the appropriate limits.

Conventions: variances are physical (coherent state has Var = 1/2); rates
are s^-1; the collective coupling enters through kappa_sq = kappa^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NoMinimumError, require_finite


@dataclass(frozen=True)
class SqueezeCurveParams:
    """Parameters of the conditional-variance curve with decay and absorption.

    var0 is the initial variance of the probed quadrature (1/2 for a
    coherent spin state).  ``beta`` is a derived damping parameter and is
    always recomputed from the rates, never stored.
    """

    kappa_sq: float
    eta: float
    epsilon: float
    var0: float = 0.5

    def __post_init__(self):
        require_finite(kappa_sq=self.kappa_sq, eta=self.eta, epsilon=self.epsilon,
                       var0=self.var0)
        if not (self.kappa_sq > 0 and self.eta >= 0):
            raise InvalidInputError("kappa_sq must be positive and eta nonnegative")
        if not 0.0 <= self.epsilon < 1.0:
            raise InvalidInputError("epsilon must lie in [0, 1)")
        if self.var0 <= 0:
            raise InvalidInputError("var0 must be positive")

    @property
    def kappa_sq_eff(self) -> float:
        """Coupling reduced by the absorbed photon fraction."""
        return self.kappa_sq * (1.0 - self.epsilon)

    @property
    def beta(self) -> float:
        """Damping parameter sqrt(r(r + 2)) with r = eta / kappa_sq_eff."""
        r = self.eta / self.kappa_sq_eff
        return math.sqrt(r * (r + 2.0))


def var_p_noiseless(t, kappa_sq: float, var0: float = 0.5):
    """Conditional variance of the probed quadrature without decay.

    Continuous probing adds information at a constant rate, so the inverse
    variance grows linearly: Var(t) = 1 / (2 kappa^2 t + 1/var0).
    Accepts scalar or array ``t``.
    """
    t = np.asarray(t, dtype=float)
    out = 1.0 / (2.0 * kappa_sq * t + 1.0 / var0)
    return float(out) if out.ndim == 0 else out


def var_p_noisy(t, p: SqueezeCurveParams):
    """Conditional variance with atomic decay and photon absorption.

    Evaluated through the tanh rewrite of the exponential Moebius ratio,
    which has no cancelling differences of large exponentials at small
    times.  The eta = 0 branch reduces exactly to the noiseless curve with
    the absorption-reduced coupling.  Accepts scalar or array ``t``.
    """
    t = np.asarray(t, dtype=float)
    k2 = p.kappa_sq_eff
    if p.eta == 0.0:
        out = 1.0 / (2.0 * k2 * t + 1.0 / p.var0)
        return float(out) if out.ndim == 0 else out
    r = p.eta / (2.0 * k2)
    h = math.sqrt(r * (r + 1.0))  # beta / 2
    g = p.var0 + r
    th = np.tanh(p.beta * k2 * t)
    out = np.exp(p.eta * t) * (h * (g + h * th) / (h + g * th) - r)
    return float(out) if out.ndim == 0 else out


def t_min_exact(p: SqueezeCurveParams) -> float:
    """Time of the conditional-variance minimum, general form."""
    if p.eta <= 0.0:
        raise NoMinimumError("the noiseless variance decreases monotonically")
    k2 = p.kappa_sq_eff
    r = p.eta / (2.0 * k2)
    h = math.sqrt(r * (r + 1.0))
    g = p.var0 + r
    arg = (g - h) / (g + h) * (4.0 * p.beta * k2 / p.eta)
    if arg <= 1.0:
        raise NoMinimumError(
            "variance has no interior minimum for this initial value"
        )
    return math.log(arg) / (2.0 * p.beta * k2)


def t_min_approx(p: SqueezeCurveParams) -> float:
    """Variance-minimum time in the weak-decay regime eta << kappa^2.

    Independent of the initial variance; shrinks with stronger coupling
    and with faster decay.
    """
    if p.eta <= 0.0:
        raise NoMinimumError("the noiseless variance decreases monotonically")
    one_me = 1.0 - p.epsilon
    kappa = math.sqrt(p.kappa_sq)
    pref = 1.0 / (2.0 * math.sqrt(2.0 * p.eta * one_me) * kappa)
    return pref * math.log(4.0 * math.sqrt(2.0 * one_me) * kappa / math.sqrt(p.eta))


def dp_min(p: SqueezeCurveParams) -> float:
    """Standard deviation at the variance minimum in the weak-decay regime.

    sqrt of (1/kappa) * sqrt(eta / (2 (1 - epsilon))); tends to zero with
    vanishing decay (perfect squeezing).
    """
    if p.eta == 0.0:
        return 0.0
    kappa = math.sqrt(p.kappa_sq)
    return math.sqrt(math.sqrt(p.eta / (2.0 * (1.0 - p.epsilon))) / kappa)


# ---------------------------------------------------------------------------
# Collective variables of a sliced ensemble


@dataclass(frozen=True)
class CollectiveVariable:
    """A unit-norm linear combination of atomic canonical variables.

    ``coefficients`` has one entry per atomic variable, ordered
    (x_1, p_1, x_2, p_2, ...).  ``kind`` records how it was built:
    effective_asymmetric (coupling-weighted), symmetric (equal-weight), or
    custom.
    """

    coefficients: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        norm = float(np.linalg.norm(c))
        if abs(norm - 1.0) > 1e-12:
            raise InvalidInputError(f"coefficients must be unit norm, got {norm}")
        object.__setattr__(self, "coefficients", c)


def _momentum_direction(weights: np.ndarray, kind: str) -> CollectiveVariable:
    n = len(weights)
    coeff = np.zeros(2 * n)
    coeff[1::2] = weights
    return CollectiveVariable(coeff, kind=kind)


def _position_direction(weights: np.ndarray, kind: str) -> CollectiveVariable:
    n = len(weights)
    coeff = np.zeros(2 * n)
    coeff[0::2] = weights
    return CollectiveVariable(coeff, kind=kind)


def effective_direction(kappas) -> CollectiveVariable:
    """Coupling-weighted momentum direction actually probed by the light."""
    k = np.asarray(kappas, dtype=float)
    norm = float(np.linalg.norm(k))
    if norm == 0.0:
        raise InvalidInputError("couplings must not all be zero")
    return _momentum_direction(k / norm, "effective_asymmetric")


def symmetric_direction(n: int) -> CollectiveVariable:
    """Equal-weight momentum direction over n slices."""
    if n < 1:
        raise InvalidInputError("need at least one slice")
    return _momentum_direction(np.full(n, 1.0 / math.sqrt(n)), "symmetric")


def collective_decomposition(kappas):
    """Split the symmetric collective mode along the probed direction.

    For per-slice couplings kappa_i, the probed (asymmetric) momentum is
    P_eff = sum_i kappa_i p_i / sqrt(sum kappa_j^2), and the symmetric
    P = sum_i p_i / sqrt(n) decomposes as P = a P_eff + b P_perp with
    a = (sum kappa_j / sqrt(n)) / sqrt(sum kappa_j^2) and a^2 + b^2 = 1.

    Returns (a, P_eff direction, X_eff direction); 0 < a <= 1 with a = 1
    exactly when all couplings are equal.
    """
    k = np.asarray(kappas, dtype=float)
    if k.size == 0 or not np.any(k):
        raise InvalidInputError("couplings must be nonempty and not all zero")
    s2 = float(np.sum(k * k))
    a = float(np.sum(k)) / math.sqrt(len(k)) / math.sqrt(s2)
    w = k / math.sqrt(s2)
    return a, _momentum_direction(w, "effective_asymmetric"), _position_direction(
        w, "effective_asymmetric"
    )


def var_symmetric(var_eff: float, a: float) -> float:
    """Variance of the symmetric collective variable given the probed one.

    The orthogonal complement stays at the coherent value 1/2 (it commutes
    with the probe interaction), so Var(P) = a^2 Var(P_eff) + (1 - a^2)/2.
    """
    return a * a * var_eff + (1.0 - a * a) / 2.0


# ---------------------------------------------------------------------------
# Rotation-angle estimation


@dataclass(frozen=True)
class EstimationParams:
    """Configuration of the squeeze / rotate / probe protocol.

    The sample is squeezed until t1, rotated by the unknown angle during
    [t1, t2] (an impulse; the interval itself has no dynamics), and probed
    afterwards.  alpha / alphas are the rotation lever arms; when both are
    None the scenario builder derives them from the slice atom number.
    theta_true seeds the mean of the angle variable so trajectories track a
    definite rotation.
    """

    t1: float
    t2: float
    alpha: float | None = None
    alphas: tuple | None = None
    var_theta0: float = 0.5
    theta_true: float = 0.0

    def __post_init__(self):
        require_finite(t1=self.t1, t2=self.t2, var_theta0=self.var_theta0,
                       theta_true=self.theta_true)
        if self.alpha is not None:
            require_finite(alpha=self.alpha)
        if self.alphas is not None:
            require_finite(alphas=self.alphas)
        if not 0.0 <= self.t1 <= self.t2:
            raise InvalidInputError("need 0 <= t1 <= t2")
        if self.var_theta0 <= 0:
            raise InvalidInputError("var_theta0 must be positive")
        if self.alpha is not None and self.alpha < 0:
            raise InvalidInputError("alpha must be nonnegative")


def rotation_coupling(n_atoms_slice: float, eta: float, t1: float) -> float:
    """Rotation lever arm per slice, sqrt(N_slice exp(-eta t1) / 2).

    The mean spin available at the end of the squeezing phase sets how
    strongly the unknown angle displaces the slice momentum.
    """
    if n_atoms_slice < 0:
        raise InvalidInputError("n_atoms_slice must be nonnegative")
    return math.sqrt(0.5 * n_atoms_slice * math.exp(-eta * t1))


def rotated_covariance(
    var_theta0: float, var_x_t1: float, var_p_t1: float, alpha: float
) -> np.ndarray:
    """Covariance of (theta, x, p) right after the impulsive rotation.

    The rotation displaces p by alpha * theta, correlating the angle with
    the squeezed quadrature; theta and x are untouched.  Physical-variance
    convention (coherent state diagonal entries are 1/2).
    """
    vt = var_theta0
    return np.array(
        [
            [vt, 0.0, alpha * vt],
            [0.0, var_x_t1, 0.0],
            [alpha * vt, 0.0, var_p_t1 + alpha * alpha * vt],
        ]
    )


def var_theta_curve(t, cov_t2: np.ndarray, kappa_sq: float, t2: float = 0.0):
    """Posterior angle variance during noiseless probing after the rotation.

    ``cov_t2`` is the 3x3 (theta, x, p) covariance at the start of probing
    (physical convention, e.g. from rotated_covariance).  Probing measures
    p ever more sharply, Var(p, t) = 1/(2 kappa^2 (t - t2) + 1/Var(p, t2)),
    and Gaussian conditioning transfers the gain to theta:

        Var(theta, t) = Var(theta0)
            - (Cov(theta, p)^2 / Var(p, t2)) * (1 - Var(p, t)/Var(p, t2))

    Monotonically non-increasing in t; equals Var(theta0) at t = t2.
    Accepts scalar or array ``t``.
    """
    c = np.asarray(cov_t2, dtype=float)
    if c.shape != (3, 3):
        raise InvalidInputError(f"expected a 3x3 covariance, got shape {c.shape}")
    var_theta0 = float(c[0, 0])
    cov_tp = float(c[0, 2])
    var_p = float(c[2, 2])
    if var_p <= 0.0:
        raise InvalidInputError("Var(p) at the start of probing must be positive")
    t = np.asarray(t, dtype=float)
    shrink = 1.0 - 1.0 / (1.0 + 2.0 * var_p * kappa_sq * (t - t2))
    out = var_theta0 - (cov_tp * cov_tp / var_p) * shrink
    return float(out) if out.ndim == 0 else out


def var_theta_limit(var_p_t1: float, alpha: float, var_theta0: float) -> float:
    """Long-time posterior angle variance after squeeze, rotate, probe.

    Var(theta0) * Var(p(t1)) / (Var(p(t1)) + alpha^2 Var(theta0)): the
    probe ultimately resolves p down to its pre-rotation spread, so the
    angle is known to the squeezed quadrature divided by the lever arm.
    """
    if var_p_t1 <= 0 or var_theta0 <= 0 or alpha < 0:
        raise InvalidInputError("variances must be positive and alpha nonnegative")
    return var_theta0 * var_p_t1 / (var_p_t1 + alpha * alpha * var_theta0)


def var_theta_simple(var_p_t1: float, alpha: float) -> float:
    """Large-lever-arm limit Var(p(t1)) / alpha^2 of var_theta_limit."""
    if alpha <= 0:
        raise InvalidInputError("alpha must be positive")
    return var_p_t1 / (alpha * alpha)


def gain(var_p_t1: float) -> float:
    """Angle-variance ratio with/without pre-squeezing, 2 Var(p_squeezed)."""
    if var_p_t1 <= 0:
        raise InvalidInputError("var_p_t1 must be positive")
    return 2.0 * var_p_t1


def var_theta_inhom(var_p_eff: float, kappas, alphas) -> float:
    """Long-time angle variance set by the probed collective variable.

    The probe resolves the coupling-weighted momentum, whose rotation
    lever arm is sum(kappa_j alpha_j) / sqrt(sum kappa_j^2).
    """
    k = np.asarray(kappas, dtype=float)
    a = np.asarray(alphas, dtype=float)
    if k.shape != a.shape:
        raise InvalidInputError("kappas and alphas must have the same length")
    lever = float(np.sum(k * a)) / math.sqrt(float(np.sum(k * k)))
    if lever == 0.0:
        raise InvalidInputError("rotation lever arm vanishes")
    return var_p_eff / (lever * lever)


def var_theta_inhom_symmetric(var_p_sym: float, alphas) -> float:
    """Long-time angle variance predicted from the symmetric variable."""
    a = np.asarray(alphas, dtype=float)
    lever = float(np.sum(a)) / math.sqrt(len(a))
    if lever == 0.0:
        raise InvalidInputError("rotation lever arm vanishes")
    return var_p_sym / (lever * lever)
