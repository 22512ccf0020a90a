"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: eigenvalues via the
characteristic polynomial, conditioning via the textbook joint-Gaussian
formula, curve minima via grid search, the squeezing recursion via direct
scalar iteration, the variance curves via RK4 and the literal exponential
ratio, and the probe steps via dense operators built from a phase's slice
rates.

The library's states and records hold the atomic block alone: the probe
pair is fresh vacuum at the start of every step and spent at its end.  The
dense path here carries that pair explicitly as the final two variables
of the state (``with_light``), couples it, and then measures it
(``measure_light_x``) or traces it out (``trace_out_light``), which puts
fresh vacuum in its place.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from squeezesim.errors import DegenerateCovarianceError, InvalidInputError
from squeezesim.gaussian_core import GaussianState


class DivergenceError(ArithmeticError):
    """An integration produced a non-finite value.

    Carries the time of failure in ``time``.
    """

    def __init__(self, message, time):
        super().__init__(message)
        self.time = time


def char_poly_min_eig(m: np.ndarray) -> float:
    """Smallest eigenvalue via Faddeev-LeVerrier coefficients + root finding."""
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.eye(n)
    for k in range(1, n + 1):
        mk = a @ mk
        ck = -np.trace(mk) / k
        coeffs[k] = ck
        mk = mk + ck * np.eye(n)
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-8 * (1 + np.abs(roots.real))].real
    return float(np.min(real))


def gaussian_condition_2d(var_theta: float, var_p: float, alpha: float) -> float:
    """Posterior Var(theta) after a perfect measurement of p' = p + alpha*theta.

    Builds the joint covariance of (theta, p') by explicit linear transform
    and applies the Schur-complement conditioning formula.  Evaluated in
    exact rational arithmetic: the naive float subtraction cancels
    catastrophically when the lever arm is large.
    """
    vt, vp, a = Fraction(var_theta), Fraction(var_p), Fraction(alpha)
    t = [[Fraction(1), Fraction(0)], [a, Fraction(1)]]
    cov = [[vt, Fraction(0)], [Fraction(0), vp]]
    tc = [[sum(t[i][k] * cov[k][j] for k in range(2)) for j in range(2)]
          for i in range(2)]
    joint = [[sum(tc[i][k] * t[j][k] for k in range(2)) for j in range(2)]
             for i in range(2)]
    return float(joint[0][0] - joint[0][1] ** 2 / joint[1][1])


def grid_min(f, t_lo: float, t_hi: float, n: int = 20001):
    """(argmin, min) of a scalar function on a dense uniform grid."""
    ts = np.linspace(t_lo, t_hi, n)
    vals = f(ts)
    i = int(np.argmin(vals))
    return float(ts[i]), float(vals[i])


def iterate_noiseless_variance(kappa_sq: float, tau: float, n_steps: int,
                               var0: float = 0.5) -> float:
    """Measurement-conditioned variance by direct scalar recursion.

    Each detected segment adds kappa^2 tau of inverse variance:
    Var -> Var / (1 + 2 kappa^2 tau Var).
    """
    v = var0
    ktau_sq = kappa_sq * tau
    for _ in range(n_steps):
        v = v / (1.0 + 2.0 * ktau_sq * v)
    return v


def integrate_scalar_ode(f, y0: float, t_end: float, dt: float):
    """Fixed-step classical RK4 for dy/dt = f(t, y), sampled at every step.

    The final step is shortened to land exactly on ``t_end``.  Raises
    DivergenceError naming the failure time if the state stops being finite.
    """
    if dt <= 0.0:
        raise InvalidInputError(f"dt must be positive, got {dt}")
    if t_end < 0.0:
        raise InvalidInputError(f"t_end must be nonnegative, got {t_end}")
    n_full = int(np.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    if remainder <= 1e-12 * dt:
        remainder = 0.0
    ts = [0.0]
    ys = [float(y0)]
    y = float(y0)
    for i in range(n_full + (1 if remainder else 0)):
        t = i * dt
        h = dt if i < n_full else remainder
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_next = t + h
        if not np.isfinite(y):
            raise DivergenceError(
                f"integration diverged at t={t_next:.6e}", time=t_next
            )
        ts.append(t_next)
        ys.append(y)
    return np.array(ts), np.array(ys)


def var_p_noisy_direct(t, p):
    """Literal exponential-ratio evaluation of the noisy variance curve.

    The equivalence reference for the tanh form of analytic.var_p_noisy,
    which is numerically stable at small beta * kappa^2 * t where this one
    is not.
    """
    t = np.asarray(t, dtype=float)
    k2 = p.kappa_sq_eff
    r = p.eta / (2.0 * k2)
    h = 0.5 * p.beta
    e = np.exp(-2.0 * p.beta * k2 * t)
    num = (p.var0 + r + h) + e * (p.var0 + r - h)
    den = (p.var0 + r + h) - e * (p.var0 + r - h)
    out = (h * num / den - r) * np.exp(p.eta * t)
    return float(out) if out.ndim == 0 else out


def with_light(state: GaussianState) -> GaussianState:
    """``state`` with a fresh vacuum probe pair appended as the final pair."""
    m = state.dim
    cov = np.eye(m + 2)
    cov[:m, :m] = state.cov
    mean = np.append(state.mean, [0.0, 0.0])
    return GaussianState(mean, cov, state.has_theta)


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
        object.__setattr__(self, "s", s)
        for name, d in diags.items():
            object.__setattr__(self, name, d)

    @property
    def dim(self) -> int:
        return self.s.shape[0]


def apply_step(state: GaussianState, step: StepOperators) -> GaussianState:
    """One propagation step: loss-damped transform plus noise injection."""
    if step.dim != state.dim:
        raise InvalidInputError(
            f"step dimension {step.dim} does not match state dimension {state.dim}"
        )
    ls = step.l[:, None] * step.s
    cov = ls @ state.cov @ ls.T
    noise = step.atom_prefactor * step.m + step.light_prefactor * step.n
    cov.ravel()[:: state.dim + 1] += noise
    # the product leaves round-off asymmetry; (a + a^T) / 2 removes it
    return replace(state, mean=ls @ state.mean, cov=(cov + cov.T) * 0.5)


def measure_light_x(state: GaussianState, chi: float) -> tuple[GaussianState, float]:
    """Condition the state on a polarization-rotation detection.

    The light quadrature x_ph is measured perfectly; the rest of the state
    loses the variance explained by its correlations with x_ph (independent
    of the outcome), means shift proportionally to the deviation chi, and
    the spent segment is replaced by fresh vacuum.  Returns the new state
    and the outcome, the pre-detection mean of x_ph plus chi.
    """
    cov = state.cov.copy()
    mean = state.mean.copy()
    d2 = state.dim - 2
    bxx = float(cov[d2, d2])
    if bxx <= 0.0:
        raise DegenerateCovarianceError(
            f"measured-quadrature variance must be positive, got {bxx}"
        )
    outcome = float(mean[d2]) + chi
    g = cov[:d2, d2]
    cov[:d2, :d2] -= np.outer(g, g) / bxx
    mean[:d2] += g * (chi / bxx)
    conditioned = replace(state, mean=mean, cov=(cov + cov.T) * 0.5)
    return trace_out_light(conditioned), outcome


def trace_out_light(state: GaussianState) -> GaussianState:
    """Discard the spent segment unobserved and load a fresh one."""
    d2 = state.dim - 2
    cov = state.cov.copy()
    cov[d2:, :] = 0.0
    cov[:, d2:] = 0.0
    cov[d2, d2] = cov[d2 + 1, d2 + 1] = 1.0
    mean = state.mean.copy()
    mean[d2:] = 0.0
    return replace(state, mean=mean, cov=cov)


def probe_step_operators(phase, dim: int, k: int) -> list:
    """Dense operators of each group of a probe phase at step index k.

    Couplings and noise floors are their start-of-phase values at
    ``phase.t_start`` times the per-step factors exp(-eta tau / 2) and
    exp(eta tau) raised to k; the light pair is the final two variables.
    The groups take the slices in order, the first slice's x row after
    theta when present.
    """
    tau = phase.tau
    x, p = dim - 2, dim - 1
    ops = []
    start = dim % 2
    for g in phase.groups:
        ax_rows = start + 2 * np.arange(len(g.kappas_sq))
        start += 2 * len(g.kappas_sq)
        eta_tau = g.etas * tau
        kappas = (np.sqrt(g.kappas_sq * tau) * np.exp(-g.etas * phase.t_start / 2.0)
                  * np.exp(-eta_tau / 2.0) ** k)
        floors = 2.0 * eta_tau * np.exp(g.etas * phase.t_start) * np.exp(eta_tau) ** k
        s = np.eye(dim)
        s[ax_rows, p] = kappas
        s[x, ax_rows + 1] = kappas
        loss = np.ones(dim)
        loss[ax_rows] = loss[ax_rows + 1] = np.sqrt(1.0 - eta_tau)
        loss[[x, p]] = np.sqrt(1.0 - g.epsilon)
        m = np.zeros(dim)
        n = np.zeros(dim)
        n[[x, p]] = g.epsilon
        if len(ax_rows) == 1 and eta_tau[0] > 0.0:
            # single slice: the growing noise floor rides on the prefactor
            m[ax_rows] = m[ax_rows + 1] = eta_tau
            atom_prefactor = float(floors[0] / eta_tau[0])
        else:
            m[ax_rows] = m[ax_rows + 1] = floors / 2.0
            atom_prefactor = 2.0
        ops.append(StepOperators(s=s, l=loss, m=m, n=n, atom_prefactor=atom_prefactor,
                                 light_prefactor=1.0 / g.transmission))
    return ops


def rotation_step_operators(phase, dim: int) -> StepOperators:
    """The impulse p_i -> p_i + alpha_i theta as one dense operator.

    theta is variable 0 and slice i's p row is 2 + 2 i.
    """
    s = np.eye(dim)
    s[2 + 2 * np.arange(len(phase.alphas)), 0] = phase.alphas
    return StepOperators(s=s, l=np.ones(dim), m=np.zeros(dim), n=np.zeros(dim))


def uniform_thin_modes(seg, n_samples: int, sample_every: int):
    """(sigma, v, v') at step 0 and after each of n_samples intervals.

    A read block with one loss d, noise q_k, growth and decay on every row
    that starts as the identity stays sigma I + (v - sigma) h^ h^T, h^ the
    unit read-out: every direction across h^ only damps and takes noise,
    sigma -> d^2 sigma + q_k, while the h^ mode takes the Kalman update of
    read-out |h_k| first, v -> v shot / (|h_k|^2 v + shot), then the same
    map.  The x block likewise stays sigma I + (v' - sigma) w^ w^T, with
    v' -> d^2 v' + q_k + |w_k|^2 the back-action mode.  Each recursion
    starts at one (vacuum) and runs from the segment's stored float64
    rates in np.longdouble, step by step.
    """
    ld = np.longdouble
    read, unread = seg.read, seg.unread
    d2 = ld(read.loss[0]) ** 2
    q, g = ld(read.noise0[0]), ld(read.growth[0])
    b2 = ld(read.decay[0]) ** 2
    h2 = np.sum(np.asarray(read.coupling0, dtype=ld) ** 2)
    w2 = np.sum(np.asarray(unread.coupling0, dtype=ld) ** 2)
    shot = ld(seg.shot)
    sigma = v = vx = ld(1.0)
    out = [(sigma, v, vx)]
    for _ in range(n_samples):
        for _ in range(sample_every):
            v = d2 * (v * shot / (h2 * v + shot)) + q
            sigma = d2 * sigma + q
            vx = d2 * vx + q + w2
            q *= g
            h2 *= b2
            w2 *= b2
        out.append((sigma, v, vx))
    return out
