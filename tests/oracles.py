"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: eigenvalues via the
characteristic polynomial, conditioning via the textbook joint-Gaussian
formula, curve minima via grid search, the squeezing recursion via direct
scalar iteration, and the probe steps via dense operators that carry the
light pair, built from a phase's slice rates.
"""

from fractions import Fraction

import numpy as np

from squeezesim.gaussian_core import StepOperators


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


def probe_step_operators(phase, dim: int, k: int) -> list:
    """Dense operators of each group of a probe phase at step index k.

    Couplings and noise floors are their start-of-phase values at
    ``phase.t_start`` times the per-step factors exp(-eta tau / 2) and
    exp(eta tau) raised to k; the light pair is the final two variables.
    """
    tau = phase.tau
    x, p = dim - 2, dim - 1
    ops = []
    for g in phase.groups:
        eta_tau = g.etas * tau
        kappas = (np.sqrt(g.kappas_sq * tau) * np.exp(-g.etas * phase.t_start / 2.0)
                  * np.exp(-eta_tau / 2.0) ** k)
        floors = 2.0 * eta_tau * np.exp(g.etas * phase.t_start) * np.exp(eta_tau) ** k
        s = np.eye(dim)
        s[g.ax_rows, p] = kappas
        s[x, g.ax_rows + 1] = kappas
        loss = np.ones(dim)
        loss[g.ax_rows] = loss[g.ax_rows + 1] = np.sqrt(1.0 - eta_tau)
        loss[[x, p]] = np.sqrt(1.0 - g.epsilon)
        m = np.zeros(dim)
        n = np.zeros(dim)
        n[[x, p]] = g.epsilon
        if len(g.ax_rows) == 1 and eta_tau[0] > 0.0:
            # single slice: the growing noise floor rides on the prefactor
            m[g.ax_rows] = m[g.ax_rows + 1] = eta_tau
            atom_prefactor = float(floors[0] / eta_tau[0])
        else:
            m[g.ax_rows] = m[g.ax_rows + 1] = floors / 2.0
            atom_prefactor = 2.0
        ops.append(StepOperators(s=s, l=loss, m=m, n=n, atom_prefactor=atom_prefactor,
                                 light_prefactor=1.0 / g.transmission, tau=tau))
    return ops


def rotation_step_operators(phase, dim: int) -> StepOperators:
    """The impulse p_i -> p_i + alpha_i theta as one dense operator."""
    s = np.eye(dim)
    s[phase.targets, 0] = phase.alphas
    return StepOperators(s=s, l=np.ones(dim), m=np.zeros(dim), n=np.zeros(dim),
                         tau=phase.duration)
