"""Dense symmetric-matrix utilities and a fixed-step ODE integrator.

The matrices in this package are at most a few hundred rows (the
covariance of a sliced ensemble plus the probe mode); eigen-solves go to
LAPACK's symmetric eigen-solvers through numpy.  The RK4 integrator exists
mainly as an independent cross-check for the closed-form variance curves.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .errors import DivergenceError, InvalidInputError

# Relative asymmetry accepted on input matrices before we refuse to treat
# them as symmetric.  Library-produced covariances are symmetrized to much
# better than this.
SYMMETRY_RTOL = 1e-8


def check_symmetric(m: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate a square symmetric matrix and return it as a float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale > 0.0 and float(np.max(np.abs(a - a.T))) > rtol * scale:
        raise InvalidInputError("matrix is not symmetric within tolerance")
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a^T)/2, suppressing round-off asymmetry in place."""
    np.add(a, a.T, out=a)
    a *= 0.5
    return a


def sym_eig_all(m: np.ndarray, vectors: bool = True):
    """Full eigendecomposition of a symmetric matrix (LAPACK via numpy).

    Returns (eigenvalues, eigenvector_columns), eigenvalues in ascending
    order; ``vectors=False`` skips the eigenvectors and returns None for
    them.  Only the lower triangle is read, after the symmetry check.
    """
    a = check_symmetric(m)
    if vectors:
        w, v = np.linalg.eigh(a)
        return w, v
    return np.linalg.eigvalsh(a), None


def sym_eig_min(m: np.ndarray) -> Tuple[float, np.ndarray]:
    """Smallest eigenvalue of a symmetric matrix and a unit eigenvector."""
    w, v = sym_eig_all(m)
    i = int(np.argmin(w))
    vec = v[:, i]
    return float(w[i]), vec / np.linalg.norm(vec)


def integrate_scalar_ode(
    f: Callable[[float, float], float],
    y0: float,
    t_end: float,
    dt: float,
) -> Tuple[np.ndarray, np.ndarray]:
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
