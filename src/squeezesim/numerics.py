"""Symmetric-matrix checks and the eigen-solve of the sampled observables.

The matrices in this package are the atomic covariance blocks of a sliced
ensemble, at most a few hundred rows; eigen-solves go to LAPACK's
symmetric eigen-solvers through numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

# Relative asymmetry accepted on input matrices before we refuse to treat
# them as symmetric.  The runner's covariances are exactly symmetric.
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
