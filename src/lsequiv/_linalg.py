"""Dense symmetric-matrix helpers.

All spectral decompositions in the package go through this module so that the
singularity policy is uniform: eigenvalues below ``rtol * max|eig|`` raise
instead of being pseudo-inverted.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, SingularMatrixError

# Matrices are materialized densely; keep studies within this edge length.
DENSE_N_MAX = 4096

SYM_RTOL = 1e-12


def check_size(n):
    if not (1 <= n <= DENSE_N_MAX):
        raise PreconditionError(f"dense matrix size {n} outside [1, {DENSE_N_MAX}]")


def check_symmetric(a, tol=1e-10, what="matrix"):
    dev = np.max(np.abs(a - a.T)) if a.size else 0.0
    if dev > tol * max(1.0, np.max(np.abs(a))):
        raise PreconditionError(f"{what} is not symmetric (max deviation {dev:.3e})")
    return a


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix, ascending eigenvalues."""
    return np.linalg.eigh(a)


def guarded_eig(a, require_pd):
    """eigh of a symmetric matrix that raises on a (near-)singular or, with
    require_pd, a non-positive-definite input."""
    w, v = np.linalg.eigh(a)
    scale = np.max(np.abs(w)) if w.size else 0.0
    if scale == 0.0 or np.min(np.abs(w)) <= SYM_RTOL * scale:
        raise SingularMatrixError(
            f"eigenvalue below {SYM_RTOL:g} * spectral norm (min |eig| = "
            f"{np.min(np.abs(w)):.3e}, scale = {scale:.3e})")
    if require_pd and np.min(w) <= 0.0:
        raise SingularMatrixError(
            f"matrix is not positive definite (min eig = {np.min(w):.3e})")
    return w, v


def sym_inv(a, require_pd=False):
    w, v = guarded_eig(a, require_pd=require_pd)
    return (v / w) @ v.T


def sym_sqrt(a):
    w, v = guarded_eig(a, require_pd=True)
    return (v * np.sqrt(w)) @ v.T


def sym_inv_sqrt(a):
    w, v = guarded_eig(a, require_pd=True)
    return (v / np.sqrt(w)) @ v.T


def sym_abs(a):
    """|A| = (A^2)^(1/2) for symmetric A."""
    w, v = np.linalg.eigh(a)
    return (v * np.abs(w)) @ v.T


def spectral_norm(a):
    """2-norm; for symmetric input max |eigenvalue|, else largest singular value."""
    a = np.asarray(a)
    if a.shape[0] == a.shape[1] and np.allclose(a, a.T, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(a)))):
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return float(np.linalg.norm(a, 2))


def frob(a, b=None):
    """Frobenius norm, or Frobenius inner product <a, b> when b is given."""
    if b is None:
        return float(np.linalg.norm(a))
    return float(np.sum(a * b))


def eig_range(a):
    w = np.linalg.eigvalsh(a)
    return float(w[0]), float(w[-1])
