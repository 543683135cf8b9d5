"""Symmetric-matrix helpers, dense and banded.

All spectral decompositions in the package go through this module so that the
singularity policy is uniform: eigenvalues below ``rtol * max|eig|`` raise
instead of being pseudo-inverted.  Banded symmetric matrices are held in
LAPACK lower band storage, ``ab[j, i] = A[i + j, i]`` for ``j = 0..width``;
they are factored by banded Cholesky (``cholesky_banded``), whose failure is
the positive-definiteness check, and their extreme eigenvalues and
eigenpairs come from ``eig_banded``.

A symmetric wrapped band of half-width w has A[i, l] = 0 unless the cyclic
distance min(|i - l|, n - |i - l|) is at most w, with 2w < n; the cyclic
dictionary sums and the whitening matrix W are of this kind.  It is held as
its wrapped diagonals, ``wd[j, i] = A[(i + j) mod n, i]`` for ``j = 0..w``.
Reordering the indices as 0, n-1, 1, n-2, ... turns it into a plain band of
half-width 2w with the same spectrum and Frobenius norm (``wrapped_band``),
so ``band_extremes`` applies; ``wrapped_matmul`` multiplies it from its
wrapped diagonals without forming the reordered matrix.  An n x n array is
formed from either storage only by ``band_to_dense`` and ``wrapped_to_dense``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eig_banded

from .errors import PreconditionError, SingularMatrixError

# Largest edge of an n x n array formed from band storage (band_to_dense,
# wrapped_to_dense) or built dense (theta, the cyclic dictionary elements).
DENSE_N_MAX = 4096

SYM_RTOL = 1e-12


def check_size(n):
    if not (1 <= n <= DENSE_N_MAX):
        raise PreconditionError(f"dense matrix size {n} outside [1, {DENSE_N_MAX}]")


def check_symmetric(a, tol=1e-10, what="matrix"):
    """max |A - A^T|; raises unless it is finite and <= tol max(1, max |A|).

    A NaN or infinite entry makes the deviation NaN or infinite, so it
    raises too, with no numpy warning (inf - inf is NaN).  One n x n
    temporary.
    """
    if not a.size:
        return 0.0
    with np.errstate(invalid="ignore"):
        dev = a - a.T
    np.abs(dev, out=dev)
    dev = float(dev.max())
    if not (np.isfinite(dev) and dev <= tol * max(1.0, float(a.max()), -float(a.min()))):
        raise PreconditionError(f"{what} is not symmetric (max deviation {dev:.3e})")
    return dev


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix, ascending eigenvalues."""
    return np.linalg.eigh(a)


def _guard_spectrum(w, require_pd):
    scale = np.max(np.abs(w)) if w.size else 0.0
    if scale == 0.0 or np.min(np.abs(w)) <= SYM_RTOL * scale:
        raise SingularMatrixError(
            f"eigenvalue below {SYM_RTOL:g} * spectral norm (min |eig| = "
            f"{np.min(np.abs(w)):.3e}, scale = {scale:.3e})")
    if require_pd and np.min(w) <= 0.0:
        raise SingularMatrixError(
            f"matrix is not positive definite (min eig = {np.min(w):.3e})")


def guarded_eig(a, require_pd):
    """eigh of a symmetric matrix that raises on a (near-)singular or, with
    require_pd, a non-positive-definite input."""
    w, v = np.linalg.eigh(a)
    _guard_spectrum(w, require_pd)
    return w, v


def guarded_band_eig(ab, require_pd):
    """guarded_eig for a symmetric matrix in lower band storage."""
    w, v = eig_banded(ab, lower=True)
    _guard_spectrum(w, require_pd)
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
    """(|A|, |A|_2) for symmetric A: |A| = (A^2)^(1/2) and the spectral
    norm max |eig|, both from one eigh.  |A| is formed as U U^T with
    U = V |w|^(1/2), in place of the eigenvectors."""
    w, v = np.linalg.eigh(a)
    abs_w = np.abs(w)
    v *= np.sqrt(abs_w)
    return v @ v.T, float(np.max(abs_w))


def spectral_norm(a):
    """2-norm; for symmetric input max |eigenvalue|, else largest singular value.

    Symmetric means max |A - A^T| <= 1e-12 max(1, max |A|).
    """
    a = np.asarray(a)
    if a.shape[0] == a.shape[1]:
        dev = a - a.T
        np.abs(dev, out=dev)
        if np.max(dev) <= 1e-12 * max(1.0, float(a.max()), -float(a.min())):
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


def band_to_dense(ab):
    """Dense symmetric matrix from lower band storage."""
    n = ab.shape[1]
    check_size(n)
    out = np.zeros((n, n))
    i = np.arange(n)
    for j in range(ab.shape[0]):
        out[i[j:], i[: n - j]] = ab[j, : n - j]
        out[i[: n - j], i[j:]] = ab[j, : n - j]
    return out


def dense_to_band(a, width, what="matrix"):
    """Lower band storage of a dense symmetric matrix of half-width width.

    Reads the lower triangle, as eigh does; a nonzero entry outside the band
    raises.  The check counts nonzeros, so it allocates no n x n temporary.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    in_band = sum(np.count_nonzero(np.diagonal(a, j)) for j in range(-width, width + 1))
    if np.count_nonzero(a) > in_band:
        raise PreconditionError(f"{what} has entries outside half-width {width}")
    ab = np.zeros((width + 1, n))
    for j in range(min(width + 1, n)):
        ab[j, : n - j] = np.diagonal(a, -j)
    return ab


def band_extremes(ab):
    """(min eig, max eig) of a symmetric matrix in lower band storage."""
    n = ab.shape[1]
    lo, hi = (
        eig_banded(ab, lower=True, eigvals_only=True, select="i", select_range=(k, k))[0]
        for k in (0, n - 1)
    )
    return float(lo), float(hi)


def band_cholesky(ab, error=SingularMatrixError, what="matrix"):
    """Lower banded Cholesky factor of an SPD matrix in lower band storage.

    A failed factorization is the positive-definiteness check: it raises
    error, with min eig computed for the message only.
    """
    try:
        return cholesky_banded(ab, lower=True)
    except np.linalg.LinAlgError:
        lo, _ = band_extremes(ab)
        raise error(f"{what} is not positive definite (min eig = {lo:.3e})") from None


def band_cho_inv(factor):
    """A^{-1}, symmetric to rounding, from the band_cholesky factor of A;
    solved in place of a column-major identity."""
    eye = np.eye(factor.shape[1], order="F")
    return cho_solve_banded((factor, True), eye, overwrite_b=True)


def band_matmul(ab, x):
    """A @ x for a symmetric A in lower band storage and a dense x."""
    n = ab.shape[1]
    out = ab[0][:, None] * x
    for j in range(1, ab.shape[0]):
        strip = ab[j, : n - j][:, None]
        out[j:] += strip * x[: n - j]
        out[: n - j] += strip * x[j:]
    return out


def wrapped_to_dense(wd):
    """Dense symmetric matrix from its wrapped diagonals (2w < n)."""
    w, n = wd.shape[0] - 1, wd.shape[1]
    check_size(n)
    out = np.zeros((n, n))
    i = np.arange(n)
    for j in range(w + 1):
        out[(i + j) % n, i] = wd[j]
        out[i, (i + j) % n] = wd[j]
    return out


def wrapped_band(wd):
    """Lower band storage of P A P^T for the symmetric wrapped band A held as
    wrapped diagonals wd, where P reorders the indices as 0, n-1, 1, n-2, ...

    The reordered matrix is a plain band of half-width 2w (< n) with the
    spectrum and Frobenius norm of A.
    """
    w, n = wd.shape[0] - 1, wd.shape[1]
    # the diagonals j and n - j of A must be distinct
    if 2 * w >= n:
        raise PreconditionError(f"wrapped half-width {w} needs n > {2 * w}")
    # position of index i in the order 0, n-1, 1, n-2, ...
    i = np.arange(n)
    pos = np.where(i < (n + 1) // 2, 2 * i, 2 * (n - 1 - i) + 1)
    ab = np.zeros((2 * w + 1, n))
    ab[0, pos] = wd[0]
    for j in range(1, w + 1):
        q = pos[(i + j) % n]
        ab[np.abs(pos - q), np.minimum(pos, q)] = wd[j]
    return ab


def wrapped_matmul(wd, x):
    """A @ x for the symmetric wrapped band A held as wrapped diagonals wd
    and a dense x."""
    n = wd.shape[1]
    out = wd[0][:, None] * x
    for j in range(1, wd.shape[0]):
        # A[i + j, i] for i < n - j, then A[i + j - n, i] = A[i, i + j - n]
        inner, corner = wd[j, : n - j][:, None], wd[j, n - j :][:, None]
        out[j:] += inner * x[: n - j]
        out[: n - j] += inner * x[j:]
        out[n - j :] += corner * x[:j]
        out[:j] += corner * x[n - j :]
    return out


def band_width(a):
    """Largest j with a nonzero entry on the j-th subdiagonal of a dense matrix."""
    nonzero = (j for j in range(a.shape[0] - 1, 0, -1) if np.count_nonzero(np.diagonal(a, -j)))
    return next(nonzero, 0)
