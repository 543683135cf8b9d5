"""Symmetric-matrix helpers, dense and banded.

All spectral decompositions in the package go through this module so that the
singularity policy is uniform: eigenvalues below ``rtol * max|eig|`` raise
instead of being pseudo-inverted.  Banded symmetric matrices are held in
LAPACK lower band storage, ``ab[j, i] = A[i + j, i]`` for ``j = 0..width``;
they are factored by banded Cholesky (``cholesky_banded``), whose failure is
the positive-definiteness check, and their extreme eigenvalues come from
``eig_banded``.  A function x**power (-1 <= power < 0) of an SPD band is a
Chebyshev polynomial in it, held as a band of certified half-width
(``band_function``); a band too ill-conditioned for that half-width to stay
below 4 sqrt(n) is given the exact function, dense.

A symmetric wrapped band of half-width w has A[i, l] = 0 unless the cyclic
distance min(|i - l|, n - |i - l|) is at most w, with 2w < n; the cyclic
dictionary sums and the whitening matrix W are of this kind.  It is held as
its wrapped diagonals, ``wd[j, i] = A[(i + j) mod n, i]`` for ``j = 0..w``.
Reordering the indices as 0, n-1, 1, n-2, ... turns it into a plain band of
half-width 2w with the same spectrum and Frobenius norm (``wrapped_band``),
so ``band_extremes`` applies.  An n x n array is formed from band storage
only by ``band_to_dense`` and ``signed_to_dense``, the latter for a band that
fills (2w >= n).

Products of bands (not symmetric in general) use signed storage,
``g[w + s, i] = A[(i + s) mod n, i]`` for ``s = -w..w`` (``signed_band``).  A
plain band is zero where i + s leaves [0, n), so one layout serves plain and
wrapped bands, and rows s >= 0 of a symmetric result are its lower band
storage.  Rows s and s - n add up to one cyclic diagonal (``signed_to_dense``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eig_banded

from .errors import PreconditionError, SingularMatrixError

# Largest edge of an n x n array: formed from band storage (band_to_dense),
# built dense (quadrature theta, vartheta, cyclic elements) or exact in band_function.
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
    # written as not(>) so that a NaN or infinite eigenvalue is rejected too
    if not (scale > 0.0 and np.min(np.abs(w)) > SYM_RTOL * scale):
        raise SingularMatrixError(
            f"eigenvalue below {SYM_RTOL:g} * spectral norm (min |eig| = "
            f"{np.min(np.abs(w)):.3e}, scale = {scale:.3e})")
    if require_pd and not np.min(w) > 0.0:
        raise SingularMatrixError(
            f"matrix is not positive definite (min eig = {np.min(w):.3e})")


def guarded_eig(a, require_pd):
    """eigh of a symmetric matrix that raises on a (near-)singular or, with
    require_pd, a non-positive-definite input."""
    w, v = np.linalg.eigh(a)
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


def frob(a):
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def eig_range(a):
    w = np.linalg.eigvalsh(a)
    return float(w[0]), float(w[-1])


def band_to_dense(ab):
    """Dense symmetric matrix from lower band storage or from wrapped
    diagonals (2w < n)."""
    return signed_to_dense(signed_band(ab))


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
    # wrapped diagonal j holds A[(i + j) mod n, i], at the reordered positions q and pos
    q = pos[(i + np.arange(w + 1)[:, None]) % n]
    ab[np.abs(pos - q), np.minimum(pos, q)] = wd
    return ab


def signed_band(ab):
    """Signed storage of the symmetric matrix held in lower band storage or as
    wrapped diagonals ab."""
    w, n = len(ab) - 1, ab.shape[1]
    # A[i - j, i] = A[i, i - j], held at column i - j of row j
    j = np.arange(w, 0, -1)[:, None]
    return np.concatenate([ab[j, (np.arange(n) - j) % n], ab])


def _accumulate(out, g, scale):
    """out += scale * g for signed storage g no wider than out."""
    wo, wg = out.shape[0] // 2, g.shape[0] // 2
    out[wo - wg : wo + wg + 1] += scale * g


def band_transpose(g):
    """A^T in signed storage."""
    w, n = len(g) // 2, g.shape[1]
    # A^T[i + s, i] = A[i, i + s], held at column i + s of row -s
    s = np.arange(-w, w + 1)[:, None]
    return g[w - s, (np.arange(n) + s) % n]


def signed_to_dense(g):
    """Dense matrix from signed storage: A[(i + s) mod n, i] = g[w + s, i],
    rows s and s - n added."""
    w, n = len(g) // 2, g.shape[1]
    check_size(n)
    out = np.zeros((n, n))
    flat = out.reshape(-1)
    for s in range(-w, w + 1):
        # with r = s mod n, entry (i + r, i) is at flat index r n + i (n + 1)
        # for i < n - r, and (i + r - n, i) at n - r + (i + r - n)(n + 1) after
        r = s % n
        flat[r * n :: n + 1] += g[w + s, : n - r]
        flat[n - r : r * n : n + 1] += g[w + s, n - r :]
    return out


def dense_signed(a):
    """Signed storage of half-width n - 1 of a dense n x n matrix, as a plain
    band: zero where i + s leaves [0, n)."""
    n = len(a)
    g = np.zeros((2 * n - 1, n))
    for s in range(1 - n, n):
        g[n - 1 + s, max(0, -s) : n - max(0, s)] = np.diagonal(a, -s)
    return g


def band_product(a, b):
    """A @ B in signed storage of half-width wa + wb, one pass over the
    diagonals of the narrower operand, (2 wa + 1)(2 wb + 1) n work.  When
    wa + wb >= n no band is left to keep: the product is one dense matmul,
    returned as a plain band of half-width n - 1."""
    wa, wb, n = a.shape[0] // 2, b.shape[0] // 2, a.shape[1]
    if wa + wb >= n:
        return dense_signed(signed_to_dense(a) @ signed_to_dense(b))
    if wa < wb:
        return band_transpose(band_product(band_transpose(b), band_transpose(a)))
    out = np.zeros((2 * (wa + wb) + 1, n))
    term = np.empty_like(a)
    for t in range(-wb, wb + 1):
        # (A B)[i + u + t, i] gains A[i + u + t, i + t] B[i + t, i], i + t mod n
        k = t % n
        np.multiply(a[:, k:], b[wb + t, : n - k], out=term[:, : n - k])
        np.multiply(a[:, :k], b[wb + t, n - k :], out=term[:, n - k :])
        out[wb + t : wb + t + 2 * wa + 1] += term
    return out


def signed_frob(g, h):
    """|G - H|_F for matrices in signed storage, the difference formed entry
    by entry.  Rows that name one cyclic diagonal (2w >= n) are summed first;
    that is the only case that forms an n x n array."""
    # the wider copied, the narrower subtracted: +-(G - H)
    g, h = (g, h) if len(g) >= len(h) else (h, g)
    g = g.copy()
    _accumulate(g, h, -1.0)
    if len(g) > g.shape[1]:
        g = signed_to_dense(g)
    return frob(g)


# the Chebyshev interpolant of A**power is asked to be within this of it,
# relative to |A**power|_2
CHEB_TOL = 1e-15


def band_function(ab, power, extremes=None, error=SingularMatrixError, what="matrix"):
    """(A**power, degree, bound) for an SPD A in lower band storage and
    -1 <= power < 0, with extremes = (min eig, max eig) of A taken from
    band_extremes when not given.  A**power is lower band storage of
    half-width degree k2 < 4 sqrt(n), or of n - 1 with degree 0 when exact.

    With spec(A) in [lo, hi], kappa = hi / lo and rho = (sqrt(kappa) + 1) /
    (sqrt(kappa) - 1), the Chebyshev coefficients of x**power (a Stieltjes
    integral of resolvents 1 / (x + t), t >= 0) on [lo, hi] obey
    |c_k| <= 2 M rho**-k, M = (lo hi)**(power / 2).  So the interpolant of
    degree d is within bound = 4 M rho**-d / (rho - 1) of A**power in the
    2-norm, rounding aside (the Bernstein-ellipse bound; Demko, Moss and
    Smith 1984), and d is the least degree with bound <= CHEB_TOL
    |A**power|_2.  It is summed by the three-term recurrence on signed
    storage.  Its band products cost O((d k2)^2 n); past d max(k2, 1) >=
    4 sqrt(n) the exact A**power is cheaper, dense: A**-1 from the banded
    Cholesky factor, any other power from the eigenvectors of eig_banded,
    and products of it by BLAS (band_product).  With one BLAS thread the two
    paths cost the same near half-width 90 at n = 512 and 1024 and near 140
    at n = 2048.  An indefinite or (near-)singular A raises error first; the
    exact path past DENSE_N_MAX raises PreconditionError.
    """
    lo, hi = band_extremes(ab) if extremes is None else extremes
    if not lo > SYM_RTOL * abs(hi):
        raise error(f"{what} is not positive definite (min eig = {lo:.3e}, max eig = {hi:.3e})")
    # a margin over the rounding of the computed extremes
    lo, hi = lo - 1e-14 * hi, hi + 1e-14 * hi
    root = math.sqrt(hi / lo)
    rho = (root + 1.0) / (root - 1.0)
    scale = (lo * hi) ** (0.5 * power)
    ratio = 4.0 * scale / ((rho - 1.0) * CHEB_TOL * lo**power)
    degree = max(1, math.ceil(math.log(ratio) / math.log(rho)))
    k2, n = ab.shape[0] - 1, ab.shape[1]
    if degree * max(k2, 1) >= 4.0 * math.sqrt(n):
        check_size(n)
        if power == -1.0:
            eye = np.eye(n, order="F")
            dense = cho_solve_banded((band_cholesky(ab, error, what), True), eye, overwrite_b=True)
        else:
            w, v = eig_banded(ab, lower=True)
            v *= w ** (0.5 * power)
            dense = v @ v.T
        return dense_to_band(dense, n - 1), 0, 0.0
    theta = math.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
    centre, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = centre + radius * np.cos(theta)
    coef = np.cos(np.outer(np.arange(degree + 1), theta)) @ nodes**power
    coef *= 2.0 / (degree + 1)
    coef[0] *= 0.5
    # T_k(X) for X = (A - centre I) / radius, spectrum in [-1, 1]
    x = signed_band(ab) / radius
    x[k2] -= centre / radius
    width = degree * k2
    out = np.zeros((2 * width + 1, n))
    out[width] = coef[0]
    _accumulate(out, x, coef[1])
    prev, cur = np.ones((1, n)), x
    for c in coef[2:]:
        nxt = band_product(cur, x)
        nxt *= 2.0
        _accumulate(nxt, prev, -1.0)
        _accumulate(out, nxt, c)
        prev, cur = cur, nxt
    return out[width:], degree, 4.0 * scale * rho**-degree / (rho - 1.0)
