"""Symmetric-matrix helpers, dense and banded, under one singularity policy.

Every factorization, eigendecomposition and solve in the package goes
through this module (other modules call numpy.linalg for norms only), under
one singularity policy: a failed Cholesky factorization (``cholesky``, with
``chol_solve`` and ``chol_logdet``) raises a typed error, and so does an
eigenvalue below ``SYM_RTOL * max|eig|`` in ``guarded_eig``, behind
``sym_inv`` and ``sym_inv_sqrt``: none is pseudo-inverted.  ``sym_abs`` and
``spectral_norm`` invert nothing; ``least_squares`` turns a failed SVD into
AccuracyError.  Banded symmetric matrices are held in LAPACK lower band
storage, ``ab[j, i] = A[i + j, i]`` for ``j = 0..width``; they are factored
by banded Cholesky (``dpbtrf``), whose failure is the positive-definiteness
check, and solved from the factor (``dpbtrs``, or ``dtbtrs`` for one
triangular solve); their extreme eigenvalues come from ``dsbevx`` and their
full spectrum from ``dsbevd``, all from scipy's extension module
``scipy.linalg._flapack``, loaded on its own: importing the scipy package
would double the start-up time of every command line run.  A non-finite
band raises PreconditionError before it reaches LAPACK.  A function
x**power (-1 <= power < 0) of an SPD band is a Chebyshev polynomial in it
of certified half-width (``band_function``), or, for a band too
ill-conditioned for that to stay below 4 sqrt(n), the exact function, dense.

A symmetric wrapped band (A[i, l] = 0 past cyclic distance w), such as the
cyclic dictionary sums and the whitening matrix W, is held as its wrapped
diagonals, ``wd[j, i] = A[(i + j) mod n, i]`` for ``j = 0..w``; lower band
storage is the same layout for a plain band, zero where i + j passes n - 1.
Row j stands for itself and its mirror, and for 2w >= n the rows of one
cyclic diagonal add up.  For 2w < n, the order 0, n-1, 1, n-2, ... makes a
wrapped band a plain one of half-width 2w (``wrapped_band``), so
``band_extremes`` applies.  No covariance is built dense; an n x n array is
formed from band storage only by ``band_to_dense`` (test oracles,
``export-basis``, the B of ``verify``'s affinity check, ``sample_experiment``'s
J and K) and for a difference or product that fills.

Every kernel another module calls takes and returns symmetric matrices in
these two layouts.  Band products, not symmetric in general, are formed here
in signed storage, ``g[w + s, i] = A[(i + s) mod n, i]``, ``s = -w..w``
(``signed_band``), zero where a plain band's i + s leaves [0, n): rows s >= 0
are a symmetric matrix's lower half, rows s and s - n one cyclic diagonal.
``band_product`` and ``band_sandwich`` (S M S by its rows s >= 0) share one
diagonal loop; ``band_trace_square`` takes tr((A B)^2) from one product and
``lower_frob`` |G - H|_F from lower halves.  Only ``BasisSystem.trace_gram``
reads signed storage elsewhere: its windowed sums index that layout.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import AccuracyError, PreconditionError, SingularMatrixError


def _load_flapack():
    """scipy.linalg._flapack, without running scipy/__init__.py or
    scipy/linalg/__init__.py.  It is registered under its own name, so a
    later import of scipy.linalg finds this module and not a second copy."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(scipy_dir, "linalg")]
    )
    if spec is None:
        raise ImportError("scipy.linalg._flapack not found: lsequiv needs scipy's LAPACK extension")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_flapack = sys.modules.get("scipy.linalg._flapack") or _load_flapack()
# the absolute tolerance scipy's eig_banded passes to dsbevx
_ABSTOL = 2.0 * _flapack.dlamch("s")


def _lapack(routine, *args, **kwargs):
    """The outputs of the _flapack routine, LAPACK's info last.

    A negative info names an illegal argument, a bug in the call, and raises
    RuntimeError; a positive one from an eigensolver (dsbev*) means it did
    not converge and raises AccuracyError.  dpbtrf's positive info, the order
    of the leading minor that is not positive definite, is the caller's.
    """
    out = getattr(_flapack, routine)(*args, **kwargs)
    info = out[-1]
    if info < 0:
        raise RuntimeError(f"illegal value in argument {-info} of {routine}")
    if info > 0 and routine.startswith("dsbev"):
        raise AccuracyError(f"{routine} did not converge (info = {info})")
    return out


def check_finite(a, what):
    """PreconditionError unless every entry of a is finite (LAPACK would
    return garbage or loop on a NaN)."""
    if not np.isfinite(a).all():
        raise PreconditionError(f"{what} has a non-finite entry")

# Largest edge of an n x n array: formed from band storage (band_to_dense),
# built dense (CirculantElement.to_matrix) or exact in band_function.
DENSE_N_MAX = 4096

SYM_RTOL = 1e-12


def check_size(n):
    if not (1 <= n <= DENSE_N_MAX):
        raise PreconditionError(f"dense matrix size {n} outside [1, {DENSE_N_MAX}]")


def check_symmetric(a, what):
    """Raises unless max |A - A^T| is finite and <= 1e-10 max(1, max |A|).

    A NaN or infinite entry makes the deviation NaN or infinite, so it
    raises too, with no numpy warning (inf - inf is NaN).  One n x n
    temporary.
    """
    if not a.size:
        return
    with np.errstate(invalid="ignore"):
        dev = a - a.T
    np.abs(dev, out=dev)
    dev = float(dev.max())
    if not (np.isfinite(dev) and dev <= 1e-10 * max(1.0, float(a.max()), -float(a.min()))):
        raise PreconditionError(f"{what} is not symmetric (max deviation {dev:.3e})")


def guard_spectrum(w, require_pd):
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
    guard_spectrum(w, require_pd)
    return w, v


def sym_inv(a):
    w, v = guarded_eig(a, require_pd=False)
    return (v / w) @ v.T


def sym_inv_sqrt(a):
    w, v = guarded_eig(a, require_pd=True)
    return (v / np.sqrt(w)) @ v.T


def sym_abs(a):
    """|A| = (A^2)^(1/2) of a symmetric A from one eigh, formed as U U^T with
    U = V |w|^(1/2), in place of the eigenvectors."""
    w, v = np.linalg.eigh(a)
    v *= np.sqrt(np.abs(w))
    return v @ v.T


def spectral_norm(a):
    """2-norm of a symmetric matrix: max |eigenvalue|, from eigvalsh."""
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def least_squares(a, b):
    """lstsq's solution of a x = b; AccuracyError where its SVD fails."""
    try:
        return np.linalg.lstsq(a, b, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise AccuracyError(f"least squares did not converge: {exc}")


def frob(a):
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def band_to_dense(ab):
    """Dense symmetric matrix from lower band storage or wrapped diagonals."""
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
    """(min eig, max eig) of a symmetric matrix in lower band storage, each
    from one dsbevx call that selects it by index (1-based, il = iu)."""
    check_finite(ab, "band")
    lo, hi = (
        _lapack(
            "dsbevx", ab, 0.0, 1.0, k, k,
            compute_v=0, mmax=1, range=2, lower=1, overwrite_ab=0, abstol=_ABSTOL,
        )[0][0]
        for k in (1, ab.shape[1])
    )
    return float(lo), float(hi)


def band_eigh(ab):
    """(w, v), ascending eigenvalues and eigenvectors of a lower band, by dsbevd."""
    check_finite(ab, "band")
    w, v, _ = _lapack("dsbevd", ab, compute_v=1, lower=1, overwrite_ab=0)
    return w, v


def band_cholesky(ab, error=SingularMatrixError, what="matrix"):
    """Lower banded Cholesky factor of an SPD matrix in lower band storage.

    A failed factorization (dpbtrf's positive info) is the
    positive-definiteness check: it raises error, with min eig computed for
    the message only.  A non-finite entry raises PreconditionError.
    """
    check_finite(ab, what)
    factor, info = _lapack("dpbtrf", ab, lower=1, overwrite_ab=0)
    if info > 0:
        lo, _ = band_extremes(ab)
        raise error(f"{what} is not positive definite (min eig = {lo:.3e})")
    return factor


def is_positive_definite(ab, what="matrix"):
    """Whether the symmetric matrix in lower band storage ab is positive
    definite: whether its banded Cholesky factorization (dpbtrf) succeeds."""
    check_finite(ab, what)
    return _lapack("dpbtrf", ab, lower=1, overwrite_ab=0)[1] == 0


def band_chol_solve_t(factor, b):
    """L**-T b, b of shape (n, nrhs), for the lower banded Cholesky factor L
    of band_cholesky, by one triangular band solve (dtbtrs)."""
    return _lapack("dtbtrs", factor, b, uplo=b"L", trans=b"T", overwrite_b=0)[0]


def cholesky(a, what):
    """Dense lower Cholesky factor; SingularMatrixError unless a is SPD."""
    try:
        return np.linalg.cholesky(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(f"{what} is not positive definite")


def chol_logdet(factor) -> float:
    """log det A from the dense lower Cholesky factor of A."""
    return 2.0 * float(np.sum(np.log(np.diag(factor))))


def chol_solve(factor, b):
    """A**-1 b from the dense lower Cholesky factor of A, by dpotrs."""
    return _lapack("dpotrs", factor, b, lower=1, overwrite_b=0)[0]


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
    """Signed storage of a symmetric band ab (lower storage or wrapped)."""
    return _mirrored(ab, len(ab) - 1)


def _mirrored(ab, rows):
    """Rows -rows..w of the signed storage of the symmetric band ab: row -j is
    row j shifted cyclically by j columns."""
    n = ab.shape[1]
    g = np.empty((rows + len(ab), n), dtype=ab.dtype)
    g[rows:] = ab
    for j in range(1, rows + 1):
        # A[i - j, i] = A[i, i - j], held at column (i - j) mod n of row j
        k = j % n
        g[rows - j, :k] = ab[j, n - k :]
        g[rows - j, k:] = ab[j, : n - k]
    return g


def band_transpose(g):
    """A^T in signed storage."""
    w, n = len(g) // 2, g.shape[1]
    # A^T[i + s, i] = A[i, i + s], held at column i + s of row -s
    s = np.arange(-w, w + 1)[:, None]
    index = np.arange(n) + s
    index %= n
    index += (w - s) * n
    return g.ravel()[index]


def _skew(g):
    """The n x n view A[x, y] = g[n - 1 + x - y, y] of signed storage g of
    half-width n - 1: flat (n - 1) n + x n - y (n - 1), within g for
    0 <= x, y < n."""
    n, step = g.shape[1], g.itemsize
    return as_strided(g.reshape(-1)[(n - 1) * n :], (n, n), (n * step, -(n - 1) * step))


def signed_to_dense(g):
    """Dense matrix from signed storage: A[(i + s) mod n, i] = g[w + s, i],
    rows s and s - n added.

    A band with 2w < n is one scatter: entry ((i + s) mod n, i) is at flat
    index r n + i (n + 1), r = s mod n, less n^2 where i + r >= n, each
    written once.  A wider one is summed first, in the order of s, into one
    row per cyclic diagonal, copied to s and s - n, and read through _skew.
    """
    w, n = len(g) // 2, g.shape[1]
    check_size(n)
    if 2 * w < n:
        index = np.add.outer(np.arange(-w, w + 1) % n * n, np.arange(n) * (n + 1))
        np.subtract(index, n * n, out=index, where=index >= n * n)
        out = np.zeros((n, n))
        out.reshape(-1)[index] = g
        return out
    h = np.zeros((2 * n - 1, n))
    # rows r = 0..n-1 of folded hold cyclic diagonal r; n rows of g at a time
    folded = h[n - 1 :]
    for p in range(0, 2 * w + 1, n):
        chunk, r = g[p : p + n], (p - w) % n
        k = min(len(chunk), n - r)
        folded[r : r + k] += chunk[:k]
        folded[: len(chunk) - k] += chunk[k:]
    h[: n - 1] = h[n:]
    return _skew(h).copy()


def dense_signed(a):
    """Signed storage of half-width n - 1 of a dense n x n matrix, as a plain
    band: zero where i + s leaves [0, n)."""
    g = np.zeros((2 * len(a) - 1, len(a)))
    _skew(g)[...] = a
    return g


def band_product(a, b):
    """A @ B in signed storage of half-width wa + wb, (2 wa + 1)(2 wb + 1) n
    work by diagonals of B.  When wa + wb >= n no band is left to keep: the
    product is one dense matmul, returned as a plain band of half-width
    n - 1."""
    wa, wb, n = a.shape[0] // 2, b.shape[0] // 2, a.shape[1]
    if wa + wb >= n:
        return dense_signed(signed_to_dense(a) @ signed_to_dense(b))
    return _diagonal_products(a, b, lower=False)


def _diagonal_products(a, b, lower):
    """A @ B in signed storage for wa + wb < n, summed over the diagonals t
    of B in order.  With lower, a holds A's rows -wb..wa only and
    only the rows s >= 0 are formed, (2 wb + 1)(wa + 1) n work: row u of A
    lands at s = u + t.  Each entry gains the same terms in the same order
    either way, so those rows are bitwise equal."""
    wb, n = b.shape[0] // 2, a.shape[1]
    # rows of a below s = 0, and the first row of A B formed
    depth = wb if lower else len(a) // 2
    first = 0 if lower else -depth - wb
    out = np.zeros((len(a) - depth + wb - first, n))
    term = np.empty_like(a)
    for t in range(-wb, wb + 1):
        # (A B)[i + u + t, i] gains A[i + u + t, i + t] B[i + t, i], i + t mod n,
        # for the rows u >= first - t of A, from index lo = u + depth of a
        k, lo = t % n, max(0, first - t + depth)
        part, shift = term[lo:], t - depth - first
        np.multiply(a[lo:, k:], b[wb + t, : n - k], out=part[:, : n - k])
        np.multiply(a[lo:, :k], b[wb + t, n - k :], out=part[:, n - k :])
        out[lo + shift : len(a) + shift] += part
    return out


def band_sandwich(s, *m):
    """S M_1 ... M_r S in lower band storage, for symmetric S and M_1 ... M_r
    (their product symmetric too), each in lower band storage or wrapped.  M
    and S M are band products; of (S M) S only the rows s >= 0 are formed,
    from S M's rows s >= -ws, bitwise band_product's (or its dense matmul's)."""
    s = signed_band(s)
    sm = band_product(s, functools.reduce(band_product, map(signed_band, m)))
    wa, ws, n = len(sm) // 2, len(s) // 2, s.shape[1]
    if wa + ws >= n:
        return band_product(sm, s)[n - 1 :]
    return _diagonal_products(sm[wa - ws :], s, lower=True)


def band_trace_square(a, b):
    """tr((A B)^2) = <G, G^T>_F for symmetric A and B in lower band storage,
    G = A B one band product."""
    g = band_product(signed_band(a), signed_band(b))
    return float(np.vdot(g, band_transpose(g)))


def lower_frob(g, h):
    """|G - H|_F for symmetric G and H, each in lower band storage or wrapped,
    of any half-widths: |D_0|^2 plus twice the squares of the rows j >= 1 of
    D = G - H, each standing for itself and its mirror.  Where two rows name
    one cyclic diagonal (2w >= n) they are summed first, in the dense D."""
    g, h = (g, h) if len(g) >= len(h) else (h, g)
    d = g.copy()
    d[: len(h)] -= h
    if 2 * (len(d) - 1) >= d.shape[1]:
        return frob(band_to_dense(d))
    return math.sqrt(float(np.dot(d[0], d[0])) + 2.0 * float(np.vdot(d[1:], d[1:])))


# the Chebyshev interpolant of A**power is asked to be within this of it,
# relative to |A**power|_2
CHEB_TOL = 1e-15


def band_function(ab, power, extremes=None, error=SingularMatrixError, what="matrix"):
    """(A**power, degree, bound) for an SPD A in lower band storage and
    -1 <= power < 0, with extremes = (min eig, max eig) of A taken from
    band_extremes when not given; for a tuple of powers, a tuple of those
    triples from one recurrence.  A**power is lower band storage of
    half-width degree k2 < 4 sqrt(n), or of n - 1 with degree 0 when exact.

    With spec(A) in [lo, hi], kappa = hi / lo and rho = (sqrt(kappa) + 1) /
    (sqrt(kappa) - 1), the Chebyshev coefficients of x**power (a Stieltjes
    integral of resolvents 1 / (x + t), t >= 0) on [lo, hi] obey
    |c_k| <= 2 M rho**-k, M = (lo hi)**(power / 2).  So the interpolant of
    degree d is within bound = 4 M rho**-d / (rho - 1) of A**power in the
    2-norm, rounding aside (the Bernstein-ellipse bound; Demko, Moss and
    Smith 1984), and d is the least degree with bound <= CHEB_TOL
    |A**power|_2.  It is summed by the three-term recurrence on lower band
    storage, since each T_k(X) is symmetric: T_{k+1} takes only the rows
    s >= 0 of T_k X, which read T_k's lower half and its k2 mirrored rows
    s = -k2..-1, and each power sums the T_k up to its own degree, so its
    band is bitwise the one a call for it alone returns.
    The band products cost O((d k2)^2 n); past d max(k2, 1) >= 4 sqrt(n)
    the exact A**power is cheaper, dense: A**-1 from the banded Cholesky
    factor (dpbtrs), any other power from the eigenvectors of dsbevd, and
    products of it by BLAS (band_product).  With one BLAS thread the two
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
    centre, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    k2, n = ab.shape[0] - 1, ab.shape[1]
    results, sums = [], []
    for p in power if isinstance(power, tuple) else (power,):
        scale = (lo * hi) ** (0.5 * p)
        ratio = 4.0 * scale / ((rho - 1.0) * CHEB_TOL * lo**p)
        degree = max(1, math.ceil(math.log(ratio) / math.log(rho)))
        if degree * max(k2, 1) >= 4.0 * math.sqrt(n):
            results.append((_exact_power(ab, p, error, what), 0, 0.0))
            continue
        theta = math.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
        nodes = centre + radius * np.cos(theta)
        coef = np.cos(np.outer(np.arange(degree + 1), theta)) @ nodes**p
        coef *= 2.0 / (degree + 1)
        coef[0] *= 0.5
        out = np.zeros((degree * k2 + 1, n))
        out[0] = coef[0]
        results.append((out, degree, 4.0 * scale * rho**-degree / (rho - 1.0)))
        sums.append((out, coef))
    if sums:
        # T_k(X) for X = (A - centre I) / radius, spectrum in [-1, 1]
        x = signed_band(ab) / radius
        x[k2] -= centre / radius
        prev, cur = np.ones((1, n)), x[k2:]
        for out, coef in sums:
            out[: k2 + 1] += coef[1] * cur
        for k in range(2, max(len(c) for _, c in sums)):
            # rows s >= 0 of T_k X read T_k's rows s >= -k2 only, unless it fills
            if len(cur) + k2 <= n:
                nxt = _diagonal_products(_mirrored(cur, k2), x, lower=True)
            else:
                nxt = band_product(signed_band(cur), x)[n - 1 :]
            nxt *= 2.0
            nxt[: len(prev)] -= prev
            for out, coef in sums:
                if k < len(coef):
                    out[: len(nxt)] += coef[k] * nxt
            prev, cur = cur, nxt
    return tuple(results) if isinstance(power, tuple) else results[0]


def _exact_power(ab, power, error, what):
    """A**power of an SPD band as a full band: A**-1 from the banded Cholesky
    factor (dpbtrs), any other power from the eigenvectors of dsbevd."""
    n = ab.shape[1]
    check_size(n)
    if power == -1.0:
        eye = np.eye(n, order="F")
        factor = band_cholesky(ab, error, what)
        dense = _lapack("dpbtrs", factor, eye, lower=1, overwrite_b=1)[0]
    else:
        w, v = band_eigh(ab)
        v *= w ** (0.5 * power)
        dense = v @ v.T
    return dense_to_band(dense, n - 1)
