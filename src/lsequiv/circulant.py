"""Circulant-type matrix algebra and the matrix-to-function isometry.

The dictionary elements are Lambda^j * S^j2 with S the cyclic shift and
Lambda the diagonal of n-th roots of unity.  Products obey an exact
twisted-convolution law, so all norms, products, and defects are computed in
coefficient space; dense matrices are only materialized for oracles and
exports.

The isometry Psi (psi_forward, psi_inverse) uses one coefficient
convention, the "symmetric" one: dictionary elements are pre-rotated by
exp(i*pi*j*j2/n).  Conjugation and transposition then act as pure index
flips, which makes the images of the real cos/sin basis functions exactly
real and symmetric.  The approximate-multiplicativity defect (hom_defect)
is measured in that convention and in the "plain" one, the raw dictionary,
whose product picks up the phase exp(2*pi*i*j1p*j2/n) and whose
function-side relabeling is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import band_to_dense, check_size
from .errors import ConfigurationError, PreconditionError
from .spectral import POS, BasisIndex, basis_norm, enumerate_indices, table_eval

TWO_PI = 2.0 * math.pi


def lambda_phase(n: int, j) -> complex:
    """exp(2*pi*i*j/n); j may be a float for half-integer twists."""
    return np.exp(2j * math.pi * j / n)


def window_limit(n: int) -> float:
    """floor((n-1)/2)/2: both cutoffs of an alias-free window lie below it."""
    return ((n - 1) // 2) / 2.0


def window_guard(n: int, k1: int, k2: int):
    """Alias-free window: both cutoffs below window_limit(n)."""
    lim = window_limit(n)
    if not (k1 < lim and k2 < lim):
        raise PreconditionError(f"window ({k1},{k2}) too large for n={n}; need < {lim}")


class _WindowTable:
    """Complex coefficient table over the window [-k1, k1] x [-k2, k2].

    Entry [j + k1, j2 + k2] belongs to time frequency j and band offset j2;
    subclasses take (n, k1, k2, coeffs) in their constructor.
    """

    @classmethod
    def zero(cls, n: int, k1: int, k2: int):
        return cls(n, k1, k2, np.zeros((2 * k1 + 1, 2 * k2 + 1), dtype=complex))

    def table(self, k1: int, k2: int) -> np.ndarray:
        """Coefficient table on the window (k1, k2): zero-filled, truncated."""
        out = np.zeros((2 * k1 + 1, 2 * k2 + 1), dtype=complex)
        a1, a2 = min(k1, self.k1), min(k2, self.k2)
        out[k1 - a1 : k1 + a1 + 1, k2 - a2 : k2 + a2 + 1] = self.coeffs[
            self.k1 - a1 : self.k1 + a1 + 1, self.k2 - a2 : self.k2 + a2 + 1
        ]
        return out

    def __sub__(self, other):
        self._check_peer(other)
        k1, k2 = max(self.k1, other.k1), max(self.k2, other.k2)
        return type(self)(self.n, k1, k2, self.table(k1, k2) - other.table(k1, k2))

    def _check_peer(self, other):
        if self.n != other.n:
            raise ConfigurationError("elements live on different sizes")

    def _index_grids(self):
        """Time-frequency and band-offset indices j, j2 broadcast over the window."""
        return np.arange(-self.k1, self.k1 + 1)[:, None], np.arange(-self.k2, self.k2 + 1)[None, :]

    def twisted_product(self, other, twist=None) -> np.ndarray:
        """Table of sum a[j1, j1p] b[j2, j2p] twist(j1, j1p, j2, j2p) at (j1 + j2, j1p + j2p).

        a is this table and b the other; twist receives the four indices as
        broadcast grids over a's and b's windows (None means 1).  Terms are
        accumulated in the order of a's entries, then b's.
        """
        terms = self.coeffs[:, :, None, None] * other.coeffs
        i1, i1p, i2, i2p = np.ix_(*(np.arange(s) for s in terms.shape))
        if twist is not None:
            terms = terms * twist(i1 - self.k1, i1p - self.k2, i2 - other.k1, i2p - other.k2)
        out = np.zeros((2 * (self.k1 + other.k1) + 1, 2 * (self.k2 + other.k2) + 1), dtype=complex)
        np.add.at(out, (i1 + i2, i1p + i2p), terms)
        return out


class CirculantElement(_WindowTable):
    """Finite combination of dictionary elements, coefficients in plain coords.

    coeffs has shape (2*k1+1, 2*k2+1); entry [j + k1, j2 + k2] multiplies the
    element with time frequency j and band offset j2.
    """

    def __init__(self, n: int, k1: int, k2: int, coeffs):
        if k1 < 0 or k2 < 0:
            raise ConfigurationError("window sizes must be nonnegative")
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (2 * k1 + 1, 2 * k2 + 1):
            raise ConfigurationError(
                f"coefficient table shape {c.shape} does not match window ({k1},{k2})"
            )
        self.n = n
        self.k1 = k1
        self.k2 = k2
        self.coeffs = c

    @classmethod
    def basis(cls, n: int, j: int, j2: int) -> "CirculantElement":
        el = cls.zero(n, abs(j), abs(j2))
        el.coeffs[j + el.k1, j2 + el.k2] = 1.0
        return el

    def to_matrix(self) -> np.ndarray:
        check_size(self.n)
        out = np.zeros((self.n, self.n), dtype=complex)
        i = np.arange(self.n)
        for j2 in range(-self.k2, self.k2 + 1):
            col = np.zeros(self.n, dtype=complex)
            for j in range(-self.k1, self.k1 + 1):
                c = self.coeffs[j + self.k1, j2 + self.k2]
                if c != 0.0:
                    col = col + c * np.exp(2j * math.pi * j * i / self.n)
            if np.any(col != 0.0):
                out[i, (i + j2) % self.n] += col
        return out

    @property
    def frob_sq(self) -> float:
        # dictionary elements are orthogonal with squared norm n
        return float(self.n * np.sum(np.abs(self.coeffs) ** 2))

    def __rmul__(self, scalar) -> "CirculantElement":
        return CirculantElement(self.n, self.k1, self.k2, scalar * self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, CirculantElement):
            return self.__rmul__(other)
        self._check_peer(other)
        k1, k2 = self.k1 + other.k1, self.k2 + other.k2
        if 2 * k2 >= self.n or 2 * k1 >= self.n:
            raise PreconditionError("product window would alias modulo n")
        n = self.n
        table = self.twisted_product(other, lambda j1, j1p, j2, j2p: lambda_phase(n, j1p * j2))
        return CirculantElement(n, k1, k2, table)


@dataclass
class FourierFunction(_WindowTable):
    """Trig polynomial sum a[j,j2] exp(2 pi i j u) exp(i j2 x) on the rectangle.

    Carries the ambient size n because its norm is the scaled L2 norm in
    which the matrix-to-function map is an isometry.
    """

    n: int
    k1: int
    k2: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.k1 + 1, 2 * self.k2 + 1):
            raise ConfigurationError("coefficient table shape mismatch")
        self.coeffs = c

    def eval(self, u, x):
        return table_eval(self.coeffs, u, x)

    @property
    def l2n_sq(self) -> float:
        """Squared norm under (n / 2 pi) * the rectangle L2 inner product."""
        return float(self.n * np.sum(np.abs(self.coeffs) ** 2))

    def __mul__(self, other: "FourierFunction") -> "FourierFunction":
        if self.n != other.n:
            raise ConfigurationError("functions live on different sizes")
        k1, k2 = self.k1 + other.k1, self.k2 + other.k2
        return FourierFunction(self.n, k1, k2, self.twisted_product(other))


def _psi_rotation(obj: _WindowTable):
    """exp(i pi j j2 / n) over obj's window: the symmetric convention's rotation."""
    j, j2 = obj._index_grids()
    return np.exp(1j * math.pi * j * j2 / obj.n)


def psi_forward(elem: CirculantElement) -> FourierFunction:
    """Function with the element's table rotated by exp(-i pi j j2 / n).

    The symmetric rotation pairs real symmetric matrices with real functions.
    """
    return FourierFunction(elem.n, elem.k1, elem.k2, elem.coeffs / _psi_rotation(elem))


def psi_inverse(fn: FourierFunction) -> CirculantElement:
    """Element with the function's table, the inverse of psi_forward."""
    return CirculantElement(fn.n, fn.k1, fn.k2, fn.coeffs * _psi_rotation(fn))


def hom_defect(a: CirculantElement, b: CirculantElement, convention: str = "plain"):
    """Approximate-multiplicativity defect and its closed-form bound.

    Returns (lhs, bound) with lhs the squared scaled-L2 norm of
    forward(A @ B) - forward(A) * forward(B) and bound the product-window
    estimate 4 pi^2 |A|_F^2 |B|_F^2 m^2 / n^3, where m = k2(A) * k1(B) in the
    plain convention and the symmetrized average in the symmetric one.
    The defect table is the product law with twist lambda^{j1p j2} - 1, or
    lambda^{(j1p j2 - j1 j2p) / 2} - 1 in the symmetric convention.  Any
    other convention raises ConfigurationError.
    """
    if a.n != b.n:
        raise ConfigurationError("elements live on different sizes")
    n = a.n
    window_guard(n, a.k1, a.k2)
    window_guard(n, b.k1, b.k2)
    if convention == "plain":
        m = a.k2 * b.k1
        defect = a.twisted_product(b, lambda j1, j1p, j2, j2p: lambda_phase(n, j1p * j2) - 1.0)
    elif convention == "symmetric":
        m = 0.5 * (a.k2 * b.k1 + a.k1 * b.k2)
        defect = a.twisted_product(
            b, lambda j1, j1p, j2, j2p: lambda_phase(n, 0.5 * (j1p * j2 - j1 * j2p)) - 1.0
        )
    else:
        raise ConfigurationError("convention must be 'plain' or 'symmetric'")
    lhs = float(n * np.sum(np.abs(defect) ** 2))
    bound = 4.0 * math.pi**2 * a.frob_sq * b.frob_sq * m**2 / n**3
    return lhs, bound


def real_function_table(n: int, idx: BasisIndex) -> FourierFunction:
    """Complex-exponential table of one real basis function."""
    nrm = basis_norm(idx)
    j, j2 = idx.j, idx.j2
    fn = FourierFunction.zero(n, j, j2)
    if idx.parity == POS:
        pieces = [(j, 0.5), (-j, 0.5)] if j else [(0, 1.0)]
    else:
        pieces = [(j, -0.5j), (-j, 0.5j)]
    xpieces = [(j2, 0.5), (-j2, 0.5)] if j2 else [(0, 1.0)]
    for jj, wt in pieces:
        for xx, wx in xpieces:
            fn.coeffs[jj + fn.k1, xx + fn.k2] += nrm * wt * wx
    return fn


def mcheck_diagonal(n: int, idx: BasisIndex) -> np.ndarray:
    """Wrapped diagonal j2 of mcheck_element(n, idx): its entries A[(i + j2) mod n, i].

    The cosine form of the symmetric-convention combination; the element
    has no other nonzero wrapped diagonal.
    """
    nrm = basis_norm(idx)
    j, j2 = idx.j, idx.j2
    i = np.arange(n)
    trig = np.cos if idx.parity == POS else np.sin
    if j2 == 0:
        return nrm * trig(math.pi * j * 2 * i / n)
    if 2 * j2 >= n:
        raise PreconditionError("band offset too large for size")
    return 0.5 * nrm * trig(math.pi * j * (2 * i + j2) / n)


def mcheck_element(n: int, idx: BasisIndex) -> np.ndarray:
    """Real symmetric image of one basis function, squared norm n/(2 pi), dense."""
    wd = np.zeros((idx.j2 + 1, n))
    wd[idx.j2] = mcheck_diagonal(n, idx)
    return band_to_dense(wd)


def build_mcheck_basis(n: int, k1: int, k2: int) -> np.ndarray:
    """Stack of K orthonormal real symmetric matrices in enumeration order."""
    window_guard(n, k1, k2)
    indices = enumerate_indices(k1, k2)
    scale = math.sqrt(TWO_PI / n)
    out = np.empty((len(indices), n, n))
    for pos, idx in enumerate(indices):
        out[pos] = scale * mcheck_element(n, idx)
    return out


def psi_inverse_real(n: int, indices, coeffs) -> np.ndarray:
    """Real symmetric matrix for a real-coefficient basis expansion in index order,
    as wrapped diagonals of half-width max j2 (see _linalg)."""
    out = np.zeros((max((idx.j2 for idx in indices), default=0) + 1, n))
    for idx, c in zip(indices, coeffs):
        if c != 0.0:
            out[idx.j2] += float(c) * mcheck_diagonal(n, idx)
    return out


def real_expansion_to_element(n: int, indices, coeffs) -> CirculantElement:
    """Plain-coordinate element for a real basis expansion (exact algebra)."""
    k1 = max((idx.j for idx in indices), default=0)
    k2 = max((idx.j2 for idx in indices), default=0)
    acc = FourierFunction.zero(n, k1, k2)
    for idx, c in zip(indices, coeffs):
        fn = real_function_table(n, idx)
        acc.coeffs += float(c) * fn.table(k1, k2)
    return psi_inverse(acc)

