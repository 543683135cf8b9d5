"""Covariance builders and the truncated-shift matrix basis.

Two covariance constructions: the band-limited map theta(f) whose entry
(a, b) integrates exp(i(a-b)x) f(min(a,b)/n, x), and the moving-average
covariance vartheta of a symbol, a band of half-width 2 k2.  The companion basis {M_k} uses a
nilpotent (truncated) shift instead of the cyclic one, giving exact
Frobenius norms 2*pi*(n - j2) and exact orthogonality; its distance to the
cyclic family shrinks like K^(1/4)/sqrt(n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._linalg import (
    band_eigh,
    band_extremes,
    band_function,
    band_product,
    band_to_dense,
    band_transpose,
    signed_band,
    signed_frob,
)
from .circulant import build_mcheck_basis, mcheck_diagonal
from .errors import ConfigurationError, PreconditionError, RangeError
from .report import CheckResult
from .spectral import (
    POS,
    BasisIndex,
    SpectralDensity,
    TransferFunction,
    basis_norm,
    default_grid,
    enumerate_indices,
    node_gap,
)

TWO_PI = 2.0 * math.pi


def abstract_rho(rho_star: float) -> float:
    """Eigenvalue band parameter for the matrix experiment.

    theta(f) eigenvalues live in [2 pi rho_star, 2 pi / rho_star]; the band
    [rho, 1/rho] must contain them on both sides, so take the tighter end and
    shrink by the safety factor 0.9.
    """
    if not (0.0 < rho_star <= 1.0):
        raise ConfigurationError("rho_star must lie in (0, 1]")
    return 0.9 * min(TWO_PI * rho_star, rho_star / TWO_PI)


@dataclass
class CovarianceMatrix:
    """Real symmetric covariance in lower band storage, its only form: a
    dense view is band_to_dense(cov.band), for oracles and exports."""

    band: np.ndarray

    def __post_init__(self):
        ab = self.band = np.asarray(self.band, dtype=float)
        # ab[j, i] = A[i + j, i] leaves the matrix for i >= n - j, so a dense
        # n x n array (nonzero diagonal past n / 2) is not taken for a band
        if ab.ndim != 2 or not 1 <= len(ab) <= ab.shape[1]:
            raise PreconditionError(f"covariance band has shape {ab.shape}, not (w + 1, n), w < n")
        if not np.all(np.isfinite(ab)) or any(np.any(ab[j, -j:]) for j in range(1, len(ab))):
            raise PreconditionError("covariance band is not finite lower band storage")

    @property
    def n(self) -> int:
        return self.band.shape[1]


def _band_profile(idx: BasisIndex, n: int) -> np.ndarray:
    """Strip values of the truncated-shift image of one basis function."""
    j, j2 = idx.j, idx.j2
    trig = np.cos if idx.parity == POS else np.sin
    nrm = basis_norm(idx)
    m = np.arange(n - j2)
    if j2 == 0:
        return TWO_PI * nrm * trig(TWO_PI * j * m / n)
    return math.pi * nrm * trig(TWO_PI * j * m / (n - j2))


class BasisSystem:
    """Orthonormal symmetric matrices {M_k} held as band profiles.

    M_k is symmetric with one band at offset j2 = offsets[k]: its values
    bands[k, :n - j2] sit at (i, i + j2) and, mirrored, at (i + j2, i).  The
    raw matrices are raw_norms[k] * M_k.  Every operation reads the bands, so
    n is not capped here; the dense views mat, mats, combine and mcheck, built
    lazily for oracles and exports, raise past DENSE_N_MAX.
    """

    def __init__(self, n: int, k1: int, k2: int):
        if not (k1 < n / 4 and k2 < n / 4):
            raise PreconditionError(f"need k1, k2 < n/4, got ({k1},{k2}) at n={n}")
        self.n = n
        self.k1 = k1
        self.k2 = k2
        self.indices = enumerate_indices(k1, k2)
        self.K = len(self.indices)
        self.offsets = np.array([idx.j2 for idx in self.indices])
        self.raw_norms = np.sqrt(TWO_PI * (n - self.offsets))
        self.bands = np.zeros((self.K, n))
        for pos, idx in enumerate(self.indices):
            self.bands[pos, : n - idx.j2] = _band_profile(idx, n) / self.raw_norms[pos]
        self._spectral_norms = None

    def _by_offset(self):
        """(j2, positions) for each distinct band offset, ascending."""
        return [(j2, np.flatnonzero(self.offsets == j2)) for j2 in range(self.k2 + 1)]

    def mat(self, k: int) -> np.ndarray:
        """Dense normalized M_k."""
        return self.combine(np.eye(self.K)[k])

    @functools.cached_property
    def mats(self) -> np.ndarray:
        """Dense (K, n, n) stack of the normalized matrices, built on first use."""
        return np.stack([self.mat(k) for k in range(self.K)])

    @functools.cached_property
    def mcheck(self) -> np.ndarray:
        """Dense (K, n, n) cyclic companion stack, built on first use."""
        return build_mcheck_basis(self.n, self.k1, self.k2)

    def mcheck_profiles(self) -> np.ndarray:
        """(K, n) wrapped diagonals of the cyclic companions: Mcheck_k holds
        row k at (i + j2 mod n, i) and, mirrored, at (i, i + j2 mod n)."""
        scale = math.sqrt(TWO_PI / self.n)
        out = np.empty((self.K, self.n))
        for pos, idx in enumerate(self.indices):
            out[pos] = scale * mcheck_diagonal(self.n, idx)
        return out

    def mcheck_gaps(self) -> np.ndarray:
        """|Mcheck_k - M_k|_F per k.  Both are one diagonal at offset j2, cyclic
        and plain, so the gap is one wrapped diagonal, counted twice if j2 > 0."""
        gaps = self.mcheck_profiles()
        gaps -= self.bands
        return np.linalg.norm(gaps, axis=1) * np.where(self.offsets > 0, math.sqrt(2.0), 1.0)

    def project(self, ab) -> np.ndarray:
        """Frobenius coefficients <A, M_k> of a symmetric A in lower band
        storage of any half-width."""
        ab = np.asarray(ab, dtype=float)
        lags = np.zeros((self.k2 + 1, self.n))
        for j2 in range(min(self.k2 + 1, len(ab))):
            lags[j2, : self.n - j2] = (2.0 if j2 else 1.0) * ab[j2, : self.n - j2]
        return np.sum(self.bands * lags[self.offsets], axis=1)

    def band(self, vec) -> np.ndarray:
        """sum_k vec[k] M_k in lower band storage, shape (k2 + 1, n)."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.K,):
            raise ConfigurationError("coefficient vector length mismatch")
        out = np.zeros((self.k2 + 1, self.n))
        for j2, pos in self._by_offset():
            out[j2, : self.n - j2] = vec[pos] @ self.bands[pos, : self.n - j2]
        return out

    def combine(self, vec) -> np.ndarray:
        """sum_k vec[k] M_k as a dense, exactly symmetric matrix."""
        return band_to_dense(self.band(vec))

    def quad_form(self, x) -> np.ndarray:
        """x^T M_k x for all k, the pilot statistic of one observation x, or
        (R, K) for an (R, n) block: one lag product per offset, R n work space."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ConfigurationError("observation length mismatch")
        rows = x.reshape(-1, self.n)
        out = np.empty((len(rows), self.K))
        for j2, pos in self._by_offset():
            lag = rows[:, : self.n - j2] * rows[:, j2:]
            out[:, pos] = (2.0 if j2 else 1.0) * (lag @ self.bands[pos, : self.n - j2].T)
        return out.reshape(x.shape[:-1] + (self.K,))

    def trace_gram(self, sb) -> np.ndarray:
        """[2 tr(S M_k S M_l)]_kl for a symmetric S in lower band storage.

        M_k is a strip of values p at corner (0, j2) plus, for j2 > 0, its
        mirror at (j2, 0).  A strip with values p at (ra+i, ca+i) and one with
        values q at (rb+i, cb+i) contribute p^T (S[ca:, rb:] * S[ra:, cb:]) q;
        by the symmetry of S, mirroring both strips leaves that unchanged, so
        each pair of offsets (oa, ob) needs the Hadamard sum
        had[i, k] = S[oa+i, k] S[i, ob+k] + S[oa+i, ob+k] S[i, k].
        For S of half-width w, had[i, i + d] vanishes unless
        -w - ob <= d <= w + oa, and its diagonals are row slices of S's
        signed storage, those read at row oa + i shifted by oa columns: each
        pair is (2w + 1 + oa + ob) n products and one windowed sum against
        the profiles q, O(K n (w + k2)) in all, with no band product.  A wide
        S, whose diagonals of had would outgrow two n x n arrays, is read
        dense instead, O((k2 + 1)^2 n^2 + K^2 n^2) in all.
        """
        sb = np.asarray(sb, dtype=float)
        n, w = self.n, len(sb) - 1
        if self.K * (2 * (w + self.k2) + 1) <= 2 * n:
            # g[pad + w + t, c] = S[c + t, c], with zero rows for |t| > w
            pad = 2 * self.k2
            g = np.zeros((2 * (w + pad) + 1, n))
            g[pad : pad + 2 * w + 1] = signed_band(sb)

            def pair(oa, ob, pa, pb):
                la, rows = n - oa, 2 * w + 1 + oa + ob
                # row r holds had[i, i + r - w - ob]
                had = g[pad - oa - ob : pad + 2 * w + 1, oa:] * g[pad : pad + rows, :la]
                had += g[pad - oa : pad - oa + rows, oa:] * g[pad - ob : pad - ob + rows, :la]
                # window[b, r, i] = pb[b, i + r - w - ob], zero off the profile
                padded = np.zeros((len(pb), n + 2 * w + ob))
                padded[:, w + ob : w + ob + n] = pb
                window = sliding_window_view(padded, la, axis=1)
                return pa @ np.einsum("bri,ri->ib", window, had)
        else:
            s = band_to_dense(sb)

            def pair(oa, ob, pa, pb):
                la, lb = n - oa, n - ob
                had = s[oa:, :lb] * s[:la, ob:]
                had += s[oa:, ob:] * s[:la, :lb]
                return pa @ had @ pb[:, :lb].T

        groups = self._by_offset()
        out = np.empty((self.K, self.K))
        for a, (oa, ka) in enumerate(groups):
            pa = self.bands[ka, : n - oa] * (2.0 if oa else 1.0)
            for ob, kb in groups[a:]:
                # strip pairs (0, oa)-(0, ob) and (0, oa)-(ob, 0)
                block = pair(oa, ob, pa, self.bands[kb] * (2.0 if ob else 1.0))
                out[np.ix_(ka, kb)] = block
                out[np.ix_(kb, ka)] = block.T
        return 0.5 * (out + out.T)

    def spectral_norms(self) -> np.ndarray:
        """Exact spectral norms per k via banded eigensolves."""
        if self._spectral_norms is None:
            out = np.empty(self.K)
            for pos, j2 in enumerate(self.offsets):
                bands = np.zeros((j2 + 1, self.n))
                bands[j2] = self.bands[pos]
                w = band_eigh(bands, vectors=False)
                out[pos] = float(np.max(np.abs(w)))
            self._spectral_norms = out
        return self._spectral_norms


def diagonal_gram(offsets, profiles) -> np.ndarray:
    """Frobenius Gram [<A_k, A_l>_F] of symmetric matrices that each hold one
    diagonal, plain or wrapped: values profiles[k] at offset offsets[k] and,
    for an offset j2 > 0, the mirror image (2 j2 < n for wrapped ones).
    Diagonals at different offsets do not meet, so
    <A_k, A_l>_F = [j2_k = j2_l] c profiles[k] . profiles[l], c = 2 if j2 > 0
    and 1 otherwise: O(K^2 n) on the profiles, no n x n array."""
    offsets, profiles = np.asarray(offsets), np.asarray(profiles, dtype=float)
    same = offsets[:, None] == offsets[None, :]
    return np.where(same, np.where(offsets > 0, 2.0, 1.0) * (profiles @ profiles.T), 0.0)


def build_basis(n: int, k1: int, k2: int) -> BasisSystem:
    return BasisSystem(n, k1, k2)


def _require(obj, cls, what):
    """PreconditionError unless obj is a cls: a density is a SpectralDensity
    and a symbol a TransferFunction, never a callable."""
    if not isinstance(obj, cls):
        raise PreconditionError(f"{what} needs a {cls.__name__}, got {type(obj).__name__}")


def build_theta(f: SpectralDensity, n: int) -> CovarianceMatrix:
    """Covariance with entry (a,b) = integral exp(i(a-b)x) f(min(a,b)/n, x) dx.

    f is a density in the basis span, so the entries are in closed form and
    theta is the band of the density's largest j2, built at any n.
    """
    _require(f, SpectralDensity, "build_theta")
    terms = [(idx, c) for idx, c in f.coeffs.items() if c != 0.0]
    width = max((idx.j2 for idx, _ in terms), default=0)
    if width >= n:
        raise PreconditionError("density band exceeds matrix size")
    ab = np.zeros((width + 1, n))
    for idx, c in terms:
        j, j2 = idx.j, idx.j2
        trig = np.cos if idx.parity == POS else np.sin
        xweight = math.pi * (2.0 if j2 == 0 else 1.0)
        m = np.arange(n - j2)
        ab[j2, : n - j2] += c * basis_norm(idx) * xweight * trig(TWO_PI * j * m / n)
    return CovarianceMatrix(ab)


def build_vartheta(a: TransferFunction, n: int) -> CovarianceMatrix:
    """Moving-average covariance: entry (s,t) integrates e^{ix(s-t)} A A-bar.

    The entries are exact: entry (s + d, s) is 2 pi sum_m c_m(s/n)
    c_{m-d}((s+d)/n), zero past d = 2 k2, so the result is the band of
    half-width 2 k2, built at any n.
    """
    _require(a, TransferFunction, "build_vartheta")
    comps = a.components(np.arange(n) / n)  # comps[s, m + k2] = c_m(s / n)
    w = comps.shape[1]
    ab = np.zeros((min(w, n), n))
    for d in range(len(ab)):
        ab[d, : n - d] = TWO_PI * np.sum(comps[: n - d, d:] * comps[d:, : w - d], axis=1)
    return CovarianceMatrix(ab)


def density_coefficients(f: SpectralDensity, basis: BasisSystem) -> np.ndarray:
    """<f, phi_k> in enumeration order, read off the span density."""
    _require(f, SpectralDensity, "density_coefficients")
    return np.array([f.coeffs.get(idx, 0.0) for idx in basis.indices])


def presmoothing_residual(theta: CovarianceMatrix, basis: BasisSystem) -> float:
    """relErr of theta against its basis reconstruction.

    relErr whitens the Frobenius projection by theta^{-1/2} on both sides:
    its square is tr(G G) = <G, G^T>_F for G = theta^{-1} E, one band
    product of band_function's theta^{-1} (a Chebyshev band, or the exact
    inverse as a full band for an ill-conditioned theta) and the residual
    E = theta - sum_k <theta, M_k> M_k.
    """
    if basis.n != theta.n:
        raise ConfigurationError("basis size does not match theta")
    inverse = band_function(theta.band, -1.0, error=RangeError, what="covariance")[0]
    proj = basis.band(basis.project(theta.band))
    resid = np.pad(theta.band, ((0, max(len(proj) - len(theta.band), 0)), (0, 0)))
    resid[: len(proj)] -= proj
    g = band_product(signed_band(inverse), signed_band(resid))
    return math.sqrt(max(float(np.vdot(g, band_transpose(g))), 0.0))


# Euler-Maclaurin for _hurwitz_zeta: direct terms, and B_2k / (2k)! for k = 1..8
_ZETA_TERMS = 10
_ZETA_BERNOULLI = tuple(
    b / math.factorial(2 * k)
    for k, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), 1)
)


def _hurwitz_zeta(sigma: float, a: float) -> float:
    """zeta(sigma, a) = sum_{j >= 0} (j + a)^-sigma, sigma > 1, 0 < a <= 1.

    Euler-Maclaurin from x = _ZETA_TERMS + a: the direct terms below x, then
    x^(1-sigma) / (sigma-1) + x^-sigma / 2 and the corrections
    B_2k / (2k)! sigma (sigma+1)...(sigma+2k-2) x^(1-sigma-2k), k <= 8.  The
    remainder is at most the first omitted correction (real sigma), below
    1e-18 of zeta(sigma, a) for every sigma > 1 at a in {1/4, 3/4, 1}.
    """
    x = _ZETA_TERMS + a
    head = math.fsum((j + a) ** -sigma for j in range(_ZETA_TERMS))
    tail = x ** (1.0 - sigma) / (sigma - 1.0) + 0.5 * x**-sigma
    # sigma (sigma+1)...(sigma+2k-2) x^(1-sigma-2k), k = 1, 2, ...
    rise = sigma * x ** (-sigma - 1.0)
    for k, coef in enumerate(_ZETA_BERNOULLI, 1):
        tail += coef * rise
        rise *= (sigma + 2 * k - 1) * (sigma + 2 * k) / (x * x)
    return head + tail


def class_c1(s: float, L: float) -> float:
    """Uniform first-argument derivative bound over the class, s > 2.

    2*sqrt(2*pi*L) times the root of the lattice sum of (j^2+j2^2)^(-sigma),
    sigma = s-1, over nonzero nonnegative pairs: exactly zeta(sigma) beta(sigma)
    + zeta(2 sigma), beta(sigma) = 4^(-sigma) (zeta(sigma, 1/4) - zeta(sigma, 3/4)),
    as Z^2 minus the origin sums to 4 zeta(sigma) beta(sigma) (Borwein, Glasser,
    McPhedran, Wan & Zucker, Lattice Sums Then and Now, 2013), with
    zeta(sigma) = zeta(sigma, 1).
    """
    if s <= 2.0:
        raise ConfigurationError("the derivative bound needs s > 2")
    sigma = s - 1.0
    beta = 4.0**-sigma * (_hurwitz_zeta(sigma, 0.25) - _hurwitz_zeta(sigma, 0.75))
    lattice = _hurwitz_zeta(sigma, 1.0) * beta + _hurwitz_zeta(2.0 * sigma, 1.0)
    return 2.0 * math.sqrt(TWO_PI) * math.sqrt(L) * math.sqrt(lattice)


def theta_lipschitz_check(f: SpectralDensity, g: SpectralDensity, n: int) -> list:
    """Both Frobenius-Lipschitz bounds as report entries; sup |f - g| is its
    node maximum widened by node_gap."""
    theta_f, theta_g = (signed_band(build_theta(h, n).band) for h in (f, g))
    lhs = signed_frob(theta_f, theta_g) ** 2
    h = {idx: f.coeffs.get(idx, 0.0) - g.coeffs.get(idx, 0.0) for idx in f.coeffs | g.coeffs}
    hvals = default_grid().synthesize(list(h), list(h.values()))
    h_sup = float(np.max(np.abs(hvals))) + node_gap(h)
    h_l2_sq = float(default_grid().integrate(hvals**2))
    out = [
        CheckResult(
            "theta.lipschitz_sup",
            "frobenius-lipschitz",
            lhs,
            12.0 * math.pi**2 * n * h_sup**2,
        )
    ]
    if f.s > 2.0 and g.s > 2.0:
        c1 = class_c1(min(f.s, g.s), max(f.L, g.L))
        rhs = 6.0 * math.pi * n * (h_l2_sq + 4.0 * math.pi * c1 * h_sup / n)
        out.append(CheckResult("theta.lipschitz_l2", "frobenius-lipschitz", lhs, rhs))
    return out


def coeff_identity_check(f: SpectralDensity, basis: BasisSystem) -> list:
    """Residual of the coefficient shortcut against its certified budget.

    The Frobenius coefficient of theta(f) against M_k is close to, but not
    exactly, <f, phi_k> times the raw norm; the gap per basis function is at
    most sqrt(32 pi^3) k1 k2 / sqrt(n).
    """
    alpha = basis.project(build_theta(f, basis.n).band)
    coeffs = density_coefficients(f, basis)
    shortcut = coeffs * basis.raw_norms
    resid = float(np.max(np.abs(alpha - shortcut)))
    per_l = math.sqrt(32.0 * math.pi**3) * basis.k1 * basis.k2 / math.sqrt(basis.n)
    budget = float(np.sum(np.abs(coeffs))) * per_l
    return [CheckResult("theta.coeff_shortcut", "coefficient-identity", resid, budget)]


# Allowance on each side of the admissible band [2 pi rho*, 2 pi / rho*]
_SPECTRAL_DELTA = 0.5


def theta_spectral_check(cov: CovarianceMatrix, rho_star: float) -> list:
    """The extreme eigenvalues of cov (one band_extremes call) against the
    admissible band [2 pi rho*, 2 pi / rho*] of a density with values in
    [rho*, 1 / rho*], widened by _SPECTRAL_DELTA = 0.5 on each side."""
    wmin, wmax = band_extremes(cov.band)
    lo, hi = TWO_PI * rho_star - _SPECTRAL_DELTA, TWO_PI / rho_star + _SPECTRAL_DELTA
    return [
        CheckResult("covariance.eig_lower", "spectral-band", lo, wmin),
        CheckResult("covariance.eig_upper", "spectral-band", wmax, hi),
    ]
