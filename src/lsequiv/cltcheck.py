"""Characteristic-function analysis of localized quadratic statistics.

Conditionally on the localizing covariance, the vector of quadratic
statistics has a characteristic function that factors over the eigenvalues
of a matrix pencil.  This module evaluates that product exactly, expands
the standardized version in an Edgeworth-type series with certified
coefficient and remainder bounds, bounds Fourier tails, and inverts the
characteristic function numerically to measure total-variation distance
from the Gaussian limit (K <= 2).
"""

import functools
import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc
from scipy.special import gamma as gamma_fn

from ._linalg import _guard_spectrum, check_symmetric, dense_to_band, guarded_eig
from .errors import AccuracyError, PreconditionError, RangeError
from .report import CheckResult

__all__ = [
    "CharFnContext",
    "EdgeworthExpansion",
    "RadialProfile",
    "build_char_context",
    "char_fn",
    "char_fn_modulus",
    "char_fn_standardized",
    "context_from_state",
    "edgeworth_build",
    "edgeworth_radius",
    "edgeworth_tv",
    "fourier_tail_bound",
    "fourier_tail_integral",
    "invert_cf_1d",
    "moment_diagnostics",
    "remainder_bound",
    "span_char_context",
    "standardized_exp_series",
    "standardized_log_characteristic",
    "tv_oracle",
]


# ---------------------------------------------------------------------------
# context


@dataclass
class CharFnContext:
    """Eigen-ready data for the conditional characteristic function.

    d_vec holds the traces of A_k = C_theta^{1/2} C^{-1} M_k C^{-1}
    C_theta^{1/2} (the centering vector), gamma_theta = [2 tr(A_k A_l)], and
    the standardized D_k = sum_l (Gamma^{-1/2})_{kl} A_l make {sqrt(2) D_k}
    Frobenius-orthonormal.  mu is the spectral budget behind every bound.
    joint holds the (K, n) spectra of the A_k in the one eigenbasis they
    share, so the pencil sum_k v_k A_k of any direction v has eigenvalues
    v . joint (span_char_context builds it in closed form).
    """

    n: int
    d_vec: np.ndarray
    gamma_theta: np.ndarray
    gamma_inv_sqrt: np.ndarray
    mu: float
    joint: np.ndarray

    @property
    def K(self) -> int:
        return len(self.d_vec)

    @functools.cached_property
    def mu_tail(self) -> float:
        """Bound on the standardized pencil's |eigenvalues| u . Lambda_{:,j} in
        every unit direction u, Lambda = Gamma^{-1/2} joint: max_j |Lambda_{:,j}|_2
        (or mu, if that is smaller by rounding)."""
        lam = self.gamma_inv_sqrt @ self.joint
        return min(self.mu, float(np.max(np.linalg.norm(lam, axis=0))))

    def pencil_eigs(self, v) -> np.ndarray:
        """Ascending eigenvalues of the pencil sum_k v_k A_k.

        The standardized pencil sum_k t_k D_k is that of gamma_inv_sqrt @ t.
        """
        return np.sort(np.asarray(v, dtype=float) @ self.joint)


# Relative accuracy to which a dense covariance must be rebuilt from its span coefficients
_SPAN_RTOL = 1e-12


def build_char_context(c_theta, c_mat, basis, ortho_tol=1e-8):
    """span_char_context of a dense covariance pair.

    Each covariance must be symmetric and lie in the span of the basis: its
    band of half-width k2, projected onto the M_k, must be rebuilt from the
    coefficients to _SPAN_RTOL relative.  An off-span covariance, or a
    window other than k1 = 0, k2 <= 1, raises PreconditionError.
    """
    alphas = []
    for cov, what in ((c_theta, "target covariance"), (c_mat, "localized covariance")):
        cov = np.asarray(cov, dtype=float)
        if cov.shape != (basis.n, basis.n):
            raise PreconditionError("covariances must match the basis dimension")
        check_symmetric(cov, what=what)
        band = dense_to_band(cov, basis.k2, what=what)
        alpha = basis.project(band)
        if np.max(np.abs(basis.band(alpha) - band)) > _SPAN_RTOL * np.max(np.abs(band)):
            raise PreconditionError(f"{what} is not in the span of the basis")
        alphas.append(alpha)
    return span_char_context(*alphas, basis, ortho_tol)


def span_char_context(alpha_theta, alpha_c, basis, ortho_tol=1e-8):
    """CharFnContext of C_theta = sum_k alpha_theta[k] M_k and
    C = sum_k alpha_c[k] M_k for a window with k1 = 0, k2 <= 1, in O(K n).

    There M_0 = b_0 I and M_1 = b_1 (S + S^T) are diagonal in the DST-I
    basis Q_ij = sqrt(2 / (n + 1)) sin(pi i j / (n + 1)) (Strang, SIAM
    Rev. 41, 1999), with eigenvalues m_0(j) = b_0 and
    m_1(j) = 2 b_1 cos(pi j / (n + 1)).  With c = alpha_c . m and
    c_theta = alpha_theta . m, A_k has eigenvalues joint[k] = c_theta m_k / c^2,
    all in one order; d = joint 1, Gamma_theta = 2 joint joint^T (its
    standardized rows must have Gram matrix I / 2 to ortho_tol) and
    mu = |C_theta| |C^{-1}|^2 |Gamma^{-1/2}| sqrt(sum_k |M_k|_2^2), |M_k|_2 =
    max_j |m_k(j)|.  Coefficients not of shape (K,) raise PreconditionError;
    a non-finite or (near-)singular c or c_theta, or a c_theta that is not
    positive, raises SingularMatrixError.
    """
    if basis.k1 != 0 or basis.k2 > 1:
        raise PreconditionError(
            f"closed-form context needs k1 = 0 and k2 <= 1, got ({basis.k1}, {basis.k2})"
        )
    alpha_theta, alpha_c = (np.asarray(a, dtype=float) for a in (alpha_theta, alpha_c))
    if alpha_theta.shape != (basis.K,) or alpha_c.shape != (basis.K,):
        raise PreconditionError(f"span coefficients must have shape ({basis.K},)")
    n = basis.n
    m_hat = np.empty((basis.K, n))
    m_hat[0] = basis.bands[0, 0]
    if basis.K == 2:
        m_hat[1] = 2.0 * basis.bands[1, 0] * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    c_theta = alpha_theta @ m_hat
    c_hat = alpha_c @ m_hat
    _guard_spectrum(c_theta, require_pd=True)
    _guard_spectrum(c_hat, require_pd=False)
    joint = c_theta * m_hat / c_hat**2
    gamma_theta = 2.0 * (joint @ joint.T)
    gamma_theta = 0.5 * (gamma_theta + gamma_theta.T)
    w_gamma, v_gamma = guarded_eig(gamma_theta, require_pd=True)
    gamma_inv_sqrt = (v_gamma / np.sqrt(w_gamma)) @ v_gamma.T
    std = gamma_inv_sqrt @ joint
    defect = np.max(np.abs(std @ std.T - 0.5 * np.eye(basis.K)))
    if defect > ortho_tol:
        raise AccuracyError(f"standardized stack lost orthonormality: defect {defect:.3e}")
    m_norm = math.sqrt(np.sum(np.max(np.abs(m_hat), axis=1) ** 2))
    return CharFnContext(
        n=n,
        d_vec=np.sum(joint, axis=1),
        gamma_theta=gamma_theta,
        gamma_inv_sqrt=gamma_inv_sqrt,
        mu=float(np.max(c_theta) / np.min(np.abs(c_hat)) ** 2 / math.sqrt(np.min(w_gamma)) * m_norm),
        joint=joint,
    )


def context_from_state(state):
    """CharFnContext for an assembled localization state, in closed form:
    C_theta = alpha_theta and C = alpha_theta + eta_tilde in the span of a
    window with k1 = 0, k2 <= 1 (PreconditionError for any other window)."""
    return span_char_context(state.alpha_theta, state.alpha_theta + state.eta_tilde, state.basis)


# ---------------------------------------------------------------------------
# characteristic function


def char_fn(t, ctx) -> complex:
    """Product form of the conditional characteristic function at t.

    Each factor (1 - 2i*lam)^{-1/2} uses the principal branch, which is
    unambiguous because every 1 - 2i*lam has real part one.
    """
    lam = ctx.pencil_eigs(t)
    return complex(np.prod((1.0 - 2j * lam) ** (-0.5)))


def char_fn_modulus(t, ctx) -> float:
    """|char_fn(t)| through the closed form prod (1 + 4 lam^2)^{-1/4}."""
    lam = ctx.pencil_eigs(t)
    return float(np.prod((1.0 + 4.0 * lam**2) ** (-0.25)))


def char_fn_standardized(t, ctx) -> complex:
    """Characteristic function of the centered, whitened statistic."""
    t = np.asarray(t, dtype=float)
    v = ctx.gamma_inv_sqrt @ t
    phase = float(v @ ctx.d_vec)
    return complex(np.exp(-1j * phase) * char_fn(v, ctx))


def standardized_log_characteristic(t, ctx) -> complex:
    """log of char_fn_standardized evaluated without branch ambiguity."""
    t = np.asarray(t, dtype=float)
    v = ctx.gamma_inv_sqrt @ t
    lam = ctx.pencil_eigs(v)
    return complex(
        -1j * float(v @ ctx.d_vec) - 0.5 * np.sum(np.log(1.0 - 2j * lam))
    )


def standardized_exp_series(t, ctx) -> complex:
    """char_fn_standardized(t) with the Gaussian factor exp(-|t|^2/2) removed."""
    t = np.asarray(t, dtype=float)
    return char_fn_standardized(t, ctx) * math.exp(0.5 * float(t @ t))


class RadialProfile:
    """One-dimensional slice r -> |char_fn_standardized(r * u)|, for the
    tail quadrature of fourier_tail_integral.

    Along a fixed unit direction u the pencil eigenvalues scale linearly
    in the radius, so one spectrum, read from the joint spectrum by
    ctx.pencil_eigs, serves every r.  abs_psi is vectorized over radius
    arrays.
    """

    def __init__(self, ctx, u):
        u = np.asarray(u, dtype=float)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            raise PreconditionError("direction must be nonzero")
        u = u / nrm
        self.eigs = ctx.pencil_eigs(ctx.gamma_inv_sqrt @ u)

    def abs_psi(self, r):
        r = np.asarray(r, dtype=float)
        x = 2.0 * np.multiply.outer(r, self.eigs)
        return np.exp(-0.25 * np.sum(np.log1p(x * x), axis=-1))


# ---------------------------------------------------------------------------
# Edgeworth expansion

def _monomials(K, degree):
    """Multi-indices in K variables of the given total degree."""
    out = []
    for combo in combinations_with_replacement(range(K), degree):
        m = [0] * K
        for k in combo:
            m[k] += 1
        out.append(tuple(m))
    return out


def _multinomial(m) -> int:
    """(sum m)! / prod_k m_k!"""
    return math.factorial(int(sum(m))) // math.prod(math.factorial(int(mk)) for mk in m)


def _trace_polys_joint(ctx, Q):
    # tr[(sum_k t_k D_k)^l] = sum_j (sum_k t_k lam_kj)^l, lam = Gamma^{-1/2} joint,
    # so the coefficient of t^m is multinomial(m) sum_j prod_k lam_kj^{m_k}
    lam = ctx.gamma_inv_sqrt @ ctx.joint
    coef = lambda m: _multinomial(m) * np.sum(np.prod(lam ** np.array(m)[:, None], axis=0))
    return {ell: {m: complex(coef(m)) for m in _monomials(ctx.K, ell)} for ell in range(3, Q + 1)}


def _poly_mul_truncated(p, q, max_deg):
    out = {}
    for ma, ca in p.items():
        da = sum(ma)
        for mb, cb in q.items():
            if da + sum(mb) > max_deg:
                continue
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0.0) + ca * cb
    return out


@dataclass
class EdgeworthExpansion:
    """Polynomial correction P(t) = 1 + sum nu_m t^m, degrees 3..Q."""

    Q: int
    K: int
    mu: float
    nu: dict = field(default_factory=dict)

    def poly_eval(self, t) -> complex:
        t = np.asarray(t, dtype=float)
        total = 1.0 + 0.0j
        for m, c in self.nu.items():
            total += c * np.prod(t ** np.array(m))
        return complex(total)

    def coefficient_bound(self, m) -> float:
        q = int(sum(m))
        return float(_multinomial(m)) * 2.0**q * self.mu ** (q / 3.0) * q**0.25

    @property
    def validity_radius(self) -> float:
        return edgeworth_radius(self.Q, self.K, self.mu)


def edgeworth_build(ctx, Q) -> EdgeworthExpansion:
    """Exact degree-Q truncation of exp of the cumulant trace series.

    The trace polynomials t -> tr[(sum t_k D_k)^l] are formed exactly from
    the joint spectrum, then the exponential is multiplied out, dropping
    every monomial above degree Q.
    """
    if Q < 2:
        raise PreconditionError("expansion order Q must be at least 2")
    K = ctx.K
    polys = _trace_polys_joint(ctx, Q)

    zero = (0,) * K
    series = {}
    for ell, poly in polys.items():
        w = 0.5 * (2j) ** ell / ell
        for m, c in poly.items():
            series[m] = series.get(m, 0.0) + w * c

    result = {zero: 1.0 + 0.0j}
    term = {zero: 1.0 + 0.0j}
    for j in range(1, Q // 3 + 1):
        term = _poly_mul_truncated(term, series, Q)
        for m, c in term.items():
            result[m] = result.get(m, 0.0) + c / math.factorial(j)
    nu = {m: c for m, c in result.items() if sum(m) >= 3}
    return EdgeworthExpansion(Q=Q, K=K, mu=ctx.mu, nu=nu)


def edgeworth_radius(Q, K, mu) -> float:
    """Radius of the ball on which the remainder bound is finite.

    The geometric-series step behind the bound needs
    2 sqrt(K) mu^{1/3} (Q+1)^{1/(4Q+4)} |t| < 1, so the admissible radius
    carries (Q+1)^{1/(4Q+4)} in the denominator.
    """
    return mu ** (-1.0 / 3.0) / (2.0 * math.sqrt(K) * (Q + 1) ** (1.0 / (4 * Q + 4)))


def remainder_bound(t, expansion) -> float:
    """Closed-form bound on |exp-series minus polynomial| at t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tnorm = float(np.linalg.norm(t))
    Q, K, mu = expansion.Q, expansion.K, expansion.mu
    base = 2.0 * math.sqrt(K) * mu ** (1.0 / 3.0) * tnorm
    ratio = base * (Q + 1) ** (1.0 / (4 * Q + 4))
    if ratio >= 1.0:
        raise RangeError(
            f"|t| = {tnorm:.6g} outside the validity radius "
            f"{edgeworth_radius(Q, K, mu):.6g}"
        )
    return (Q + 1) ** 0.25 * base ** (Q + 1) / (1.0 - ratio)


# ---------------------------------------------------------------------------
# Fourier tails


# Relative allowance of fourier_tail_bound over the exact majorant tail
_TAIL_ALLOWANCE = 1e-10


def fourier_tail_bound(R, ctx) -> float:
    """Certified bound on the tail integral of |char_fn_standardized| beyond R.

    Along a unit direction the standardized pencil has sum_j lam_j^2 = 1/2
    and |lam_j| <= mu = ctx.mu_tail.  s -> log1p(4 r^2 s) is concave and zero at zero, so
    log1p(4 r^2 lam_j^2) >= (lam_j^2 / mu^2) log1p(4 r^2 mu^2), and summing
    gives |psi*(r u)| <= m(r) = (1 + 4 r^2 mu^2)^{-q}, q = 1 / (8 mu^2), with
    equality when every |lam_j| = mu.  With s = 4 mu^2 r^2 and x = 1 / (1 + s)
    its tail |S^{K-1}| int_R^inf m(r) r^{K-1} dr is
    |S^{K-1}| (2 mu)^{-K} / 2 B(K/2, q - K/2) I_x(q - K/2, K/2) at
    x = 1 / (1 + 4 mu^2 R^2), infinite unless mu^{-2} > 4K.  The bound is
    that tail times 1 + _TAIL_ALLOWANCE: a relative 1e-10 that covers the
    quadrature and rounding error of a numeric tail meeting m exactly.
    """
    K, mu = ctx.K, ctx.mu_tail
    q = 1.0 / (8.0 * mu * mu)
    if q <= K / 2.0:
        return math.inf
    sphere = 2.0 * math.pi ** (K / 2.0) / gamma_fn(K / 2.0)
    tail = sphere * 0.5 * (2.0 * mu) ** -K * beta_fn(K / 2.0, q - K / 2.0)
    x = 1.0 / (1.0 + 4.0 * mu * mu * R * R)
    return float((1.0 + _TAIL_ALLOWANCE) * tail * betainc(q - K / 2.0, K / 2.0, x))


def _require_positive(name, value):
    """PreconditionError unless value is a positive finite number."""
    # written as not(>) so that NaN is rejected too
    if not (value > 0.0 and math.isfinite(value)):
        raise PreconditionError(f"{name} must be positive and finite, got {value!r}")


def fourier_tail_integral(R, ctx, n_angles=64) -> CheckResult:
    """Numeric tail mass of |char_fn_standardized| beyond radius R vs bound.

    Returns a CheckResult with lhs = numeric, rhs = bound.  The numeric
    tail is 2 w sum_u int_R^inf |psi*(r u)| r^{K-1} dr over the direction
    [1] (w = 1) for K = 1, or the n_angles half-circle directions
    (w = pi / n_angles) for K = 2, each integral on the Gauss-Legendre
    ladder that starts at R.  When the integrability margin
    mu^{-2} > 8K + 16 fails, the check is reported as skipped with the
    margin recorded instead.
    """
    K = ctx.K
    _require_positive("tail radius", R)
    if not (isinstance(n_angles, numbers.Integral) and n_angles >= 1):
        raise PreconditionError(f"n_angles must be a positive integer, got {n_angles!r}")
    margin = ctx.mu ** (-2.0)
    needed = 8.0 * K + 16.0
    if margin <= needed:
        return CheckResult(
            check_id=f"fourier-tail-R{R:g}",
            ref="tail-integrability",
            lhs=float(needed),
            rhs=float(margin),
            skipped=True,
        )
    if K == 1:
        dirs, weight = np.ones((1, 1)), 1.0
    elif K == 2:
        angles = (np.arange(n_angles) + 0.5) * np.pi / n_angles
        dirs, weight = np.stack([np.cos(angles), np.sin(angles)], axis=1), np.pi / n_angles
    else:
        raise PreconditionError("tail quadrature implemented for K <= 2 only")
    profiles = [RadialProfile(ctx, u) for u in dirs]
    moduli = lambda r: np.stack([profile.abs_psi(r) for profile in profiles]) * r ** (K - 1)
    numeric = 2.0 * weight * np.sum(_ladder_tails(moduli, 40, start=R)[:, 0])
    return CheckResult(
        check_id=f"fourier-tail-R{R:g}",
        ref="tail-quadrature",
        lhs=float(numeric),
        rhs=fourier_tail_bound(R, ctx),
    )


# ---------------------------------------------------------------------------
# inversion and total variation


# Ladder radii T_j = start * 1.5^j, j <= 40; the truncation starts at 4
_LADDER_RATIOS = 1.5 ** np.arange(41)
_TRUNCATION_START = 4.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _ladder_tails(moduli, count, start=_TRUNCATION_START):
    """int_{T_j}^inf moduli(r) dr for j < count, one row per direction.

    T_j = start * 1.5^j, count <= 40.  moduli maps a radius array to one
    row of values per direction.  Each segment [T_j, T_{j+1}] gets a
    Gauss-Legendre rule, and [T_count, inf) the same rule after
    r = T_count / s, s in (0, 1].
    """
    ladder = start * _LADDER_RATIOS[: count + 1]
    lo, hi = ladder[:-1], ladder[1:]
    half = 0.5 * (hi - lo)
    r_seg = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES
    s = 0.5 * (_GL_NODES + 1.0)
    r_far = ladder[count] / s
    vals = np.atleast_2d(moduli(np.concatenate([r_seg.ravel(), r_far])))
    seg = (vals[:, : r_seg.size].reshape(len(vals), count, -1) @ _GL_WEIGHTS) * half
    far = vals[:, r_seg.size :] @ (0.5 * _GL_WEIGHTS * ladder[count] / s**2)
    return far[:, None] + np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]


def _truncation(ctx, tol_tail):
    """The smallest ladder radius T_j = 4 * 1.5^j, j < 40, whose
    fourier_tail_bound is at most tol_tail."""
    for T in _TRUNCATION_START * _LADDER_RATIOS[:40]:
        if fourier_tail_bound(T, ctx) <= tol_tail:
            return float(T)
    raise RangeError("characteristic function tail does not decay; no usable T")


# Largest lattice half-width M = ceil(T / dw) the oracle accepts, by K; at the K = 1
# cap invert_cf_1d on the default grid takes 75 MB, the K = 2 lattice alone 270 MB
_LATTICE_CAP = {1: 1 << 14, 2: 2048}
# Aliased probability mass allowed per marginal over the x window
_ALIAS_TOL = 1e-12


def _half_width(T, dw, K):
    """M = ceil(T / dw); RangeError above _LATTICE_CAP[K]."""
    M = math.ceil(T / dw)
    if M > _LATTICE_CAP[K]:
        raise RangeError(f"truncation {T:.6g} needs lattice half-width {M} > {_LATTICE_CAP[K]}")
    return M


def _lattice_step(x_max, mu):
    """Frequency step dw of the lattice for the window [-x_max, x_max]^K.

    The trapezoid sum with step dw is the density periodized with period
    P = 2 pi / dw (Poisson summation).  Each marginal <u, Y> =
    sum_j lam_j (Z_j^2 - 1) has sum_j lam_j^2 = 1/2 and |lam_j| <= mu, so
    the bounds of Laurent & Massart (2000, Lemma 1) on its positive and
    negative parts give P(|<u, Y>| >= L) <= 4 e^{-t}, L = 2 sqrt(t) + 2 mu t.
    With t = log(4 / _ALIAS_TOL) and P = x_max + max(x_max, L) the shifted
    windows are disjoint and lie where a coordinate reaches L: the aliased
    mass over the window is at most K _ALIAS_TOL.  A cf_override is taken
    to be a law of this form with the context's mu.
    """
    t = math.log(4.0 / _ALIAS_TOL)
    reach = 2.0 * math.sqrt(t) + 2.0 * mu * t
    return 2.0 * math.pi / (x_max + max(x_max, reach))


def _psi_real_form(lam, phase):
    """exp(-i phase) prod_j (1 - 2i lam_j)^{-1/2} over the last axis of lam, as
    exp(-(1/4) sum log1p(4 lam^2) + i ((1/2) sum arctan(2 lam) - phase))."""
    x = 2.0 * lam
    modulus = np.exp(-0.25 * np.sum(np.log1p(x * x), axis=-1))
    return modulus * np.exp(1j * (0.5 * np.sum(np.arctan(x), axis=-1) - phase))


def _lattice_psi(ctx, cf_override, dw, M):
    """psi*(dw a) at [M + a] (K = 1), or psi*(dw (a, b)) at [M + a, M + b]
    (K = 2), for |a|, |b| <= M.

    The half a >= 0 is evaluated, the rest is psi*(-w) = conj psi*(w).  K = 1
    takes one pencil spectrum, the joint row, or one cf_override call on the
    (M + 1, 1) frequencies.  For K = 2 the pencil of w has eigenvalues
    w_1 Lambda_1 + w_2 Lambda_2, Lambda = Gamma^{-1/2} joint, formed one
    frequency row (2M + 1, n) at a time; a cf_override gets the same rows as
    (2M + 1, 2) frequency arrays.
    """
    size = 2 * M + 1
    freqs = dw * np.arange(-M, M + 1)
    if ctx.K == 1:
        r = freqs[M:]
        if cf_override is None:
            v = ctx.gamma_inv_sqrt[:, 0]
            half = _psi_real_form(np.multiply.outer(r, ctx.pencil_eigs(v)), r * float(v @ ctx.d_vec))
        else:
            half = cf_override(r[:, None])
        return np.concatenate([np.conj(half[:0:-1]), half])
    psi = np.empty((size, size), dtype=complex)
    lam = ctx.gamma_inv_sqrt @ ctx.joint
    shift = ctx.gamma_inv_sqrt @ ctx.d_vec
    for a in range(M, size):
        if cf_override is None:
            row = np.multiply.outer(freqs, lam[1]) + freqs[a] * lam[0]
            psi[a] = _psi_real_form(row, freqs[a] * shift[0] + freqs * shift[1])
        else:
            psi[a] = cf_override(np.stack(np.broadcast_arrays(freqs[a], freqs), axis=-1))
    psi[:M] = np.conj(psi[:M:-1, ::-1])
    psi[M, :M] = np.conj(psi[M, :M:-1])
    return psi


def invert_cf_1d(psi_half, dw, x):
    """Density (dw / pi) Re[psi_0 / 2 + sum_{a >= 1} psi_a exp(-i x a dw)] at x.

    psi_half holds psi* at the frequencies a dw, a = 0..M: this is the
    trapezoid sum over |a| <= M with psi*(-w) = conj psi*(w).  x must be a
    nonempty, uniformly spaced 1-d grid (relative 1e-9).  With
    x_i = x_0 + (p B + q) dx, B = ceil(sqrt(len(x))), the kernel factors as
    exp(-i (x_0 + p B dx) a dw) exp(-i q dx a dw), so the sum over a is one
    (P, M + 1) (M + 1, B) product, evaluated as two real ones.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise PreconditionError("inversion points must be a nonempty 1-d grid")
    count = len(x)
    dx = (x[-1] - x[0]) / (count - 1) if count > 1 else 0.0
    # written as not(<=) so that a NaN in x is rejected too
    if not np.all(np.abs(x - (x[0] + dx * np.arange(count))) <= 1e-9 * abs(dx)):
        raise PreconditionError("inversion points must be uniformly spaced")
    block = math.isqrt(count - 1) + 1
    freqs = dw * np.arange(len(psi_half))
    weights = np.asarray(psi_half, dtype=complex) * (dw / math.pi)
    weights[0] *= 0.5
    starts = x[0] + block * dx * np.arange(-(-count // block))
    coarse = weights * np.exp(np.multiply.outer(starts, -1j * freqs))
    fine = np.multiply.outer(freqs, dx * np.arange(block))
    dens = coarse.real @ np.cos(fine) + coarse.imag @ np.sin(fine)
    return dens.reshape(-1)[:count]


def _lattice_density(ctx, cf_override, T, dw, grid):
    """Density on grid^K, K <= 2: the trapezoid sum over the lattice of step
    dw and half-width M = ceil(T / dw) in each coordinate, which covers the
    ball of radius T.  K = 1 is invert_cf_1d on the half a >= 0.  For K = 2,
    with E[i, a] = exp(-i x_i dw a) = C - iS and psi* = P + iQ on it,
    f = (dw / 2 pi)^2 Re(E psi* E^T) = (dw / 2 pi)^2 [(CP + SQ) C^T + (CQ - SP) S^T].
    The rule converges geometrically for an analytic, decaying psi*
    (Trefethen & Weideman, 2014); _lattice_step bounds the aliasing.  M
    above _LATTICE_CAP[K] raises RangeError before psi* is evaluated.
    """
    M = _half_width(T, dw, ctx.K)
    psi = _lattice_psi(ctx, cf_override, dw, M)
    if ctx.K == 1:
        return invert_cf_1d(psi[M:], dw, grid)
    phase = np.multiply.outer(grid, dw * np.arange(-M, M + 1))
    c, s = np.cos(phase), np.sin(phase)
    left = np.hstack([c, s]) @ np.block([[psi.real, psi.imag], [psi.imag, -psi.real]])
    return (left @ np.vstack([c.T, s.T])) * (dw / (2.0 * math.pi)) ** 2


# Default half-width and step of the oracle's x grid, by K
_X_MAX = {1: 20.0, 2: 8.0}
_DX = {1: 0.002, 2: 0.04}


def _gaussian_grid(K, x_max, dx):
    """The x grid from -x_max to x_max at step dx, and the N(0, I_K) density
    on grid^K: what tv_oracle and edgeworth_tv (K = 2) sum over."""
    x = np.arange(-x_max, x_max + dx / 2, dx)
    sq = x * x if K == 1 else np.add.outer(x * x, x * x)
    return x, np.exp(-sq / 2.0) / (2.0 * math.pi) ** (K / 2.0)


def tv_oracle(ctx, tol_tail=1e-8, x_max=None, dx=None, cf_override=None, details=False):
    """Total-variation distance of the standardized law from N(0, I_K), K <= 2.

    The density f is one trapezoid sum on a frequency lattice
    (_lattice_density) truncated at the smallest ladder radius
    T = 4 * 1.5^j whose fourier_tail_bound is at most tol_tail; the
    distance is (1/2) sum |f - phi_K| dx^K over the x grid.  cf_override
    replaces the characteristic function, mapping a (..., K) frequency
    array w to psi*(w) of shape (...), for cross-checks against closed-form
    laws; it is taken to be a law of the context's form and mu, and gets
    the same T.  With
    details=True returns (tv, info), info holding T and the tail bound at
    it (None with a cf_override).  tol_tail, x_max and dx must be positive
    and finite.
    """
    K = ctx.K
    if K > 2:
        raise PreconditionError("tv_oracle supports K <= 2 only")
    x_max = _X_MAX[K] if x_max is None else x_max
    dx = _DX[K] if dx is None else dx
    for name, value in (("tol_tail", tol_tail), ("x_max", x_max), ("dx", dx)):
        _require_positive(name, value)
    if ctx.mu ** (-2.0) <= 8.0 * K and cf_override is None:
        raise RangeError(
            "characteristic function not certifiably integrable at this mu"
        )
    T = _truncation(ctx, tol_tail)
    dw = _lattice_step(x_max, ctx.mu)
    _half_width(T, dw, K)  # refuse before the grid is allocated
    grid, ref = _gaussian_grid(K, x_max, dx)
    dens = _lattice_density(ctx, cf_override, T, dw, grid)
    tv = float(min(max(0.5 * np.sum(np.abs(dens - ref)) * dx**K, 0.0), 1.0))
    if not details:
        return tv
    tail = fourier_tail_bound(T, ctx) if cf_override is None else None
    return tv, {"truncation": T, "tail_bound": tail}


# ---------------------------------------------------------------------------
# third cumulants and the one-term Edgeworth distance


def moment_diagnostics(ctx) -> dict:
    """Third-cumulant tensor of the standardized statistic.

    cum3[k, l, m] = 8 tr(D_k D_l D_m) = 8 sum_j lam_kj lam_lj lam_mj,
    lam = Gamma^{-1/2} joint; every entry tends to zero in the Gaussian
    limit.
    """
    lam = ctx.gamma_inv_sqrt @ ctx.joint
    cum3 = 8.0 * np.einsum("aj,bj,cj->abc", lam, lam, lam)
    return {
        "third_cumulant": cum3,
        "max_abs_third_cumulant": float(np.max(np.abs(cum3))),
        "mu": ctx.mu,
    }


def edgeworth_tv(ctx) -> float:
    """One-term Edgeworth distance TV_1 = (1/2) int phi_K |sum_abc kappa_abc He_abc| / 6.

    kappa is moment_diagnostics' third-cumulant tensor and He_abc(x) =
    x_a x_b x_c - delta_ab x_c - delta_ac x_b - delta_bc x_a.  For K = 1 the
    integral is closed, int phi |He_3| = (2 + 8 e^{-3/2}) / sqrt(2 pi); for
    K = 2 it is a Riemann sum on the oracle's default K = 2 grid (_gaussian_grid).
    The next Edgeworth term is even while the sign of He_abc is odd, so
    |tv - TV_1| = O(n^{-3/2}) (Bhattacharya & Rao, 1976).
    """
    kappa = moment_diagnostics(ctx)["third_cumulant"]
    if ctx.K == 1:
        he3 = (2.0 + 8.0 * math.exp(-1.5)) / math.sqrt(2.0 * math.pi)  # int phi |He_3|
        return abs(float(kappa[0, 0, 0])) / 12.0 * he3
    if ctx.K != 2:
        raise PreconditionError("edgeworth_tv supports K <= 2 only")
    dx = _DX[2]
    x, phi = _gaussian_grid(2, _X_MAX[2], dx)
    # kappa is symmetric: sum kappa He = sum_{p+q=3} C(3, p) kappa_{0^p 1^q} x_1^p x_2^q
    # - 3 sum_c (sum_a kappa_aac) x_c, as outer products of 1-d powers
    lin = 3.0 * np.trace(kappa)
    x2, x3 = x * x, x * x * x
    poly = np.add.outer(kappa[0, 0, 0] * x3 - lin[0] * x, kappa[1, 1, 1] * x3 - lin[1] * x)
    poly += np.multiply.outer(3.0 * kappa[0, 0, 1] * x2, x)
    poly += np.multiply.outer(x, 3.0 * kappa[0, 1, 1] * x2)
    return float(np.sum(phi * np.abs(poly)) * dx * dx / 12.0)
