"""Characteristic-function analysis of localized quadratic statistics.

Conditionally on the localizing covariance, the vector of quadratic
statistics has a characteristic function that factors over the eigenvalues
of a matrix pencil.  A context stores the standardized spectrum
lam = Gamma^{-1/2} joint and shift s = Gamma^{-1/2} d once; one log-form
evaluator (_log_psi) turns t . lam and t . s into psi*, log psi* or |psi*|.
On it the module expands psi* in an Edgeworth-type series with certified
coefficient and remainder bounds, bounds Fourier tails, and inverts psi*
numerically to measure total-variation distance from the Gaussian limit
(K <= 2).
"""

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from ._linalg import check_symmetric, dense_to_band, guard_spectrum, guarded_eig
from .errors import AccuracyError, PreconditionError, RangeError
from .report import CheckResult

__all__ = [
    "CharFnContext",
    "EdgeworthExpansion",
    "RadialProfile",
    "build_char_context",
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
    share (span_char_context builds it in closed form).  lam = Gamma^{-1/2}
    joint, the spectra of the D_k, and shift = Gamma^{-1/2} d are formed
    here, once: the standardized pencil sum_k t_k D_k has eigenvalues
    t . lam, and psi*(t) the phase t . shift.  span_char_context sets symbol:
    rows c_theta, c, m_0.. of linear polynomials u_0 + u_1 z with joint =
    c_theta m / c^2 at z = cos(pi j / (n + 1)); built directly, a context has none.
    """

    n: int
    d_vec: np.ndarray
    gamma_theta: np.ndarray
    gamma_inv_sqrt: np.ndarray
    mu: float
    joint: np.ndarray
    lam: np.ndarray = field(init=False)
    shift: np.ndarray = field(init=False)
    symbol: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        self.lam = self.gamma_inv_sqrt @ self.joint
        self.shift = self.gamma_inv_sqrt @ self.d_vec

    @property
    def K(self) -> int:
        return len(self.d_vec)

    def spectrum(self, R):
        """(nodes, weights) whose weighted sums give log psi*(t), |t| <= R:
        for K = 1 the distinct values of lam with their counts (exact); with
        a symbol and the m of _symbol_order, Gamma^{-1/2} joint(pi i / m),
        i = 0..m, weighted (n + 1) / m, the two ends (1/2)((n + 1) / m - 1);
        else the n columns of lam, weights None (1 each)."""
        if self.K == 1:
            lam, counts = np.unique(self.lam[0], return_counts=True)
            return lam[None], counts
        m = None if self.symbol is None else _symbol_order(self, R)[0]
        if m is None:
            return self.lam, None
        weights = np.full(m + 1, (self.n + 1) / m)
        weights[[0, -1]] = 0.5 * ((self.n + 1) / m - 1.0)
        nodes = _joint_symbol(self.symbol, np.cos(np.pi * np.arange(m + 1) / m))
        return self.gamma_inv_sqrt @ nodes, weights

    @functools.cached_property
    def mu_tail(self) -> float:
        """Bound on the standardized pencil's |eigenvalues| u . lam_{:,j} in
        every unit direction u: max_j |lam_{:,j}|_2 (or mu, if that is
        smaller by rounding)."""
        return min(self.mu, float(np.max(np.linalg.norm(self.lam, axis=0))))


def _joint_symbol(symbol, z):
    """joint = c_theta m / c^2 of a symbol's linear polynomials at z."""
    poly = symbol[:, 0, None] + symbol[:, 1, None] * np.ravel(z)
    return (poly[0] * poly[2:] / poly[1] ** 2).reshape((-1,) + np.shape(z))


# Largest |Delta log psi*| the symbol quadrature may leave; the strip half-widths
# a_max i / 32 it tries (a_max: nearest zero of c, at most 4); samples of a line
_SYMBOL_TOL, _STRIP_FRACTIONS, _STRIP_CAP, _LINE_SAMPLES = 1e-13, np.arange(1, 32) / 32.0, 4.0, 128


def _symbol_order(ctx, R):
    """(m, bound): the least m whose (m + 1)-node sum (spectrum) moves
    log psi*(t), |t| <= R, by at most bound <= _SYMBOL_TOL; (None, inf) if no
    m < n does.  With N = n + 1, g(theta) = log(1 - 2i t . Lambda(theta)),
    Lambda = Gamma^{-1/2} joint (even, 2 pi-periodic), sum_j g(pi j / N) is
    half the 2N-point trapezoid sum on the period less g(0) and g(pi); the
    weights make the same of the 2m-point sum times N / m.  If |g| <= B on
    |Im theta| <= a, a P-point sum is within 2PB / (e^{aP} - 1) of P / 2 pi
    times the integral (Trefethen & Weideman, SIAM Rev. 56, 2014, Thm 3.2),
    so |Delta log psi*| <= N B [(e^{2aN} - 1)^{-1} + (e^{2am} - 1)^{-1}].
    Lambda is analytic for cosh a < |c_0 / c_1|; Re(1 - 2i t . Lambda) is
    harmonic, so its minimum is 1 - 2R |Im Lambda|_2 on the line
    Im theta = a (Lambda(-conj theta) = conj Lambda(theta)), and where that is
    positive B = max(log(1 + 2R |Lambda|_2), -log min Re) + pi / 2 (maximum
    modulus).  The line's maxima are enclosed by _LINE_SAMPLES + 1 samples of
    x in [0, pi] plus a Lipschitz margin L pi / (2 _LINE_SAMPLES), L =
    |Gamma^{-1/2}|_2 cosh a |d joint / dz|_2 from |sin theta|, |cos theta| <=
    cosh a, |u_0 + u_1 z| <= |u_0| + |u_1| cosh a and |c| >= |c_0| - |c_1| cosh a.
    """
    sym, n = ctx.symbol, ctx.n
    c0, c1 = abs(sym[1, 0]), abs(sym[1, 1])
    with np.errstate(invalid="ignore", divide="ignore"):  # inf or nan B and r only refuse an a
        a = min(math.acosh(max(c0 / c1, 1.0)) if c1 else math.inf, _STRIP_CAP) * _STRIP_FRACTIONS
        ch = np.cosh(a)
        up, low = np.abs(sym[:, :1]) + np.abs(sym[:, 1:]) * ch, c0 - c1 * ch
        slope = abs(sym[0, 1]) * up[2:] + up[0] * np.abs(sym[2:, 1:])
        slope = slope / low**2 + 2 * c1 * up[0] * up[2:] / low**3
        lip = np.linalg.norm(ctx.gamma_inv_sqrt, 2) * ch * np.linalg.norm(slope, axis=0)
        x = math.pi * np.arange(_LINE_SAMPLES + 1) / _LINE_SAMPLES
        lam = np.tensordot(ctx.gamma_inv_sqrt, _joint_symbol(sym, np.cos(np.add.outer(1j * a, x))), 1)
        norm, im = (np.max(np.linalg.norm(v, axis=0), axis=1) + lip * x[1] / 2 for v in (lam, lam.imag))
        B = np.maximum(np.log1p(2.0 * R * norm), -np.log1p(-2.0 * R * im)) + math.pi / 2
        tail = lambda p: np.exp(-2.0 * a * p) / -np.expm1(-2.0 * a * p)  # (e^{2ap} - 1)^{-1}
        r = _SYMBOL_TOL / ((n + 1) * B) - tail(n + 1)
        m = np.where(r > 0, np.ceil(np.log1p(1.0 / r) / (2.0 * a)), np.inf)
    k = int(np.argmin(m))
    if not m[k] < n:
        return None, math.inf
    return int(m[k]), float((n + 1) * B[k] * (tail(n + 1) + tail(m[k]))[k])


# Relative accuracy to which a dense covariance must be rebuilt from its span coefficients
_SPAN_RTOL = 1e-12
# Largest entry of |std std^T - I / 2| a closed-form context may carry
_ORTHO_TOL = 1e-8


def build_char_context(c_theta, c_mat, basis):
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
    return span_char_context(*alphas, basis)


def span_char_context(alpha_theta, alpha_c, basis):
    """CharFnContext of C_theta = sum_k alpha_theta[k] M_k and
    C = sum_k alpha_c[k] M_k for a window with k1 = 0, k2 <= 1, in O(K n).

    There M_0 = b_0 I and M_1 = b_1 (S + S^T) are diagonal in the DST-I
    basis Q_ij = sqrt(2 / (n + 1)) sin(pi i j / (n + 1)) (Strang, SIAM
    Rev. 41, 1999), with eigenvalues m_0(j) = b_0 and
    m_1(j) = 2 b_1 cos(pi j / (n + 1)).  With c = alpha_c . m and
    c_theta = alpha_theta . m, A_k has eigenvalues joint[k] = c_theta m_k / c^2,
    all in one order; d = joint 1, Gamma_theta = 2 joint joint^T (its
    standardized rows must have Gram matrix I / 2 to _ORTHO_TOL) and
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
    guard_spectrum(c_theta, require_pd=True)
    guard_spectrum(c_hat, require_pd=False)
    joint = c_theta * m_hat / c_hat**2
    gamma_theta = 2.0 * (joint @ joint.T)
    gamma_theta = 0.5 * (gamma_theta + gamma_theta.T)
    w_gamma, v_gamma = guarded_eig(gamma_theta, require_pd=True)
    gamma_inv_sqrt = (v_gamma / np.sqrt(w_gamma)) @ v_gamma.T
    m_norm = math.sqrt(np.sum(np.max(np.abs(m_hat), axis=1) ** 2))
    ctx = CharFnContext(
        n=n,
        d_vec=np.sum(joint, axis=1),
        gamma_theta=gamma_theta,
        gamma_inv_sqrt=gamma_inv_sqrt,
        mu=float(np.max(c_theta) / np.min(np.abs(c_hat)) ** 2 / math.sqrt(np.min(w_gamma)) * m_norm),
        joint=joint,
    )
    defect = np.max(np.abs(ctx.lam @ ctx.lam.T - 0.5 * np.eye(basis.K)))
    if defect > _ORTHO_TOL:
        raise AccuracyError(f"standardized stack lost orthonormality: defect {defect:.3e}")
    m_poly = np.zeros((basis.K, 2))
    m_poly[0, 0], m_poly[1:, 1] = basis.bands[0, 0], 2.0 * basis.bands[1:, 0]
    ctx.symbol = np.vstack([alpha_theta @ m_poly, alpha_c @ m_poly, m_poly])
    return ctx


def context_from_state(state):
    """CharFnContext for an assembled localization state, in closed form:
    C_theta = alpha_theta and C = alpha_theta + eta_tilde in the span of a
    window with k1 = 0, k2 <= 1 (PreconditionError for any other window)."""
    return span_char_context(state.alpha_theta, state.alpha_theta + state.eta_tilde, state.basis)


# ---------------------------------------------------------------------------
# characteristic function


def _log_psi(lam, phase, counts=None):
    """(Re, Im) of log psi* at the pencil spectra lam (eigenvalues on the last
    axis) and phases t . shift: each factor (1 - 2i lam_j)^{-1/2} in polar
    form (Imhof, Biometrika 48, 1961),

        log psi* = -(1/4) sum_j log1p(4 lam_j^2) + i ((1/2) sum_j arctan(2 lam_j) - phase),

    so no power multiplies a rounding error and the phase is continuous in
    t.  With counts, lam_j is counted counts[j] times; with phase None, Im is
    None (|psi*| = exp(Re) needs no arctan).
    """
    x = 2.0 * lam
    total = (lambda v: np.sum(v, axis=-1)) if counts is None else (lambda v: v @ counts)
    re = -0.25 * total(np.log1p(x * x))
    return re, None if phase is None else 0.5 * total(np.arctan(x)) - phase


def _psi(lam, phase, counts=None):
    """psi* = exp(log psi*) of _log_psi."""
    re, im = _log_psi(lam, phase, counts)
    psi = np.exp(1j * im)
    psi *= np.exp(re)  # in place: one (2M + 1,) lattice-row temporary fewer
    return psi


def _spectra(t, ctx):
    """The standardized pencil's spectra t . lam and phases t . shift at
    (..., K) frequencies t."""
    t = np.asarray(t, dtype=float)
    return t @ ctx.lam, t @ ctx.shift


def char_fn_standardized(t, ctx):
    """psi*(t), the characteristic function of the centered, whitened
    statistic, at (..., K) frequencies t: an array of shape (...), a scalar
    for one frequency."""
    return _psi(*_spectra(t, ctx))[()]


# Radius x eigenvalue entries RadialProfile.abs_psi forms at a time (0.5 MB)
_RADIUS_BLOCK = 1 << 16


class RadialProfile:
    """One-dimensional slice r -> |char_fn_standardized(r * u)|, for the
    tail quadrature of fourier_tail_integral.

    Along a fixed unit direction u the pencil eigenvalues r (u . lam) scale
    linearly in the radius, so one spectrum u . lam serves every r.  abs_psi
    is vectorized over radius arrays, taken in blocks of at most
    _RADIUS_BLOCK radius x eigenvalue entries; each radius is one sum over
    the spectrum, whatever the block.
    """

    def __init__(self, ctx, u):
        u = np.asarray(u, dtype=float)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            raise PreconditionError("direction must be nonzero")
        u = u / nrm
        self.eigs = np.sort(u @ ctx.lam)

    def abs_psi(self, r):
        r = np.asarray(r, dtype=float)
        flat = r.reshape(-1)
        out = np.empty(flat.shape)
        step = max(1, _RADIUS_BLOCK // len(self.eigs))
        for r0 in range(0, len(flat), step):
            lam = np.multiply.outer(flat[r0 : r0 + step], self.eigs)
            out[r0 : r0 + step] = np.exp(_log_psi(lam, None)[0])
        # [()] turns the 0-d result of a scalar r into a scalar
        return out.reshape(r.shape)[()]


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
    # tr[(sum_k t_k D_k)^l] = sum_j (sum_k t_k lam_kj)^l, so the coefficient
    # of t^m is multinomial(m) sum_j prod_k lam_kj^{m_k}
    coef = lambda m: _multinomial(m) * np.sum(np.prod(ctx.lam ** np.array(m)[:, None], axis=0))
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
    nu: dict

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
    equality when every |lam_j| = mu.  Its tail
    |S^{K-1}| int_R^inf m(r) r^{K-1} dr is |S^{K-1}| (2 mu)^{-K} / 2 B_x(a, K/2),
    a = q - K/2, with B_x the unregularized incomplete beta function at
    x = 1 / (1 + s), s = 4 mu^2 R^2 (substitute t = 1 / (1 + 4 mu^2 r^2)); infinite
    unless mu^{-2} > 4K.  x^a is taken as exp(-a log1p(s)), since a rounded x
    raised to a ~ 1 / (8 mu^2) would carry a times its rounding error, and
    y = 1 - x as s / (1 + s).  For K = 2, B_x(a, 1) = x^a / a.  For K = 1,
    B_x(a, 1/2) = x^a y^{1/2} / a times the continued fraction of I_x(a, 1/2)
    (_beta_fraction), which converges where x < (a + 1) / (a + 5/2),
    that is R^2 > 3 / (1 + 4 mu^2); elsewhere this raises RangeError.  The
    bound is that tail times 1 + _TAIL_ALLOWANCE: a relative 1e-10 that
    covers the quadrature and rounding error of a numeric tail meeting m
    exactly.
    """
    K, mu = ctx.K, ctx.mu_tail
    if K > 2:
        raise PreconditionError("the tail bound is implemented for K <= 2 only")
    a = 1.0 / (8.0 * mu * mu) - K / 2.0
    if a <= 0.0:
        return math.inf
    s = 4.0 * mu * mu * R * R
    # x^a / a, the whole of B_x(a, 1) for K = 2
    lead = math.exp(-a * math.log1p(s)) / a
    if K == 2:
        sphere, incomplete = 2.0 * math.pi, lead
    else:
        x, y = 1.0 / (1.0 + s), s / (1.0 + s)
        if not x < (a + 1.0) / (a + 2.5):
            raise RangeError(f"the K = 1 tail bound needs R^2 > 3 / (1 + 4 mu^2), got R = {R!r}")
        sphere, incomplete = 2.0, lead * math.sqrt(y) * _beta_fraction(a, 0.5, x, y)
    return float((1.0 + _TAIL_ALLOWANCE) * sphere * 0.5 * (2.0 * mu) ** -K * incomplete)


# pairs of levels _beta_fraction may take; about 50 converge at R = 2 for any q
_FRACTION_PAIRS = 1000


def _beta_fraction(a, b, x, y):
    """The continued fraction 1 / (1 + e_0 / (1 + e_1 / (1 + ...))) of
    a B(a, b) I_x(a, b) / (x^a y^b), y = 1 - x exact, for x < (a + 1) / (a + b + 2)
    (Numerical Recipes 6.4; DiDonato and Morris, ACM TOMS 18, 1992), with
    e_{2m-1} = m (b - m) x / ((a + 2m - 1)(a + 2m)) and
    e_{2m} = -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)).

    Modified Lentz, one pair of levels (2m - 1, 2m) a step.  For large a and
    x near 1, e_{2m} is near -1, so 1 + e_{2m} is formed from y without
    cancellation and the even level's Lentz ratios from it, not as 1 + e d:
    the plain recurrence loses a factor 1 / (1 + e_0) of relative accuracy,
    6e-12 at q = 2^17, R = 2.  Raises AccuracyError after _FRACTION_PAIRS pairs.
    """

    def even_level(m):
        # (1 + e_{2m}, e_{2m}), the first from y, free of cancellation
        den = (a + 2 * m) * (a + 2 * m + 1)
        lead = (2 * m + 1 - b) * a + 3 * m * m + (2 - b) * m
        return (lead + (a + m) * (a + b + m) * y) / den, -(a + m) * (a + b + m) * x / den

    h = d = 1.0 / even_level(0)[0]
    c = 1.0
    for m in range(1, _FRACTION_PAIRS + 1):
        odd = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d_odd, c_odd = 1.0 / (1.0 + odd * d), 1.0 + odd / c
        base, even = even_level(m)
        # 1 + even d_odd = base - even odd d d_odd, as 1 - d_odd = odd d d_odd; c alike
        d, c = 1.0 / (base - even * odd * d * d_odd), base - even * odd / (c * c_odd)
        step = d_odd * c_odd * d * c
        h *= step
        if abs(step - 1.0) <= 2.0**-51:
            return h
    raise AccuracyError(f"incomplete beta fraction at a = {a!r}, x = {x!r} did not converge")


# Half-circle directions of the K = 2 numeric tail
_TAIL_ANGLES = 64


def fourier_tail_integral(R, ctx) -> CheckResult:
    """Numeric tail mass of |char_fn_standardized| beyond radius R vs bound.

    Returns a CheckResult with lhs = numeric, rhs = bound.  The numeric
    tail is 2 w sum_u int_R^inf |psi*(r u)| r^{K-1} dr over the direction
    [1] (w = 1) for K = 1, or the _TAIL_ANGLES = 64 midpoint directions of
    the half circle (w = pi / 64) for K = 2, each integral on the
    Gauss-Legendre ladder that starts at R.  When the integrability margin
    mu^{-2} > 8K + 16 fails, the check is reported as skipped with the
    margin recorded instead.
    """
    K = ctx.K
    # written as not(>) so that NaN is rejected too
    if not (R > 0.0 and math.isfinite(R)):
        raise PreconditionError(f"tail radius must be positive and finite, got {R!r}")
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
        angles = (np.arange(_TAIL_ANGLES) + 0.5) * np.pi / _TAIL_ANGLES
        dirs, weight = np.stack([np.cos(angles), np.sin(angles)], axis=1), np.pi / _TAIL_ANGLES
    else:
        raise PreconditionError("tail quadrature implemented for K <= 2 only")
    profiles = [RadialProfile(ctx, u) for u in dirs]
    moduli = lambda r: np.stack([profile.abs_psi(r) for profile in profiles]) * r ** (K - 1)
    numeric = 2.0 * weight * np.sum(_ladder_tails(moduli, 40, R)[:, 0])
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


def _ladder_tails(moduli, count, start):
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


# Largest fourier_tail_bound the oracle's truncation radius may leave
_TOL_TAIL = 1e-8


def _truncation(ctx):
    """The smallest ladder radius T_j = 4 * 1.5^j, j < 40, whose
    fourier_tail_bound is at most _TOL_TAIL."""
    for T in _TRUNCATION_START * _LADDER_RATIOS[:40]:
        if fourier_tail_bound(T, ctx) <= _TOL_TAIL:
            return float(T)
    raise RangeError("characteristic function tail does not decay; no usable T")


# Largest lattice half-width M = ceil(T / dw) the oracle accepts, by K; at the K = 1
# cap invert_cf_1d on its x grid takes 75 MB, the K = 2 lattice alone 270 MB
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


def _lattice_psi(ctx, cf_override, dw, M):
    """psi*(dw a) at [M + a] (K = 1), or psi*(dw (a, b)) at [M + a, M + b]
    (K = 2), for |a|, |b| <= M.

    The half a >= 0 is evaluated, the rest is psi*(-w) = conj psi*(w), each
    value by _psi over ctx.spectrum(R), R = sqrt(K) M dw the lattice corner
    (K = 1: distinct values and counts; K = 2: a certified symbol quadrature
    or the n exact columns), with the pencil of w, w_1 nodes_1 + w_2 nodes_2,
    formed one (2M + 1, p) frequency row at a time.  A cf_override gets the
    (M + 1, 1) frequencies (K = 1), or the same rows as (2M + 1, 2) arrays.
    """
    size = 2 * M + 1
    freqs = dw * np.arange(-M, M + 1)
    if cf_override is None:
        nodes, weights = ctx.spectrum(math.sqrt(ctx.K) * M * dw)
    if ctx.K == 1:
        r = freqs[M:]
        if cf_override is None:
            half = _psi(np.multiply.outer(r, nodes[0]), r * ctx.shift[0], weights)
        else:
            half = cf_override(r[:, None])
        return np.concatenate([np.conj(half[:0:-1]), half])
    psi = np.empty((size, size), dtype=complex)
    for a in range(M, size):
        if cf_override is None:
            row = np.multiply.outer(freqs, nodes[1]) + freqs[a] * nodes[0]
            psi[a] = _psi(row, freqs[a] * ctx.shift[0] + freqs * ctx.shift[1], weights)
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


def _lattice_density(ctx, cf_override, T, dw, x):
    """Density on x^K, K <= 2: the trapezoid sum over the lattice of step
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
        return invert_cf_1d(psi[M:], dw, x)
    phase = np.multiply.outer(x, dw * np.arange(-M, M + 1))
    c, s = np.cos(phase), np.sin(phase)
    left = np.hstack([c, s]) @ np.block([[psi.real, psi.imag], [psi.imag, -psi.real]])
    dens = left @ np.vstack([c.T, s.T])
    dens *= (dw / (2.0 * math.pi)) ** 2
    return dens


# Half-width and step of the oracle's x grid, by K
_X_MAX = {1: 20.0, 2: 8.0}
_DX = {1: 0.002, 2: 0.04}


def _gaussian_grid(K):
    """The x grid from -_X_MAX[K] to _X_MAX[K] at step _DX[K], and the
    N(0, I_K) density on grid^K: what tv_oracle and edgeworth_tv (K = 2) sum
    over.  The K = 2 pair, read twice a tvdecay row, is memoized, so its
    arrays are read-only; the K = 1 pair is read once a run and built on
    each call."""
    if K == 2:
        return _k2_gaussian_grid()
    x_max, dx = _X_MAX[1], _DX[1]
    x = np.arange(-x_max, x_max + dx / 2, dx)
    return x, np.exp(-x * x / 2.0) / (2.0 * math.pi) ** 0.5


@functools.cache
def _k2_gaussian_grid():
    x_max, dx = _X_MAX[2], _DX[2]
    x = np.arange(-x_max, x_max + dx / 2, dx)
    phi = np.exp(-np.add.outer(x * x, x * x) / 2.0) / (2.0 * math.pi)
    x.flags.writeable = phi.flags.writeable = False
    return x, phi


def tv_oracle(ctx, cf_override=None, details=False):
    """Total-variation distance of the standardized law from N(0, I_K), K <= 2.

    The density f is one trapezoid sum on a frequency lattice
    (_lattice_density) truncated at the smallest ladder radius
    T = 4 * 1.5^j whose fourier_tail_bound is at most _TOL_TAIL = 1e-8; the
    distance is (1/2) sum |f - phi_K| dx^K over the x grid from -_X_MAX[K]
    to _X_MAX[K] at step _DX[K].  cf_override
    replaces the characteristic function, mapping a (..., K) frequency
    array w to psi*(w) of shape (...), for cross-checks against closed-form
    laws; it is taken to be a law of the context's form and mu, and gets
    the same T.  With
    details=True returns (tv, info), info holding T and the tail bound at
    it (None with a cf_override).
    """
    K = ctx.K
    if K > 2:
        raise PreconditionError("tv_oracle supports K <= 2 only")
    x_max, dx = _X_MAX[K], _DX[K]
    if ctx.mu ** (-2.0) <= 8.0 * K and cf_override is None:
        raise RangeError(
            "characteristic function not certifiably integrable at this mu"
        )
    T = _truncation(ctx)
    dw = _lattice_step(x_max, ctx.mu)
    _half_width(T, dw, K)  # refuse before the grid is allocated
    grid, ref = _gaussian_grid(K)
    dens = _lattice_density(ctx, cf_override, T, dw, grid)
    dens -= ref  # in place, as is the abs: no (N_x, N_x) temporary
    tv = float(min(max(0.5 * np.sum(np.abs(dens, out=dens)) * dx**K, 0.0), 1.0))
    if not details:
        return tv
    tail = fourier_tail_bound(T, ctx) if cf_override is None else None
    return tv, {"truncation": T, "tail_bound": tail}


# ---------------------------------------------------------------------------
# third cumulants and the one-term Edgeworth distance


def moment_diagnostics(ctx) -> dict:
    """Third-cumulant tensor of the standardized statistic.

    cum3[k, l, m] = 8 tr(D_k D_l D_m) = 8 sum_j lam_kj lam_lj lam_mj; every
    entry tends to zero in the Gaussian limit.
    """
    cum3 = 8.0 * np.einsum("aj,bj,cj->abc", ctx.lam, ctx.lam, ctx.lam)
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
    K = 2 it is a Riemann sum on the oracle's K = 2 grid (_gaussian_grid).
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
    x, phi = _gaussian_grid(2)
    # kappa is symmetric: sum kappa He = sum_{p+q=3} C(3, p) kappa_{0^p 1^q} x_1^p x_2^q
    # - 3 sum_c (sum_a kappa_aac) x_c, as outer products of 1-d powers
    lin = 3.0 * np.trace(kappa)
    x2, x3 = x * x, x * x * x
    poly = np.add.outer(kappa[0, 0, 0] * x3 - lin[0] * x, kappa[1, 1, 1] * x3 - lin[1] * x)
    poly += np.multiply.outer(3.0 * kappa[0, 0, 1] * x2, x)
    poly += np.multiply.outer(x, 3.0 * kappa[0, 1, 1] * x2)
    return float(np.sum(phi * np.abs(poly)) * dx * dx / 12.0)
